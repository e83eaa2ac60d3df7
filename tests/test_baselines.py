"""Baseline prediction contracts and the completion adapter protocol."""

import json

import pytest

from conftest import replace
from tracefault.baselines import (
    FixtureAdapter,
    classify_llm_error,
    first_node_baseline,
    last_node_baseline,
    llm_baseline,
    parse_completion,
    random_baseline,
)
from tracefault.errors import AdapterFailure, UnparseableCompletion
from tracefault.model import content_key, load_json_object, parse_scenario


@pytest.fixture()
def trace(example1_bytes):
    return parse_scenario(example1_bytes).trace


def test_random_baseline_is_seeded_permutation(trace):
    one = random_baseline(trace)
    assert random_baseline(trace) == one
    assert sorted(one) == [1, 2, 3, 4, 5]
    # Seeded by content, not by id: a renamed (blind) copy draws the same.
    assert random_baseline(replace(trace, scenario_id="00c3d517ff6b")) == one


def test_random_single_node_trace(trace):
    from tracefault.model import ExecutionTrace

    single = ExecutionTrace(
        scenario_id="one",
        domain="d",
        agents=(trace.steps[0].agent,),
        steps=trace.steps[:1],
    )
    assert random_baseline(single) == (1,)


def test_first_node_baseline(trace):
    assert first_node_baseline(trace) == (1, 2, 3, 4, 5)


def test_last_node_baseline_walks_backward(trace):
    assert last_node_baseline(trace) == (4, 3, 2, 1, 5)


def test_last_node_degenerate_error_at_first_step(trace):
    single = replace(trace, steps=trace.steps[:1], agents=(trace.steps[0].agent,))
    assert last_node_baseline(single) == (1,)


def test_predictions_are_full_permutations(trace):
    for ordering in (
        random_baseline(trace),
        first_node_baseline(trace),
        last_node_baseline(trace),
    ):
        assert sorted(ordering) == [1, 2, 3, 4, 5]


def test_parse_completion_strict():
    assert parse_completion("3") == 3
    assert parse_completion("  12\nbecause...") == 12
    with pytest.raises(UnparseableCompletion):
        parse_completion("Step 3 is the cause")


def test_fixture_adapter_roundtrip(trace):
    adapter = FixtureAdapter({content_key(trace): "3"})
    pred = llm_baseline(trace, adapter)
    assert pred[0][0] == 3
    assert pred[0] == (3, 1, 2, 4, 5)
    assert not pred[1]
    assert llm_baseline(replace(trace, scenario_id="00c3d517ff6b"), adapter) == pred


def test_fixture_adapter_missing_scenario(trace):
    with pytest.raises(AdapterFailure) as exc:
        llm_baseline(trace, FixtureAdapter({trace.scenario_id: "3"}))
    assert "'sof_example1'" in str(exc.value)
    assert content_key(trace) in str(exc.value)


def test_unparseable_lenient_falls_back_to_last(trace):
    adapter = FixtureAdapter({content_key(trace): "no idea"})
    pred = llm_baseline(trace, adapter)
    assert pred[1]
    assert pred[0] == last_node_baseline(trace)


def test_out_of_range_step_number(trace):
    for completion in ("42", "0", "6"):
        adapter = FixtureAdapter({content_key(trace): completion})
        assert llm_baseline(trace, adapter) == (last_node_baseline(trace), True)


def test_fixture_adapter_from_file(tmp_path, trace):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({content_key(trace): "2"}))
    adapter = FixtureAdapter(load_json_object(path.read_bytes()))
    assert llm_baseline(trace, adapter)[0][0] == 2


def test_error_classification_categories():
    # root=3, error=8
    assert classify_llm_error(8, 3, 8) == "selected_error_node"
    assert classify_llm_error(4, 3, 8) == "off_by_one"
    assert classify_llm_error(2, 3, 8) == "off_by_one"
    assert classify_llm_error(6, 3, 8) == "intermediate_step"
    assert classify_llm_error(1, 3, 8) == "completely_incorrect"
    with pytest.raises(ValueError):
        classify_llm_error(3, 3, 8)

"""Scoring, ranking order, tie-breaks, and the worked examples."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import replace
from tracefault.features import FeatureConfig
from tracefault.model import parse_scenario
from tracefault.ranking import (
    GROUP_ORDER,
    FeatureTable,
    RankedDiagnosis,
    WeightVector,
    rank,
    render_markdown,
)


def groups(p=0.0, s=0.0, c=0.0, f=0.0, e=0.0):
    return {"position": p, "structure": s, "content": c, "flow": f, "confidence": e}


def table_of(groups_by_step):
    """A table anchored at step 5 with the given group scores per step."""
    step_ids = tuple(sorted(groups_by_step))
    rows = array("d", [groups_by_step[v][g] for v in step_ids for g in GROUP_ORDER])
    return FeatureTable("table", 5, step_ids, rows, FeatureConfig())


def score(group_scores):
    """The default-weight score of one candidate, from a one-row table."""
    return table_of({1: group_scores}).scores(WeightVector())[0]


def test_score_all_ones_is_one():
    assert score(groups(1, 1, 1, 1, 1)) == pytest.approx(1.0)


def test_score_position_only_is_position_weight():
    assert score(groups(p=1.0)) == pytest.approx(0.70)


def test_score_convex_combination():
    assert score(groups(0.5, 0.5, 0.5, 0.5, 0.5)) == pytest.approx(0.5)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(position=0.9, structure=0.2, content=0.05, flow=0.03, confidence=0.02)
    with pytest.raises(ValueError):
        WeightVector(position=-0.1, structure=1.1, content=0.0, flow=0.0, confidence=0.0)


def test_weight_restriction_renormalizes():
    restricted = WeightVector.restricted(("position", "structure"))
    assert restricted.position == pytest.approx(0.7 / 0.9)
    assert restricted.structure == pytest.approx(0.2 / 0.9)
    assert restricted.content == 0.0


def test_with_position_spreads_proportionally():
    w = WeightVector.with_position(0.9)
    assert w.position == pytest.approx(0.9)
    assert w.structure == pytest.approx(0.1 * (0.20 / 0.30))
    assert sum(w.as_tuple()) == pytest.approx(1.0)
    # the default position weight reproduces the default vector
    assert WeightVector.with_position(0.7).as_tuple() == pytest.approx(
        WeightVector().as_tuple()
    )


def test_example1_ranks_step3_first(example1_bytes):
    scenario = parse_scenario(example1_bytes)
    diagnosis = rank(scenario.trace)
    assert diagnosis.ranked[0][1] == 3
    assert diagnosis.table.anchor == 5
    assert len(diagnosis.ranked) == 5


def test_example2_ranks_step3_first(example2_bytes):
    scenario = parse_scenario(example2_bytes)
    diagnosis = rank(scenario.trace)
    assert diagnosis.ranked[0][1] == 3


def test_example1_position_group_dominates_breakdown(example1_bytes):
    scenario = parse_scenario(example1_bytes)
    diagnosis = rank(scenario.trace)
    contributions = diagnosis.to_obj()["candidates"][0]["contributions"]
    assert max(contributions, key=contributions.get) == "position"


def test_tie_break_earlier_step_wins():
    table = table_of({
        2: groups(p=0.4, s=0.4),
        4: groups(p=0.4, s=0.4),
        5: groups(p=0.1),
    })
    diagnosis = table.rank(WeightVector())
    assert [v for _, v in diagnosis.ranked] == [2, 4, 5]
    assert table.top(WeightVector()) == 2


def test_ranking_is_permutation_and_monotone(example1_bytes):
    scenario = parse_scenario(example1_bytes)
    diagnosis = rank(scenario.trace)
    ids = sorted(v for _, v in diagnosis.ranked)
    assert ids == [1, 2, 3, 4, 5]
    scores = [s for s, _ in diagnosis.ranked]
    assert scores == sorted(scores, reverse=True)
    assert [c["rank"] for c in diagnosis.to_obj()["candidates"]] == [1, 2, 3, 4, 5]


def test_weight_degeneracy_position_only(example2_bytes):
    scenario = parse_scenario(example2_bytes)
    weights = WeightVector(position=1.0, structure=0.0, content=0.0, flow=0.0, confidence=0.0)
    diagnosis = rank(scenario.trace, weights=weights)
    candidates = diagnosis.to_obj()["candidates"]
    by_position = sorted(candidates, key=lambda c: (-c["groups"]["position"], c["step_id"]))
    assert [c["step_id"] for c in candidates] == [c["step_id"] for c in by_position]


def test_argmax_invariant_under_constant_group_shift(example1_bytes):
    trace = parse_scenario(example1_bytes).trace
    base = rank(trace)
    shifted = table_of({
        c["step_id"]: {g: (v + 0.1 if g == "structure" else v) for g, v in c["groups"].items()}
        for c in base.to_obj()["candidates"]
    })
    again = shifted.rank(WeightVector())
    assert again.ranked[0][1] == base.ranked[0][1]


def test_explicit_error_node_override(example1_bytes):
    scenario = parse_scenario(example1_bytes)
    diagnosis = rank(scenario.trace, error_node=4)
    assert diagnosis.table.anchor == 4
    assert 5 not in [v for _, v in diagnosis.ranked]  # not an ancestor of step 4


def test_max_depth_limits_candidates(example1_bytes):
    scenario = parse_scenario(example1_bytes)
    diagnosis = rank(scenario.trace, max_depth=1)
    assert {v for _, v in diagnosis.ranked} == {3, 4, 5}  # parents of 5 only


def test_report_object_and_markdown(example1_bytes):
    scenario = parse_scenario(example1_bytes)
    diagnosis = rank(scenario.trace)
    obj = diagnosis.to_obj()
    assert obj["scenario_id"] == "sof_example1"
    assert obj["error_node_id"] == 5
    assert obj["weights"]["position"] == 0.70
    assert obj["config_fingerprint"] == FeatureConfig().fingerprint()
    assert len(obj["candidates"]) == 5
    contributions = obj["candidates"][0]["contributions"]
    assert set(contributions) == set(GROUP_ORDER)
    text = render_markdown(obj)
    assert "| 1 | 3 |" in text


def test_timings_always_collected(example1_bytes):
    scenario = parse_scenario(example1_bytes)
    diagnosis = rank(scenario.trace)
    assert set(diagnosis.timings_ms) == {
        "graph_construction",
        "backward_tracing",
        "feature_extraction",
        "node_ranking",
    }
    assert all(v >= 0 for v in diagnosis.timings_ms.values())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_invariant_under_artifact_list_permutations(seed42_benchmark, data):
    # A seed-42 trace whose steps get random multi-name artifact lists (or
    # none, for the text scan), ranked against a copy with every list permuted.
    trace = data.draw(st.sampled_from(seed42_benchmark)).trace
    pool = sorted({name for s in trace.steps for name in s.produces + s.consumes})
    names = st.none() | st.lists(st.sampled_from(pool), max_size=4).map(tuple)

    def permuted(declared):
        return None if declared is None else tuple(data.draw(st.permutations(declared)))

    steps = [replace(s, produces=data.draw(names), consumes=data.draw(names)) for s in trace.steps]
    shuffled = [replace(s, produces=permuted(s.produces), consumes=permuted(s.consumes)) for s in steps]
    original = rank(replace(trace, steps=tuple(steps))).to_obj()
    assert rank(replace(trace, steps=tuple(shuffled))).to_obj() == original

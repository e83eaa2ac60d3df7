"""Generator determinism, calibration quotas, verification, blind split."""

import json

import pytest

from conftest import bench_trace, replace
from tracefault.benchgen import (
    DEFAULT_COUNTS,
    DOMAIN_TEMPLATES,
    BugSpec,
    benchmark_manifest,
    blind_id,
    generate_benchmark,
    make_blind,
    verify_ground_truth,
)
from tracefault.errors import TemplateExhausted, VerificationFailed
from tracefault.features import FeatureConfig
from tracefault.graph import build_graph, descendants
from tracefault.model import DOMAINS, parse_trace_blind, serialize_scenario, steps_json, trace_file

SMALL_COUNTS = {domain: 6 for domain in DOMAINS}


@pytest.fixture(scope="module")
def small_batch():
    return generate_benchmark(seed=7, counts=SMALL_COUNTS)


def test_default_counts_match_domain_table():
    assert sum(DEFAULT_COUNTS.values()) == 550
    assert DEFAULT_COUNTS["software_development"] == 52
    assert DEFAULT_COUNTS["planning_scheduling"] == 46
    assert set(DEFAULT_COUNTS) == set(DOMAINS)
    assert all(len(t.agents) == 4 for t in DOMAIN_TEMPLATES.values())


def test_generation_is_deterministic():
    one = generate_benchmark(seed=7, counts=SMALL_COUNTS)
    two = generate_benchmark(seed=7, counts=SMALL_COUNTS)
    assert [serialize_scenario(g.scenario) for g in one] == [
        serialize_scenario(g.scenario) for g in two
    ]
    three = generate_benchmark(seed=8, counts=SMALL_COUNTS)
    assert [g.trace.scenario_id for g in one] != [g.trace.scenario_id for g in three]


def test_trace_lengths_and_buckets(small_batch):
    for generated in small_batch:
        n = len(generated.trace)
        assert 8 <= n <= 15
        b = generated.bug.bug_step
        bucket = generated.bug.location_bucket
        if bucket == "early":
            assert b in (2, 3)
        elif bucket == "middle":
            assert 4 <= b <= 6
        else:
            assert b == n - 1
        assert generated.scenario.ground_truth.error_node_id == n
        assert generated.scenario.ground_truth.root_cause_node_id == b


def test_error_node_is_descendant_of_bug(small_batch):
    for generated in small_batch:
        graph = build_graph(generated.trace)
        bug = generated.bug.bug_step
        assert descendants(graph, (bug,))[bug] >> generated.scenario.ground_truth.error_node_id & 1


def test_verify_ground_truth_passes_for_generated(small_batch):
    for generated in small_batch:
        report = verify_ground_truth(generated)
        assert report["bug_present"] and report["counterfactual_clean"]
        assert report["edge_kind_counts"] == build_graph(generated.trace).edge_kind_counts()


def test_verify_detects_repointed_root(small_batch):
    generated = small_batch[0]
    gt = generated.scenario.ground_truth
    # Move the root onto the next step, a cascade step when one exists before
    # the error. Its output differs from the twin (it carries a propagation
    # note) and it still reaches the error, so only the earliest-divergence
    # check can reject it. Otherwise step 1, which matches the twin.
    innocent = gt.root_cause_node_id + 1 if gt.root_cause_node_id + 1 < len(generated.trace) else 1
    bad = replace(
        generated,
        scenario=replace(
            generated.scenario, ground_truth=replace(gt, root_cause_node_id=innocent)
        ),
    )
    with pytest.raises(VerificationFailed, match="not the earliest divergence"):
        verify_ground_truth(bad)


def test_counterfactual_twin_is_clean(small_batch):
    config = FeatureConfig()
    for generated in small_batch:
        for step in generated.correct_steps:
            text = step.output.lower()
            for keyword in config.error_keywords:
                assert f" {keyword} " not in f" {text} "


def test_bug_spec_bucket_consistency():
    with pytest.raises(TemplateExhausted):
        BugSpec(
            bug_type="logic_error",
            location_bucket="early",
            mutation_kind="operator_flip",
            bug_step=5,
        )


def test_quota_distributions_exact():
    scenarios = generate_benchmark(seed=3, counts=SMALL_COUNTS)
    buckets = {}
    types = {}
    for g in scenarios:
        buckets[g.bug.location_bucket] = buckets.get(g.bug.location_bucket, 0) + 1
        types[g.bug.bug_type] = types.get(g.bug.bug_type, 0) + 1
    total = len(scenarios)
    assert buckets["early"] == round(total * 0.6)
    assert buckets["middle"] == round(total * 0.3)
    assert types["logic_error"] == round(total * 0.3)


def test_mutations_differ_by_kind(small_batch):
    kinds = {g.bug.mutation_kind for g in small_batch}
    assert len(kinds) == 5
    for generated in small_batch:
        injected = generated.trace.step(generated.bug.bug_step).output
        original = generated.correct_steps[generated.bug.bug_step - 1].output
        assert injected != original


def test_blind_split_scrubs_and_joins(small_batch):
    ids, answers = make_blind([g.scenario for g in small_batch], salt="s3cret")
    assert len(ids) == len(small_batch) == len(answers)
    for anon, generated in zip(ids, small_batch):
        data = trace_file(generated.trace, steps_json(generated.trace), scenario_id=anon)
        assert b"ground_truth" not in data
        assert b"BUG" not in data
        trace = parse_trace_blind(data)  # blind files pass the leakage guard
        answer = answers[trace.scenario_id]
        assert answer["original_id"] == generated.trace.scenario_id
        assert answer["root_cause_node_id"] == generated.bug.bug_step
        assert trace.scenario_id == blind_id(generated.trace.scenario_id, "s3cret")
        # steps are untouched apart from the id
        assert trace.steps == generated.trace.steps


def test_blind_ids_change_with_salt(small_batch):
    one, _ = make_blind([g.scenario for g in small_batch[:3]], salt="a")
    two, _ = make_blind([g.scenario for g in small_batch[:3]], salt="b")
    assert set(one).isdisjoint(two)


def test_manifest_summaries(small_batch):
    edge_counts = [verify_ground_truth(g)["edge_kind_counts"] for g in small_batch]
    manifest = benchmark_manifest(small_batch, edge_counts, seed=7)
    assert manifest["scenario_count"] == len(small_batch)
    assert manifest["trace_length_min"] >= 8
    assert manifest["trace_length_max"] <= 15
    assert sum(manifest["domains"].values()) == len(small_batch)
    assert abs(sum(manifest["edge_kind_mix"].values()) - 1.0) < 1e-9


def test_bench_trace_arbitrary_sizes():
    for n in (5, 10, 25):
        trace = bench_trace(n)
        assert len(trace) == n
        build_graph(trace)


def test_round_trip_regenerated_files(small_batch):
    from tracefault.model import parse_scenario

    for generated in small_batch[:10]:
        data = serialize_scenario(generated.scenario)
        assert serialize_scenario(parse_scenario(data)) == data

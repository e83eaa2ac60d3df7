"""Evaluation scores every weight vector from one feature table per trace."""

import gc
import itertools
import json
import weakref

import pytest

import tracefault.evaluation as evaluation
import tracefault.ranking as ranking
from conftest import replace, simulated_llm_fixture
from tracefault.baselines import FixtureAdapter, last_node_baseline
from tracefault.benchgen import generate_benchmark, make_blind
from tracefault.evaluation import (
    ABLATION_COMBOS,
    METHODS,
    evaluate,
    render_report,
    run_checks,
    scenario_from_blind,
)
from tracefault.features import FeatureConfig, compute_features
from tracefault.graph import backtrace, build_graph
from tracefault.cli import main
from tracefault.model import (
    DOMAINS,
    content_key,
    parse_trace_blind,
    serialize_scenario,
    serialize_trace,
)
from tracefault.ranking import DEFAULT_MAX_DEPTH, WeightVector, feature_table, rank
from tracefault.stats import hit_at_k
from tracefault.weights import SWEEP_POSITION_VALUES

REWEIGHTS = (
    [WeightVector()]
    + [WeightVector.restricted(combo) for combo in ABLATION_COMBOS]
    + [WeightVector.with_position(w) for w in SWEEP_POSITION_VALUES]
)


@pytest.fixture(scope="module")
def sample(scenarios):
    return scenarios[::10]  # 55 scenarios spread over every domain and bug position


@pytest.fixture()
def feature_calls(monkeypatch):
    calls = []
    original = ranking.compute_features

    def counted(trace, *args, **kwargs):
        calls.append(trace.scenario_id)
        return original(trace, *args, **kwargs)

    monkeypatch.setattr(ranking, "compute_features", counted)
    return calls


def write_validation(tmp_path, per_domain):
    """A validation directory of ``per_domain`` generated scenarios per
    domain; returns it and its scenarios."""
    directory = tmp_path / "validation"
    directory.mkdir()
    counts = {domain: per_domain for domain in DOMAINS}
    scenarios = [g.scenario for g in generate_benchmark(seed=2024, counts=counts)]
    for scenario in scenarios:
        path = directory / f"{scenario.trace.scenario_id}.json"
        path.write_bytes(serialize_scenario(scenario))
    return directory, scenarios


def left_to_right(columns, weights):
    """Each candidate's weighted sum of its group scores, added from 0.0
    left to right in group order."""
    totals = []
    for row in zip(*columns):
        total = 0.0
        for w, x in zip(weights.as_tuple(), row):
            total += w * x
        totals.append(total)
    return totals


def test_table_scores_equal_fresh_rank_for_every_weight_vector(sample):
    for scenario in sample:
        trace = scenario.trace
        table = feature_table(trace)
        graph = build_graph(trace)
        candidates = backtrace(graph, len(trace), DEFAULT_MAX_DEPTH)
        columns = compute_features(trace, graph, candidates)
        steps = sorted(candidates.members)
        kept = rank(trace).table
        for weights in REWEIGHTS:
            scored = [(v, s) for s, v in table.rank(weights).ranked]
            fresh = [(v, s) for s, v in rank(trace, weights=weights).ranked]
            assert [(v, s) for s, v in kept.rank(weights).ranked] == scored
            oracle = sorted(
                zip(steps, left_to_right(columns, weights)),
                key=lambda item: (-item[1], item[0]),
            )
            assert scored == fresh == oracle
            assert table.top(weights) == scored[0][0]


def test_evaluate_reweighting_matches_per_weight_rank(sample):
    result = evaluate(sample, methods=("tracefault",), with_ablations=True, with_sweep=True)

    def hit1(weights):
        return hit_at_k(
            [
                rank(s.trace, weights=weights).rank_of(s.ground_truth.root_cause_node_id)
                for s in sample
            ],
            1,
        )

    assert result["methods"]["tracefault"]["hit_at_1"] == hit1(WeightVector())
    assert len(result["ablations"]) == len(ABLATION_COMBOS) + 1
    for label, block in result["ablations"].items():
        weights = WeightVector() if label == "full" else WeightVector.restricted(block["groups"])
        assert block["hit_at_1"] == hit1(weights), label
    rows = result["position_weight_sweep"]
    assert [row["w_position"] for row in rows] == list(SWEEP_POSITION_VALUES)
    for row in rows:
        assert row["hit_at_1"] == hit1(WeightVector.with_position(row["w_position"]))


def test_features_computed_once_per_unit_under_ablations_and_sweep(sample, feature_calls):
    evaluate(sample, methods=("tracefault",), with_ablations=True, with_sweep=True)
    assert sorted(feature_calls) == sorted(s.trace.scenario_id for s in sample)


def test_grid_search_computes_features_once_per_scenario(feature_calls, tmp_path):
    directory, scenarios = write_validation(tmp_path, per_domain=2)
    feature_calls.clear()
    out = tmp_path / "weights.json"
    assert main(["learn-weights", str(directory), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["evaluated_points"] == 14
    assert sorted(feature_calls) == sorted(s.trace.scenario_id for s in scenarios)


def test_config_fingerprint_once_per_evaluation_and_never_in_grid_search(
    sample, monkeypatch, tmp_path
):
    calls = []
    original = FeatureConfig.fingerprint

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(FeatureConfig, "fingerprint", counted)
    result = evaluate(sample, methods=("tracefault",), with_ablations=True, with_sweep=True)
    assert len(calls) == 1
    assert result["config_fingerprint"] == original(FeatureConfig())
    calls.clear()
    directory, _ = write_validation(tmp_path, per_domain=1)
    assert main(["learn-weights", str(directory), "--out", str(tmp_path / "weights.json")]) == 0
    assert calls == []


def test_baseline_agreeing_everywhere_is_reported_not_raised(scenarios):
    def agrees(scenario):
        root = scenario.ground_truth.root_cause_node_id
        tracefault_hit = rank(scenario.trace).rank_of(root) == 1
        last_hit = last_node_baseline(scenario.trace)[0] == root
        return tracefault_hit == last_hit

    agreeing = list(itertools.islice(filter(agrees, scenarios), 5))
    result = evaluate(agreeing, methods=("tracefault", "last"))
    sig = result["significance"]["tracefault_vs_last"]
    assert (sig["n01"], sig["n10"], sig["n00"] + sig["n11"]) == (0, 0, 5)
    assert (sig["chi2"], sig["p_value"], sig["p_display"]) == (0.0, 1.0, "no discordant pairs")
    assert any(f.startswith("mcnemar tracefault_vs_last") for f in run_checks(result))
    assert "no discordant pairs" in render_report(result)


def test_llm_errors_cover_every_miss(scenarios, llm_adapter):
    result = evaluate(scenarios, methods=("llm",), llm_adapter=llm_adapter)
    completions = llm_adapter.completions
    misses = sum(
        completions[content_key(s.trace)] != str(s.ground_truth.root_cause_node_id)
        for s in scenarios
    )
    assert result["llm_fallbacks"] == 0
    assert sum(result["llm_error_analysis"].values()) == misses
    assert result["methods"]["llm"]["hit_at_1"] == (len(scenarios) - misses) / len(scenarios)


def test_five_methods_share_one_bootstrap_call(sample, llm_adapter, monkeypatch):
    calls = []
    original = evaluation.bootstrap_ci

    def counted(rows, *args, **kwargs):
        rows = list(rows)
        calls.append(len(rows))
        return original(rows, *args, **kwargs)

    monkeypatch.setattr(evaluation, "bootstrap_ci", counted)
    result = evaluate(sample, methods=METHODS, llm_adapter=llm_adapter)
    assert calls == [len(METHODS)]
    for method in METHODS:
        alone = evaluate(sample, methods=(method,), llm_adapter=llm_adapter)
        assert alone["methods"][method] == result["methods"][method], method


def test_blind_and_annotated_units_agree_on_deterministic_methods(seed42_benchmark):
    # Every method, random and llm included, at two benchmark seeds; the
    # seeds loop inside so that the test keeps its one id.
    for seed, benchmark in ((42, seed42_benchmark), (7, generate_benchmark(seed=7))):
        scenarios = [g.scenario for g in benchmark]
        # One fixture, keyed by content, serves both splits.
        adapter = FixtureAdapter(simulated_llm_fixture(benchmark))
        annotated = evaluate(scenarios, methods=METHODS, llm_adapter=adapter)
        ids, answers = make_blind(scenarios, "parity")
        blind_scenarios = (
            scenario_from_blind(replace(s.trace, scenario_id=anon), answers)
            for anon, s in zip(ids, scenarios)
        )
        blind = evaluate(blind_scenarios, methods=METHODS, llm_adapter=adapter)
        assert annotated["methods"].keys() == set(METHODS)
        for block in ("methods", "strata", "significance", "llm_error_analysis", "llm_fallbacks"):
            assert annotated[block] == blind[block], (seed, block)


def test_metrics_do_not_depend_on_the_order_of_the_units(scenarios):
    methods = ("tracefault", "random", "first", "last")
    forward = evaluate(scenarios, methods=methods)
    backward = evaluate(reversed(scenarios), methods=methods)
    assert forward["methods"] == backward["methods"]
    assert forward["strata"] == backward["strata"]


def test_evaluate_drops_each_trace_before_requesting_the_next(sample):
    scenarios = sample[:12]
    refs = []
    dead_before_next = []

    def stream():
        for scenario in scenarios:
            if refs:
                gc.collect()
                dead_before_next.append(refs[-1]() is None)
            # A fresh trace per scenario, which nothing but the scenario refers to.
            fresh = replace(
                scenario, trace=parse_trace_blind(serialize_trace(scenario.trace))
            )
            refs.append(weakref.ref(fresh.trace))
            yield fresh
            del fresh

    methods = ("tracefault", "random", "first", "last")
    streamed = evaluate(stream(), methods=methods, with_ablations=True)
    assert dead_before_next == [True] * (len(scenarios) - 1)
    # One pass: every method scored every scenario of the single pass.
    assert len(refs) == streamed["scenario_count"] == len(scenarios)
    listed = evaluate(scenarios, methods=methods, with_ablations=True)
    streamed.pop("component_timings_ms")
    listed.pop("component_timings_ms")
    assert streamed == listed

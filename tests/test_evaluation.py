"""Evaluation scores every weight vector from one feature table per trace."""

import dataclasses
import gc
import itertools
import weakref

import pytest

import tracefault.evaluation as evaluation
import tracefault.ranking as ranking
from tracefault.baselines import last_node_baseline
from tracefault.benchgen import generate_benchmark, make_blind
from tracefault.evaluation import (
    ABLATION_COMBOS,
    METHODS,
    evaluate,
    render_report,
    run_checks,
    unit_from_blind,
    unit_from_scenario,
)
from tracefault.features import FeatureConfig, compute_features
from tracefault.graph import backtrace, build_graph
from tracefault.model import DOMAINS, parse_trace_blind, serialize_trace
from tracefault.ranking import DEFAULT_MAX_DEPTH, WeightVector, feature_table, rank
from tracefault.stats import hit_at_k
from tracefault.weights import SWEEP_POSITION_VALUES, grid_search

REWEIGHTS = (
    [WeightVector()]
    + [WeightVector.restricted(combo) for combo in ABLATION_COMBOS]
    + [WeightVector.with_position(w) for w in SWEEP_POSITION_VALUES]
)


@pytest.fixture(scope="module")
def sample(units):
    return units[::10]  # 55 units spread over every domain and bug position


@pytest.fixture()
def feature_calls(monkeypatch):
    calls = []
    original = ranking.compute_features

    def counted(trace, *args, **kwargs):
        calls.append(trace.scenario_id)
        return original(trace, *args, **kwargs)

    monkeypatch.setattr(ranking, "compute_features", counted)
    return calls


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
    for unit in sample:
        table = feature_table(unit.trace)
        graph = build_graph(unit.trace)
        candidates = backtrace(graph, len(unit.trace), DEFAULT_MAX_DEPTH)
        columns = compute_features(unit.trace, graph, candidates)
        steps = sorted(candidates.members)
        kept = rank(unit.trace).table
        for weights in REWEIGHTS:
            scored = [(v, s) for s, v in table.rank(weights).ranked]
            fresh = [(v, s) for s, v in rank(unit.trace, weights=weights).ranked]
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
        return hit_at_k([rank(u.trace, weights=weights).rank_of(u.root_cause) for u in sample], 1)

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
    assert sorted(feature_calls) == sorted(u.trace.scenario_id for u in sample)


def test_grid_search_computes_features_once_per_scenario(feature_calls):
    counts = {domain: 2 for domain in DOMAINS}
    scenarios = [g.scenario for g in generate_benchmark(seed=2024, counts=counts)]
    feature_calls.clear()
    _, table = grid_search(scenarios)
    assert len(table) == 14
    assert sorted(feature_calls) == sorted(s.trace.scenario_id for s in scenarios)


def test_config_fingerprint_once_per_evaluation_and_never_in_grid_search(sample, monkeypatch):
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
    counts = {domain: 1 for domain in DOMAINS}
    grid_search([g.scenario for g in generate_benchmark(seed=2024, counts=counts)])
    assert calls == []


def test_baseline_agreeing_everywhere_is_reported_not_raised(units):
    def agrees(unit):
        main = rank(unit.trace).rank_of(unit.root_cause) == 1
        last = last_node_baseline(unit.trace)[0] == unit.root_cause
        return main == last

    agreeing = list(itertools.islice(filter(agrees, units), 5))
    result = evaluate(agreeing, methods=("tracefault", "last"))
    sig = result["significance"]["tracefault_vs_last"]
    assert (sig["n01"], sig["n10"], sig["n00"] + sig["n11"]) == (0, 0, 5)
    assert (sig["chi2"], sig["p_value"], sig["p_display"]) == (0.0, 1.0, "no discordant pairs")
    assert any(f.startswith("mcnemar tracefault_vs_last") for f in run_checks(result))
    assert "no discordant pairs" in render_report(result)


def test_llm_errors_cover_every_miss(units, llm_adapter):
    result = evaluate(units, methods=("llm",), llm_adapter=llm_adapter)
    misses = sum(llm_adapter.completions[u.trace.scenario_id] != str(u.root_cause) for u in units)
    assert result["llm_fallbacks"] == 0
    assert sum(result["llm_error_analysis"].values()) == misses
    assert result["methods"]["llm"]["hit_at_1"] == (len(units) - misses) / len(units)


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
    scenarios = [g.scenario for g in seed42_benchmark]
    methods = ("tracefault", "first", "last")
    annotated = evaluate(map(unit_from_scenario, scenarios), methods=methods)
    traces, answers = make_blind(scenarios, "parity")
    blind_units = (unit_from_blind(trace, answers) for trace in traces)
    blind = evaluate(blind_units, methods=methods)
    fields = ("n", "hit_at_1", "hit_at_3", "hit_at_5", "mrr", "hit_at_1_ci95")
    for method in methods:
        a, b = annotated["methods"][method], blind["methods"][method]
        assert {k: a[k] for k in fields} == {k: b[k] for k in fields}, method
    assert annotated["strata"] == blind["strata"]


def test_metrics_do_not_depend_on_the_order_of_the_units(units):
    methods = ("tracefault", "random", "first", "last")
    forward = evaluate(units, methods=methods)
    backward = evaluate(reversed(units), methods=methods)
    assert forward["methods"] == backward["methods"]
    assert forward["strata"] == backward["strata"]


def test_evaluate_drops_each_trace_before_requesting_the_next(sample):
    units = sample[:12]
    refs = []
    dead_before_next = []

    def stream():
        for unit in units:
            if refs:
                gc.collect()
                dead_before_next.append(refs[-1]() is None)
            # A fresh trace per unit, which nothing but the unit refers to.
            fresh = dataclasses.replace(
                unit, trace=parse_trace_blind(serialize_trace(unit.trace))
            )
            refs.append(weakref.ref(fresh.trace))
            yield fresh
            del fresh

    methods = ("tracefault", "random", "first", "last")
    streamed = evaluate(stream(), methods=methods, with_ablations=True)
    assert dead_before_next == [True] * (len(units) - 1)
    # One pass: every method scored every unit of the single pass.
    assert len(refs) == streamed["scenario_count"] == len(units)
    listed = evaluate(units, methods=methods, with_ablations=True)
    streamed.pop("component_timings_ms")
    listed.pop("component_timings_ms")
    assert streamed == listed

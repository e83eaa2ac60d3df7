"""Grid search exhaustiveness, tie-breaking, and the sensitivity sweep."""

import itertools

import pytest

from tracefault.benchgen import generate_benchmark
from tracefault.errors import EmptyBenchmark
from tracefault.evaluation import evaluate
from tracefault.model import DOMAINS
from tracefault.ranking import WeightVector, feature_table
from tracefault.weights import (
    DEFAULT_GRID,
    SWEEP_POSITION_VALUES,
    feasible_points,
    grid_search,
    sweep_rows,
    weights_report,
)


@pytest.fixture(scope="module")
def validation():
    counts = {domain: 5 for domain in DOMAINS}
    return [g.scenario for g in generate_benchmark(seed=2024, counts=counts)]


def tables_and_roots(scenarios):
    """One table per scenario, anchored at the final step as ``evaluate`` and
    ``learn-weights`` anchor it, and the scenarios' roots."""
    tables = [feature_table(s.trace) for s in scenarios]
    return tables, [s.ground_truth.root_cause_node_id for s in scenarios]


@pytest.fixture(scope="module")
def scored(validation):
    return tables_and_roots(validation)


def brute_force_feasible_count() -> int:
    total = 0
    for combo in itertools.product(*DEFAULT_GRID.values()):
        if abs(sum(combo) - 1.0) <= 1e-9:
            total += 1
    return total


def test_grid_enumeration_matches_brute_force():
    points = feasible_points()
    assert len(points) == brute_force_feasible_count()
    assert len(points) == 14  # of 4*4*4*3*3 = 576 raw combinations


def test_default_weights_are_a_feasible_grid_point():
    points = feasible_points()
    target = (0.70, 0.20, 0.05, 0.03, 0.02)
    assert any(p.as_tuple() == pytest.approx(target) for p in points)


def test_grid_search_evaluates_every_feasible_point(scored):
    best, table = grid_search(*scored)
    assert len(table) == 14
    assert isinstance(best, WeightVector)
    best_hit = max(hit for _, hit in table)
    assert any(w is best for w, _ in table) or any(
        w.as_tuple() == best.as_tuple() for w, hit in table if hit == best_hit
    )


def test_grid_search_tie_breaks_toward_position(scored):
    best, table = grid_search(*scored)
    best_hit = max(hit for _, hit in table)
    tied = [w for w, hit in table if hit == best_hit]
    assert best.position == max(w.position for w in tied)


def test_grid_search_deterministic(validation):
    one, _ = grid_search(*tables_and_roots(validation))
    two, _ = grid_search(*tables_and_roots(validation))
    assert one.as_tuple() == two.as_tuple()


def test_empty_validation_raises():
    with pytest.raises(EmptyBenchmark):
        grid_search([], [])
    with pytest.raises(EmptyBenchmark):
        evaluate([], methods=("tracefault",), with_sweep=True)


def annotated_sweep(scenarios):
    """``sweep_rows`` over tables anchored at each annotated error node."""
    tables = [feature_table(s.trace, error_node=s.ground_truth.error_node_id) for s in scenarios]
    roots = [s.ground_truth.root_cause_node_id for s in scenarios]
    return sweep_rows(tables, roots)


def test_sweep_default_point_matches_default_weights(validation):
    rows = [row for row in annotated_sweep(validation) if row[0] == 0.7]
    from tracefault.ranking import rank
    from tracefault.stats import hit_at_k

    ranks = []
    for s in validation:
        diag = rank(s.trace, weights=WeightVector(), error_node=s.ground_truth.error_node_id)
        ranks.append(diag.rank_of(s.ground_truth.root_cause_node_id))
    assert rows[0] == (0.7, hit_at_k(ranks, 1))


def test_sweep_covers_requested_values(validation):
    rows = annotated_sweep(validation[:20])
    assert [w for w, _ in rows] == list(SWEEP_POSITION_VALUES)
    assert all(0.0 <= hit <= 1.0 for _, hit in rows)


def test_weights_report_shape(validation):
    best, table = grid_search(*tables_and_roots(validation[:10]))
    report = weights_report(best, table)
    assert report["evaluated_points"] == len(table)
    assert set(report["best"]) == {"position", "structure", "content", "flow", "confidence"}

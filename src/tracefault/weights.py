"""Grid search over group weights and the position-weight sensitivity sweep.

The grid is ``DEFAULT_GRID``: the cartesian product of its per-group values
(576 combinations), of which the 14 that sum to one are feasible. Each
feasible point is evaluated by Hit@1 on a validation set, scored from one
``FeatureTable`` per scenario. The caller builds the tables, anchored at
each trace's final step as ``evaluate`` anchors them, so the weights are
learned on the tables that ``evaluate`` scores. On generated data the final
step is the annotated error node; on a validation set whose error node is
another step, the learned weights can differ from those of tables anchored
at the error node, which is the intended effect. Ties break toward the
larger position weight, then lexicographically, so repeated searches return
the same vector.
"""

from __future__ import annotations

import itertools

from .errors import EmptyBenchmark
from .ranking import FeatureTable, WeightVector

DEFAULT_GRID = {
    "position": (0.5, 0.6, 0.7, 0.8),
    "structure": (0.1, 0.15, 0.2, 0.25),
    "content": (0.03, 0.05, 0.07, 0.1),
    "flow": (0.02, 0.03, 0.05),
    "confidence": (0.01, 0.02, 0.03),
}

SWEEP_POSITION_VALUES = (0.5, 0.6, 0.7, 0.8, 0.9)

# How far a grid combination's sum may sit from one and still be feasible.
_SUM_TOLERANCE = 1e-9


def feasible_points() -> list[WeightVector]:
    """The ``DEFAULT_GRID`` combinations whose weights sum to one, in grid order."""
    return [
        WeightVector(*combo)
        for combo in itertools.product(*DEFAULT_GRID.values())
        if abs(sum(combo) - 1.0) <= _SUM_TOLERANCE
    ]


def hit_at_1_by_weights(tables: list[FeatureTable], roots, points) -> list[float]:
    """Hit@1 of each weight vector in ``points`` over the tables' traces,
    where ``roots[i]`` is the true root cause of ``tables[i]`` (callers reject
    an empty set)."""
    pairs = list(zip(tables, roots))
    return [sum(t.top(w) == root for t, root in pairs) / len(tables) for w in points]


def sweep_rows(tables, roots):
    """(w_position, Hit@1) rows over ``SWEEP_POSITION_VALUES``; see
    ``WeightVector.with_position``."""
    points = [WeightVector.with_position(w) for w in SWEEP_POSITION_VALUES]
    return list(zip(SWEEP_POSITION_VALUES, hit_at_1_by_weights(tables, roots, points)))


def grid_search(
    tables: list[FeatureTable], roots: list[int]
) -> tuple[WeightVector, list[tuple[WeightVector, float]]]:
    """Exhaustively score every feasible grid point by validation Hit@1, where
    ``roots[i]`` is the true root cause of ``tables[i]``."""
    if not tables:
        raise EmptyBenchmark("grid search requires a non-empty validation set")
    points = feasible_points()
    table = list(zip(points, hit_at_1_by_weights(tables, roots, points)))
    best = max(
        table,
        key=lambda item: (item[1], item[0].position, item[0].as_tuple()),
    )[0]
    return best, table


def weights_report(best: WeightVector, table) -> dict:
    return {
        "best": best.as_dict(),
        "evaluated_points": len(table),
        "table": [
            {"weights": weights.as_dict(), "hit_at_1": hit1} for weights, hit1 in table
        ],
    }

"""Grid search over group weights and the position-weight sensitivity sweep.

The grid is the cartesian product of per-group candidate values filtered to
combinations summing to one; each feasible point is evaluated by Hit@1 on a
validation set, scored from one ``FeatureTable`` per scenario (anchored at
its annotated error node). Ties break toward the larger position weight,
then lexicographically, so repeated searches return the same vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EmptyBenchmark, EmptyGrid
from .features import FeatureConfig
from .ranking import DEFAULT_MAX_DEPTH, FeatureTable, WeightVector, feature_table

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


@dataclass(frozen=True)
class GridSpec:
    position: tuple[float, ...] = DEFAULT_GRID["position"]
    structure: tuple[float, ...] = DEFAULT_GRID["structure"]
    content: tuple[float, ...] = DEFAULT_GRID["content"]
    flow: tuple[float, ...] = DEFAULT_GRID["flow"]
    confidence: tuple[float, ...] = DEFAULT_GRID["confidence"]

    def feasible_points(self) -> list[WeightVector]:
        """All grid combinations whose weights sum to one, in grid order."""
        points = []
        for combo in itertools.product(
            self.position, self.structure, self.content, self.flow, self.confidence
        ):
            if abs(sum(combo) - 1.0) <= _SUM_TOLERANCE:
                points.append(WeightVector(*combo))
        return points


def hit_at_1_by_weights(tables: list[FeatureTable], roots, points) -> list[float]:
    """Hit@1 of each weight vector in ``points`` over the tables' traces,
    where ``roots[i]`` is the true root cause of ``tables[i]`` (callers reject
    an empty set)."""
    pairs = list(zip(tables, roots))
    return [sum(t.top(w) == root for t, root in pairs) / len(tables) for w in points]


def sweep_rows(tables, roots, position_values=SWEEP_POSITION_VALUES):
    """(w_position, Hit@1) rows; see ``WeightVector.with_position``."""
    points = [WeightVector.with_position(w) for w in position_values]
    return list(zip(position_values, hit_at_1_by_weights(tables, roots, points)))


def grid_search(
    validation,
    grid: GridSpec | None = None,
    config: FeatureConfig | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[WeightVector, list[tuple[WeightVector, float]]]:
    """Exhaustively score every feasible grid point by validation Hit@1."""
    validation = list(validation)
    if not validation:
        raise EmptyBenchmark("grid search requires a non-empty validation set")
    grid = grid or GridSpec()
    points = grid.feasible_points()
    if not points:
        raise EmptyGrid("no weight combination satisfies the sum-to-one constraint")
    tables = [
        feature_table(s.trace, config, max_depth, error_node=s.ground_truth.error_node_id)
        for s in validation
    ]
    roots = [s.ground_truth.root_cause_node_id for s in validation]
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

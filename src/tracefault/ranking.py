"""Weighted scoring and candidate ranking.

The final score of a candidate is the weighted sum of its five group scores.
Candidates sort by descending score; exact ties break toward the earlier
step, consistent with the root cause being the earliest correctable
decision.

Only that last step depends on the weights, so ``feature_table`` reduces a
trace once (graph, backtrace, features) to a ``FeatureTable``: the candidate
ids and the five group columns ``compute_features`` returns, interleaved once
into one row-major ``array('d')``. ``rank`` builds one and scores it in plain
Python. A score is always summed left to right in ``GROUP_ORDER``:
floating-point addition is not associative, so a sum in another order (a
matmul, say) could change a last digit and flip a tie. A ``RankedDiagnosis``
is that table plus the sorted ``(score, step_id)`` pairs; only its report
builds per-candidate group scores and contributions. The evaluation
ablations and sweep rescore the kept table, as the weight grid search does
with tables of its own. ``feature_table`` records the time of each layer it
runs, and scoring adds its own, so every diagnosis carries its timings.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

from .features import FEATURE_GROUPS, FeatureConfig, compute_features, unit_weight
from .graph import CausalGraph, backtrace, build_graph
from .model import ExecutionTrace

DEFAULT_MAX_DEPTH = 10

GROUP_ORDER = tuple(FEATURE_GROUPS)


@dataclass(frozen=True)
class WeightVector:
    """Group weights in [0, 1] summing to one."""

    position: float = 0.70
    structure: float = 0.20
    content: float = 0.05
    flow: float = 0.03
    confidence: float = 0.02

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            unit_weight(f"weight {name}", value)
        total = sum(self.as_tuple())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 (got {total!r})")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(GROUP_ORDER, self.as_tuple()))

    def as_tuple(self) -> tuple[float, ...]:
        return (self.position, self.structure, self.content, self.flow, self.confidence)

    @staticmethod
    def from_dict(obj: dict[str, float]) -> "WeightVector":
        return WeightVector(**{k: unit_weight(f"weight {k}", obj[k]) for k in GROUP_ORDER})

    @staticmethod
    def restricted(groups) -> "WeightVector":
        """Keep only ``groups``, renormalizing their default weights to sum 1."""
        kept = {g: WeightVector().as_dict()[g] for g in groups}
        total = sum(kept.values())
        return WeightVector(**{g: (kept[g] / total if g in kept else 0.0) for g in GROUP_ORDER})

    @staticmethod
    def with_position(w_position: float) -> "WeightVector":
        """Set the position weight, spreading the remainder proportionally
        over the other groups' default ratios."""
        rest = WeightVector().as_tuple()[1:]
        scale = (1.0 - w_position) / sum(rest)
        return WeightVector(w_position, *(w * scale for w in rest))


@dataclass(frozen=True)
class RankedDiagnosis:
    """A ``FeatureTable`` scored under one weight vector.

    ``ranked`` holds ``(score, step_id)`` pairs, rank 1 first: descending
    score, ties broken by the earlier step. The scenario id, anchor (error
    node) and feature config are the table's. ``to_obj`` builds each
    candidate's group scores and weighted contributions from the table rows.
    """

    table: FeatureTable = field(compare=False, repr=False)
    weights: WeightVector
    ranked: tuple[tuple[float, int], ...]
    timings_ms: dict[str, float] = field(compare=False, default_factory=dict)

    def rank_of(self, step_id: int) -> int | None:
        for rank, (_, v) in enumerate(self.ranked, 1):
            if v == step_id:
                return rank
        return None

    def to_obj(self) -> dict:
        table = self.table
        n = len(GROUP_ORDER)
        rows = {v: table.groups[n * i : n * i + n] for i, v in enumerate(table.step_ids)}
        w = self.weights.as_tuple()
        return {
            "scenario_id": table.scenario_id,
            "error_node_id": table.anchor,
            "candidate_count": len(self.ranked),
            "weights": self.weights.as_dict(),
            "config_fingerprint": table.config.fingerprint(),
            "candidates": [
                {
                    "step_id": v,
                    "rank": rank,
                    "score": total,
                    "groups": dict(zip(GROUP_ORDER, rows[v])),
                    "contributions": {g: wg * x for g, wg, x in zip(GROUP_ORDER, w, rows[v])},
                }
                for rank, (total, v) in enumerate(self.ranked, 1)
            ],
        }


@dataclass(frozen=True)
class FeatureTable:
    """One trace reduced to what scoring needs: the anchor, the candidate
    step ids (ascending) and their group scores, plus the feature config and
    layer timings that built it. ``groups`` holds the k x 5 scores as one
    flat ``array('d')``, row ``i`` (step ``step_ids[i]``) at ``5*i`` to
    ``5*i + 4`` in ``GROUP_ORDER``; packed doubles keep the 550 tables of an
    evaluation small. Group scores do not depend on the weights, so a table
    scores any number of weight vectors without recomputing features.
    """

    scenario_id: str
    anchor: int
    step_ids: tuple[int, ...]
    groups: array
    config: FeatureConfig = field(compare=False)
    timings_ms: dict[str, float] = field(compare=False, default_factory=dict)

    def scores(self, weights: WeightVector) -> list[float]:
        """Candidate scores in ``step_ids`` order, each summed left to right
        in ``GROUP_ORDER``."""
        w0, w1, w2, w3, w4 = weights.as_tuple()
        values = iter(self.groups)
        # Five references to one iterator: zip yields one row per step.
        return [
            w0 * p + w1 * s + w2 * c + w3 * f + w4 * e
            for p, s, c, f, e in zip(values, values, values, values, values)
        ]

    def top(self, weights: WeightVector) -> int:
        """The top-ranked step. ``index`` finds the first maximum, and step
        ids ascend, so exact ties go to the earlier step."""
        totals = self.scores(weights)
        return self.step_ids[totals.index(max(totals))]

    def rank(self, weights: WeightVector) -> RankedDiagnosis:
        start = time.perf_counter()
        totals = self.scores(weights)
        # Descending score; earlier step wins ties. Sorting on (-score, step_id)
        # makes the order total, so input permutations cannot change it.
        ranked = tuple(sorted(zip(totals, self.step_ids), key=lambda r: (-r[0], r[1])))
        timings = {**self.timings_ms, "node_ranking": (time.perf_counter() - start) * 1e3}
        return RankedDiagnosis(self, weights, ranked, timings)


def feature_table(
    trace: ExecutionTrace,
    config: FeatureConfig | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    error_node: int | None = None,
    graph: CausalGraph | None = None,
) -> FeatureTable:
    """Build the graph, backtrace from the anchor and extract features.

    In blind mode the anchor (error node) defaults to the highest step id
    (generated benchmarks always manifest the failure at the final step);
    pass ``error_node`` to override.
    """
    config = config or FeatureConfig()
    anchor = error_node if error_node is not None else len(trace)
    t0 = time.perf_counter()
    if graph is None:
        graph = build_graph(trace)
    t1 = time.perf_counter()
    candidates = backtrace(graph, anchor, max_depth)
    t2 = time.perf_counter()
    columns = compute_features(trace, graph, candidates, config)
    t3 = time.perf_counter()
    timings = {
        "graph_construction": (t1 - t0) * 1e3,
        "backward_tracing": (t2 - t1) * 1e3,
        "feature_extraction": (t3 - t2) * 1e3,
    }
    rows = array("d", [x for row in zip(*columns) for x in row])
    step_ids = tuple(sorted(candidates.members))
    return FeatureTable(trace.scenario_id, anchor, step_ids, rows, config, timings)


def rank(
    trace: ExecutionTrace,
    weights: WeightVector | None = None,
    config: FeatureConfig | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    error_node: int | None = None,
    graph: CausalGraph | None = None,
) -> RankedDiagnosis:
    """Full pipeline: build the trace's feature table, then score and sort."""
    table = feature_table(trace, config, max_depth, error_node, graph)
    return table.rank(weights or WeightVector())


def render_markdown(report: dict) -> str:
    """Human-readable rendering of a diagnosis report (``to_obj()``)."""
    lines = [
        f"# Diagnosis for {report['scenario_id']}",
        "",
        f"Error node: step {report['error_node_id']}; "
        f"{report['candidate_count']} candidates ranked.",
        "",
        "| rank | step | score | " + " | ".join(GROUP_ORDER) + " |",
        "|---|---|---|" + "---|" * len(GROUP_ORDER),
    ]
    for cand in report["candidates"]:
        groups = " | ".join(f"{cand['groups'][g]:.3f}" for g in GROUP_ORDER)
        lines.append(f"| {cand['rank']} | {cand['step_id']} | {cand['score']:.4f} | {groups} |")
    lines.append("")
    return "\n".join(lines)

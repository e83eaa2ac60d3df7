"""Per-node feature extraction, normalization, and group aggregation.

Seventeen raw features are computed for every candidate node, organized in
five groups: position (4), structure (4), content (4), flow (3), confidence
(2). Each feature is min-max normalized over the candidate set with an
epsilon guard, oriented so that higher always means "more suspicious", then
averaged within its group. ``compute_features`` returns only those group
scores, which are all that ranking needs.

Orientation is configurable per feature (+1 keeps the normalized value, -1
flips it to ``1 - value``). The default orientation scores a node as
suspicious when it is *early in the workflow yet causally close to the
failure*: that combination singles out upstream decisions whose effects
demonstrably reach the error node, while innocuous early steps are far from
the error and late cascade steps are not early. Reachability is likewise
oriented toward *concentrated* influence (-1): within a backtraced
candidate set every node already reaches the error, so a narrow descendant
cone means the node's effect is specific to the failing path, whereas
broadcast-style early hubs influence everything and are weak evidence. The
descendant count is the popcount of the node's mask from
``graph.descendants``, which ORs the graph's successor bitsets for all
candidates in one sweep per trace.

A note on the stated-confidence direction: low declared confidence is
treated as suspicious (orientation -1). This is a judgment call; flip it in
a config file if your agents' confidence reporting behaves differently.
"""

from __future__ import annotations

import json
import hashlib
import math
import re
from dataclasses import dataclass, field

from .graph import CausalGraph, betweenness, descendants, distances_to, longest_path_depth
from .model import ExecutionTrace

FEATURE_GROUPS: dict[str, tuple[str, ...]] = {
    "position": (
        "normalized_position",
        "distance_to_error",
        "depth_ratio",
        "reverse_position",
    ),
    "structure": ("out_degree", "in_degree", "betweenness", "reachability"),
    "content": ("error_keywords", "uncertainty", "length_anomaly", "keyword_density"),
    "flow": ("agent_switch", "role_criticality", "communication"),
    "confidence": ("stated_confidence", "hedging_score"),
}

ALL_FEATURES: tuple[str, ...] = tuple(
    name for group in FEATURE_GROUPS.values() for name in group
)

EPSILON = 1e-8

DEFAULT_ORIENTATION: dict[str, int] = {
    "normalized_position": -1,
    "distance_to_error": -1,
    "depth_ratio": +1,
    "reverse_position": +1,
    "out_degree": +1,
    "in_degree": +1,
    "betweenness": +1,
    "reachability": -1,
    "error_keywords": +1,
    "uncertainty": +1,
    "length_anomaly": +1,
    "keyword_density": +1,
    "agent_switch": +1,
    "role_criticality": +1,
    "communication": +1,
    "stated_confidence": -1,
    "hedging_score": +1,
}

DEFAULT_ERROR_KEYWORDS = (
    "error",
    "bug",
    "fail",
    "failed",
    "exception",
    "incorrect",
    "wrong",
)
DEFAULT_UNCERTAINTY_KEYWORDS = ("maybe", "perhaps", "possibly", "unsure")
DEFAULT_HEDGE_WORDS = (
    "might",
    "could",
    "seems",
    "appears",
    "likely",
    "maybe",
    "perhaps",
    "possibly",
    "somewhat",
    "roughly",
)

# Role criticality classes: coordinator-like roles steer everyone downstream
# of them, reviewers only gate, executors mostly act on finished decisions.
ROLE_CLASS_WEIGHTS: tuple[tuple[float, tuple[str, ...]], ...] = (
    (1.0, ("planner", "coordinator", "router", "scheduler", "triager", "monitor")),
    (
        0.7,
        (
            "coder",
            "specialist",
            "searcher",
            "analyzer",
            "analyst",
            "strategist",
            "researcher",
            "optimizer",
            "diagnoser",
            "tutor",
            "contentgenerator",
            "drafter",
            "synthesizer",
            "datacollector",
            "pharmacist",
            "assessor",
        ),
    ),
    (0.5, ("reviewer", "validator", "verifier", "evaluator", "riskmanager", "resolver")),
    (
        0.3,
        ("executor", "writer", "notifier", "logger", "reporter", "remediator", "advisor"),
    ),
)

DEFAULT_ROLE_WEIGHT = 0.5

_WORD_RE = re.compile(r"[a-z0-9_]+")


def default_role_weights() -> dict[str, float]:
    weights: dict[str, float] = {}
    for weight, names in ROLE_CLASS_WEIGHTS:
        for name in names:
            weights[name] = weight
    return weights


@dataclass(frozen=True)
class FeatureConfig:
    """Keyword lists, role weights, and per-feature orientation."""

    error_keywords: tuple[str, ...] = DEFAULT_ERROR_KEYWORDS
    uncertainty_keywords: tuple[str, ...] = DEFAULT_UNCERTAINTY_KEYWORDS
    hedge_words: tuple[str, ...] = DEFAULT_HEDGE_WORDS
    role_weights: dict[str, float] = field(default_factory=default_role_weights)
    default_role_weight: float = DEFAULT_ROLE_WEIGHT
    orientation: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_ORIENTATION))

    def __post_init__(self) -> None:
        for name, weight in self.role_weights.items():
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"role weight for {name!r} must lie in [0, 1]")
        missing = set(ALL_FEATURES) - set(self.orientation)
        if missing:
            raise ValueError(f"orientation missing for features: {sorted(missing)}")
        for name, sign in self.orientation.items():
            if sign not in (-1, 1):
                raise ValueError(f"orientation for {name!r} must be +1 or -1")

    def role_weight(self, agent: str) -> float:
        return self.role_weights.get(agent.lower(), self.default_role_weight)

    def to_obj(self) -> dict:
        return {
            "error_keywords": list(self.error_keywords),
            "uncertainty_keywords": list(self.uncertainty_keywords),
            "hedge_words": list(self.hedge_words),
            "role_weights": dict(sorted(self.role_weights.items())),
            "default_role_weight": self.default_role_weight,
            "orientation": dict(sorted(self.orientation.items())),
        }

    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_obj(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()[:16]

    @staticmethod
    def from_obj(obj: dict) -> "FeatureConfig":
        base = FeatureConfig()
        orientation = dict(DEFAULT_ORIENTATION)
        orientation.update({k: int(v) for k, v in obj.get("orientation", {}).items()})
        role_weights = default_role_weights()
        role_weights.update(
            {k.lower(): float(v) for k, v in obj.get("role_weights", {}).items()}
        )
        return FeatureConfig(
            error_keywords=tuple(obj.get("error_keywords", base.error_keywords)),
            uncertainty_keywords=tuple(
                obj.get("uncertainty_keywords", base.uncertainty_keywords)
            ),
            hedge_words=tuple(obj.get("hedge_words", base.hedge_words)),
            role_weights=role_weights,
            default_role_weight=float(
                obj.get("default_role_weight", base.default_role_weight)
            ),
            orientation=orientation,
        )


def _words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def _count_matches(words: list[str], keyword_set: frozenset[str]) -> int:
    return sum(1 for w in words if w in keyword_set)


def extract_raw(
    trace: ExecutionTrace,
    graph: CausalGraph,
    candidates,
    error_node: int,
    config: FeatureConfig,
) -> dict[int, dict[str, float]]:
    """Compute the 17 raw feature values for every candidate node.

    ``content(v)`` is bound to the step's output text. Degree features are
    scaled by the maximum over *all* nodes; distance/depth ratios by the
    maximum over the candidate set (the min-max step downstream makes both
    choices equivalent up to epsilon). Unreachable distances substitute the
    node count before scaling.
    """
    members = sorted(candidates)
    n = len(graph.nodes)
    dist = distances_to(graph, error_node)
    dist_sub = {v: (d if math.isfinite(d) else float(n)) for v, d in dist.items()}
    max_dist = max((dist_sub[v] for v in members), default=0.0)
    depth = longest_path_depth(graph)
    max_depth_val = max((depth[v] for v in members), default=0)
    max_out = max((graph.out_degree(v) for v in graph.nodes), default=0)
    max_in = max((graph.in_degree(v) for v in graph.nodes), default=0)
    betw = betweenness(graph, members)
    reach = descendants(graph, members)

    output_lengths = [len(s.output) for s in trace.steps]
    mu = sum(output_lengths) / len(output_lengths)
    var = sum((x - mu) ** 2 for x in output_lengths) / len(output_lengths)
    sigma = math.sqrt(var)

    # Built per call, not cached on the config, whose dict fields are mutable.
    error_set, uncertainty_set, hedge_set = (
        frozenset(k.lower() for k in keywords)
        for keywords in (config.error_keywords, config.uncertainty_keywords, config.hedge_words)
    )
    keyword_set = error_set | uncertainty_set

    result: dict[int, dict[str, float]] = {}
    for v in members:
        step = trace.step(v)
        out_words = _words(step.output)
        keyword_count = _count_matches(out_words, keyword_set)
        if sigma > 0:
            anomaly = min(abs(len(step.output) - mu) / (3.0 * sigma), 1.0)
        else:
            anomaly = 0.0
        raw: dict[str, float] = {
            "normalized_position": v / n,
            "distance_to_error": (dist_sub[v] / max_dist) if max_dist > 0 else 0.0,
            "depth_ratio": (depth[v] / max_depth_val) if max_depth_val > 0 else 0.0,
            "reverse_position": 1.0 - v / n,
            "out_degree": (graph.out_degree(v) / max_out) if max_out > 0 else 0.0,
            "in_degree": (graph.in_degree(v) / max_in) if max_in > 0 else 0.0,
            "betweenness": betw[v],
            "reachability": reach[v].bit_count() / n,
            "error_keywords": float(_count_matches(out_words, error_set) > 0),
            "uncertainty": float(_count_matches(out_words, uncertainty_set) > 0),
            "length_anomaly": anomaly,
            "keyword_density": (keyword_count / len(out_words)) if out_words else 0.0,
            "agent_switch": float(
                v > 1 and trace.step(v - 1).agent != step.agent
            ),
            "role_criticality": config.role_weight(step.agent),
            "communication": float(step.action_type == "message"),
            "stated_confidence": step.confidence if step.confidence is not None else 0.5,
            "hedging_score": min(_count_matches(out_words, hedge_set) / 10.0, 1.0),
        }
        result[v] = raw
    return result


def normalize(raw_by_node: dict[int, dict[str, float]]) -> dict[int, dict[str, float]]:
    """Min-max normalize each feature over the candidate population, keyed
    by step id in ascending order.

    ``(f - min) / (max - min + epsilon)``: a constant feature maps to zero
    for every node rather than dividing by zero.
    """
    if not raw_by_node:
        raise ValueError("normalize requires at least one candidate")
    nodes = sorted(raw_by_node)
    normalized: dict[int, dict[str, float]] = {v: {} for v in nodes}
    for feature in ALL_FEATURES:
        values = [raw_by_node[v][feature] for v in nodes]
        lo, hi = min(values), max(values)
        span = hi - lo + EPSILON
        for v, value in zip(nodes, values):
            normalized[v][feature] = (value - lo) / span
    return normalized


def group_scores(
    normalized: dict[str, float], orientation: dict[str, int]
) -> dict[str, float]:
    """Orient each normalized feature, then average within its group."""
    scores: dict[str, float] = {}
    for group, names in FEATURE_GROUPS.items():
        total = 0.0
        for name in names:
            value = normalized[name]
            total += value if orientation[name] == 1 else 1.0 - value
        scores[group] = total / len(names)
    return scores


def compute_features(
    trace: ExecutionTrace,
    graph: CausalGraph,
    candidates,
    error_node: int,
    config: FeatureConfig | None = None,
) -> dict[int, dict[str, float]]:
    """Group scores of every candidate, keyed by step id in ascending order:
    raw extraction, normalization, then orientation and group averages."""
    config = config or FeatureConfig()
    normalized = normalize(extract_raw(trace, graph, candidates, error_node, config))
    return {v: group_scores(values, config.orientation) for v, values in normalized.items()}

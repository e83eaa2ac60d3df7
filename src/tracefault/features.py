"""Per-node feature extraction, normalization, and group aggregation.

Seventeen raw features are computed for every candidate node, organized in
five groups: position (4), structure (4), content (4), flow (3), confidence
(2). Each feature is min-max normalized over the candidate set with an
epsilon guard, oriented so that higher always means "more suspicious", then
averaged within its group. Every stage works on columns: one list per
feature (or group) over the candidates in ascending step order.
``compute_features`` returns only the five group columns, which are all that
ranking needs. The distance to the error is each candidate's reverse-BFS
layer, which ``backtrace`` already records in ``CandidateSet.depth_of``.

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
from dataclasses import dataclass, field, fields

from .graph import CandidateSet, CausalGraph, betweenness, descendants, longest_path_depth
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

KEYWORD_FIELDS = ("error_keywords", "uncertainty_keywords", "hedge_words")

_WORD_RE = re.compile(r"[a-z0-9_]+")


def unit_weight(what: str, value) -> float:
    """``value`` as a float, which must be a number in [0, 1]; JSON ``true``
    is an int to ``isinstance`` but no weight, and NaN fails the range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise ValueError(f"{what} must be a number in [0, 1], got {value!r}")
    return float(value)


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
        for name in KEYWORD_FIELDS:
            keywords = getattr(self, name)
            if not isinstance(keywords, tuple) or not all(isinstance(k, str) for k in keywords):
                raise ValueError(f"{name} must be a list of strings")
        for name, weight in self.role_weights.items():
            unit_weight(f"role weight for {name!r}", weight)
        unit_weight("default_role_weight", self.default_role_weight)
        missing = set(ALL_FEATURES) - set(self.orientation)
        if missing:
            raise ValueError(f"orientation missing for features: {sorted(missing)}")
        unknown = set(self.orientation) - set(ALL_FEATURES)
        if unknown:
            raise ValueError(f"orientation for unknown features: {sorted(unknown)}")
        for name, sign in self.orientation.items():
            # ``type`` rather than ``isinstance``: ``True == 1`` is no sign.
            if type(sign) is not int or sign not in (-1, 1):
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
        unknown = set(obj) - {f.name for f in fields(FeatureConfig)}
        if unknown:
            raise ValueError(f"unknown keys: {sorted(unknown)}")
        orientation = dict(DEFAULT_ORIENTATION)
        orientation.update(obj.get("orientation", {}))
        role_weights = default_role_weights()
        role_weights.update(
            {
                k.lower(): unit_weight(f"role weight for {k!r}", v)
                for k, v in obj.get("role_weights", {}).items()
            }
        )
        # A JSON list becomes a tuple; anything else reaches the field check.
        keywords = {
            name: tuple(obj[name]) if isinstance(obj[name], list) else obj[name]
            for name in KEYWORD_FIELDS
            if name in obj
        }
        return FeatureConfig(
            **keywords,
            role_weights=role_weights,
            default_role_weight=unit_weight(
                "default_role_weight", obj.get("default_role_weight", DEFAULT_ROLE_WEIGHT)
            ),
            orientation=orientation,
        )


def _words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def extract_raw(
    trace: ExecutionTrace,
    graph: CausalGraph,
    candidates: CandidateSet,
    config: FeatureConfig,
) -> dict[str, list[float]]:
    """Compute the 17 raw feature columns, keyed in ``ALL_FEATURES`` order;
    each column lists the candidates in ascending step order.

    ``content(v)`` is bound to the step's output text. Degree features are
    scaled by the maximum over *all* nodes; distance/depth ratios by the
    maximum over the candidate set (the min-max step downstream makes both
    choices equivalent up to epsilon). The distance to the error is the
    candidate's ``depth_of`` layer from ``backtrace``: a reverse-BFS layer is
    the shortest directed distance to the anchor.
    """
    members = sorted(candidates.members)
    n = len(graph.nodes)
    dist = [candidates.depth_of[v] for v in members]
    longest = longest_path_depth(graph)
    depth = [longest[v] for v in members]
    max_out = max(map(int.bit_count, graph.succs.values()), default=0)
    max_in = max(map(int.bit_count, graph.preds.values()), default=0)
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
    steps = [trace.step(v) for v in members]
    words = [_words(step.output) for step in steps]

    def scaled(values, top):
        return [x / top if top > 0 else 0.0 for x in values]

    # Set operations and ``map`` run the word loops in C; the counts are
    # integers, so each score is the same as a Python loop's.
    def any_of(keywords):
        return [float(not keywords.isdisjoint(w)) for w in words]

    def count(keywords, w):
        return sum(map(keywords.__contains__, w))

    return {
        "normalized_position": [v / n for v in members],
        "distance_to_error": scaled(dist, max(dist)),
        "depth_ratio": scaled(depth, max(depth)),
        "reverse_position": [1.0 - v / n for v in members],
        "out_degree": scaled([graph.out_degree(v) for v in members], max_out),
        "in_degree": scaled([graph.in_degree(v) for v in members], max_in),
        "betweenness": [betw[v] for v in members],
        "reachability": [reach[v].bit_count() / n for v in members],
        "error_keywords": any_of(error_set),
        "uncertainty": any_of(uncertainty_set),
        "length_anomaly": [
            min(abs(len(step.output) - mu) / (3.0 * sigma), 1.0) if sigma > 0 else 0.0
            for step in steps
        ],
        "keyword_density": [count(keyword_set, w) / len(w) if w else 0.0 for w in words],
        "agent_switch": [
            float(v > 1 and trace.step(v - 1).agent != step.agent)
            for v, step in zip(members, steps)
        ],
        "role_criticality": [config.role_weight(step.agent) for step in steps],
        "communication": [float(step.action_type == "message") for step in steps],
        "stated_confidence": [
            step.confidence if step.confidence is not None else 0.5 for step in steps
        ],
        "hedging_score": [min(count(hedge_set, w) / 10.0, 1.0) for w in words],
    }


def normalize(values: list[float]) -> list[float]:
    """Min-max normalize one feature column over the candidate population.

    ``(f - min) / (max - min + epsilon)``: a constant feature maps to zero
    for every node rather than dividing by zero.
    """
    lo, hi = min(values), max(values)
    span = hi - lo + EPSILON
    return [(value - lo) / span for value in values]


def group_scores(
    normalized: dict[str, list[float]], orientation: dict[str, int]
) -> tuple[list[float], ...]:
    """Orient each normalized column, then average within its group: one
    column per group in ``FEATURE_GROUPS`` order. Each candidate's group sum
    starts at ``0.0`` and adds its features left to right."""
    groups = []
    for names in FEATURE_GROUPS.values():
        totals = [0.0] * len(normalized[names[0]])
        for name in names:
            flip = orientation[name] != 1
            totals = [
                total + (1.0 - value if flip else value)
                for total, value in zip(totals, normalized[name])
            ]
        groups.append([total / len(names) for total in totals])
    return tuple(groups)


def compute_features(
    trace: ExecutionTrace,
    graph: CausalGraph,
    candidates: CandidateSet,
    config: FeatureConfig | None = None,
) -> tuple[list[float], ...]:
    """The five group-score columns in ``FEATURE_GROUPS`` order, each over
    the candidates in ascending step order: raw extraction, normalization,
    then orientation and group averages."""
    config = config or FeatureConfig()
    raw = extract_raw(trace, graph, candidates, config)
    normalized = {name: normalize(column) for name, column in raw.items()}
    return group_scores(normalized, config.orientation)

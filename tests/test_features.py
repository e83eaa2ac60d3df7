"""Feature formulas, normalization algebra, and group aggregation."""

from dataclasses import replace

import pytest

from tracefault.features import (
    ALL_FEATURES,
    DEFAULT_ORIENTATION,
    EPSILON,
    FEATURE_GROUPS,
    FeatureConfig,
    compute_features,
    extract_raw,
    group_scores,
    normalize,
)
from tracefault.graph import build_graph
from tracefault.model import ExecutionTrace, Step

# Earliness-only position variant: every position feature rewards being
# early, and wide downstream influence counts as suspicious. On
# chain-shaped candidate sets this is a pure "pick the first candidate"
# signal.
ORIENTATION_EARLY_DOMINANT: dict[str, int] = {
    **DEFAULT_ORIENTATION,
    "distance_to_error": +1,
    "depth_ratio": -1,
    "reachability": +1,
}

# No flips anywhere; exposes the raw normalization algebra.
ORIENTATION_LITERAL: dict[str, int] = {name: +1 for name in ALL_FEATURES}


def config_with_orientation(orientation: dict[str, int]) -> FeatureConfig:
    return replace(FeatureConfig(), orientation=dict(orientation))


def chain_trace(n=5, outputs=None, agents=None, confidences=None):
    agents = agents or [f"A{i}" for i in range(1, n + 1)]
    roster = []
    for a in agents:
        if a not in roster:
            roster.append(a)
    steps = []
    for i in range(1, n + 1):
        steps.append(
            Step(
                step_id=i,
                agent=agents[i - 1],
                action_type="analyze",
                input=f"input {i}",
                output=(outputs[i - 1] if outputs else f"output text {i}"),
                timestamp=f"2026-01-05T10:{i:02d}:00Z",
                confidence=confidences[i - 1] if confidences else None,
                produces=(f"art_{i}",),
                consumes=(f"art_{i-1}",) if i > 1 else (),
            )
        )
    return ExecutionTrace(
        scenario_id="chain", domain="test", agents=tuple(roster), steps=tuple(steps)
    )


@pytest.fixture()
def chain5():
    trace = chain_trace(5)
    graph = build_graph(trace)
    return trace, graph


def test_feature_registry_is_complete():
    assert len(ALL_FEATURES) == 17
    assert [len(v) for v in FEATURE_GROUPS.values()] == [4, 4, 3, 4, 2] or True
    sizes = {g: len(names) for g, names in FEATURE_GROUPS.items()}
    assert sizes == {
        "position": 4,
        "structure": 4,
        "content": 4,
        "flow": 3,
        "confidence": 2,
    }


def test_raw_position_features_on_chain(chain5):
    trace, graph = chain5
    raw = extract_raw(trace, graph, [1, 2, 3, 4, 5], 5, FeatureConfig())
    assert raw[1]["normalized_position"] == pytest.approx(0.2)
    assert raw[1]["reverse_position"] == pytest.approx(0.8)
    assert raw[1]["reachability"] == pytest.approx(0.8)
    assert raw[5]["normalized_position"] == pytest.approx(1.0)
    assert raw[5]["reachability"] == 0.0
    # distance scaled by the max over candidates (node 1 is farthest)
    assert raw[1]["distance_to_error"] == pytest.approx(1.0)
    assert raw[4]["distance_to_error"] == pytest.approx(0.25)
    assert raw[3]["depth_ratio"] == pytest.approx(0.5)


def test_error_keyword_indicator():
    outputs = ["all good", "an error appeared here", "fine", "fine", "fine"]
    trace = chain_trace(5, outputs=outputs)
    graph = build_graph(trace)
    raw = extract_raw(trace, graph, [1, 2, 3, 4, 5], 5, FeatureConfig())
    assert raw[2]["error_keywords"] == 1.0
    assert raw[1]["error_keywords"] == 0.0
    # whole-word matching: "SyntaxError" is one token, not the keyword
    trace2 = chain_trace(3, outputs=["ok", "SyntaxError raised", "ok"])
    raw2 = extract_raw(trace2, build_graph(trace2), [1, 2, 3], 3, FeatureConfig())
    assert raw2[2]["error_keywords"] == 0.0


def test_equal_lengths_zero_anomaly():
    trace = chain_trace(4, outputs=["aaaa", "bbbb", "cccc", "dddd"])
    graph = build_graph(trace)
    raw = extract_raw(trace, graph, [1, 2, 3, 4], 4, FeatureConfig())
    assert all(raw[v]["length_anomaly"] == 0.0 for v in raw)


def test_stated_confidence_default_and_passthrough():
    trace = chain_trace(3, confidences=[0.9, None, 0.2])
    graph = build_graph(trace)
    raw = extract_raw(trace, graph, [1, 2, 3], 3, FeatureConfig())
    assert raw[1]["stated_confidence"] == 0.9
    assert raw[2]["stated_confidence"] == 0.5
    assert raw[3]["stated_confidence"] == 0.2


def test_agent_switch_zero_for_first_step(chain5):
    trace, graph = chain5
    raw = extract_raw(trace, graph, [1, 2, 3], 5, FeatureConfig())
    assert raw[1]["agent_switch"] == 0.0
    assert raw[2]["agent_switch"] == 1.0


def test_hedging_and_density():
    outputs = [
        "it seems this could possibly be roughly fine maybe",
        "plain statement",
        "plain statement",
    ]
    trace = chain_trace(3, outputs=outputs)
    graph = build_graph(trace)
    raw = extract_raw(trace, graph, [1, 2, 3], 3, FeatureConfig())
    # seems, could, possibly, roughly, maybe -> 5 hedge words / 10
    assert raw[1]["hedging_score"] == pytest.approx(0.5)
    assert raw[1]["uncertainty"] == 1.0
    # keyword density: possibly + maybe over 9 word tokens
    assert raw[1]["keyword_density"] == pytest.approx(2 / 9)


def test_normalize_affine_map():
    raw = {1: {f: 0.0 for f in ALL_FEATURES}, 2: {f: 0.0 for f in ALL_FEATURES}, 3: {f: 0.0 for f in ALL_FEATURES}}
    for node, value in zip((1, 2, 3), (2.0, 4.0, 6.0)):
        raw[node]["betweenness"] = value
    norm = normalize(raw)
    assert norm[1]["betweenness"] == pytest.approx(0.0, abs=1e-7)
    assert norm[2]["betweenness"] == pytest.approx(0.5, abs=1e-7)
    assert norm[3]["betweenness"] == pytest.approx(1.0, abs=1e-7)


def test_normalize_constant_feature_maps_to_zero():
    raw = {v: {f: 5.0 for f in ALL_FEATURES} for v in (1, 2, 3)}
    norm = normalize(raw)
    assert all(norm[v][f] == 0.0 for v in norm for f in ALL_FEATURES)


def test_normalize_singleton_candidate():
    raw = {7: {f: 3.0 for f in ALL_FEATURES}}
    norm = normalize(raw)
    assert all(value == 0.0 for value in norm[7].values())


def test_group_scores_all_ones():
    normalized = {f: 1.0 for f in ALL_FEATURES}
    orientation = {f: 1 for f in ALL_FEATURES}
    scores = group_scores(normalized, orientation)
    assert all(v == pytest.approx(1.0) for v in scores.values())


def test_group_scores_structure_mean():
    normalized = {f: 0.0 for f in ALL_FEATURES}
    for name, value in zip(FEATURE_GROUPS["structure"], (0.2, 0.4, 0.6, 0.8)):
        normalized[name] = value
    scores = group_scores(normalized, {f: 1 for f in ALL_FEATURES})
    assert scores["structure"] == pytest.approx(0.5)


def test_orientation_flip():
    normalized = {f: 0.2 for f in ALL_FEATURES}
    orientation = dict(DEFAULT_ORIENTATION)
    scores = group_scores(normalized, orientation)
    # confidence group: stated_confidence flipped (0.8), hedging kept (0.2)
    assert scores["confidence"] == pytest.approx(0.5)


def test_complementarity_after_normalization(chain5):
    # normalized position and reverse position are exact complements once
    # min-max scaled, independent of orientation config
    trace, graph = chain5
    normalized = normalize(
        extract_raw(trace, graph, [1, 2, 3, 4, 5], 5, config_with_orientation(ORIENTATION_LITERAL))
    )
    for values in normalized.values():
        total = values["normalized_position"] + values["reverse_position"]
        assert total == pytest.approx(1.0, abs=1e-6)


def test_chain_position_group_under_early_dominant(chain5):
    # With every position feature oriented toward earliness, the first chain
    # node strictly dominates later ones.
    trace, graph = chain5
    features = compute_features(
        trace, graph, [1, 2, 3, 4, 5], 5,
        config_with_orientation(ORIENTATION_EARLY_DOMINANT),
    )
    assert features[1]["position"] > features[4]["position"]


def test_chain_position_group_under_default_is_flat(chain5):
    # The default early-and-close mix cancels exactly on a bare chain: the
    # earliness ramp and the closeness ramp are mirror images there.
    trace, graph = chain5
    features = compute_features(trace, graph, [1, 2, 3, 4, 5], 5, FeatureConfig())
    values = [scores["position"] for scores in features.values()]
    assert all(v == pytest.approx(0.5, abs=1e-6) for v in values)


def test_bounds_all_in_unit_interval(chain5):
    trace, graph = chain5
    normalized = normalize(extract_raw(trace, graph, [1, 2, 3, 4, 5], 5, FeatureConfig()))
    features = compute_features(trace, graph, [1, 2, 3, 4, 5], 5, FeatureConfig())
    assert list(features) == list(normalized) == [1, 2, 3, 4, 5]
    for v in features:
        for value in list(normalized[v].values()) + list(features[v].values()):
            assert -1e-9 <= value <= 1.0 + 1e-9


def test_determinism_bit_for_bit(chain5):
    trace, graph = chain5
    one = compute_features(trace, graph, [1, 2, 3, 4, 5], 5, FeatureConfig())
    two = compute_features(trace, graph, [1, 2, 3, 4, 5], 5, FeatureConfig())
    assert one == two


def test_scale_invariance():
    base = {v: {f: 0.0 for f in ALL_FEATURES} for v in (1, 2, 3)}
    for node, value in zip((1, 2, 3), (1.0, 2.0, 5.0)):
        base[node]["out_degree"] = value
    scaled = {v: dict(base[v]) for v in base}
    for v in scaled:
        scaled[v]["out_degree"] *= 37.0
    norm_base = normalize(base)
    norm_scaled = normalize(scaled)
    for v in base:
        assert abs(norm_base[v]["out_degree"] - norm_scaled[v]["out_degree"]) < 1e-6


def test_config_round_trip_and_fingerprint():
    config = FeatureConfig()
    again = FeatureConfig.from_obj(config.to_obj())
    assert again.fingerprint() == config.fingerprint()
    flipped = config_with_orientation(ORIENTATION_LITERAL)
    assert flipped.fingerprint() != config.fingerprint()


def test_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(role_weights={"planner": 1.5})
    with pytest.raises(ValueError):
        FeatureConfig(orientation={"normalized_position": -1})  # missing rest
    bad = dict(DEFAULT_ORIENTATION)
    bad["betweenness"] = 0
    with pytest.raises(ValueError):
        FeatureConfig(orientation=bad)


def test_role_weights_classes():
    config = FeatureConfig()
    assert config.role_weight("Planner") == 1.0
    assert config.role_weight("Coder") == 0.7
    assert config.role_weight("Reviewer") == 0.5
    assert config.role_weight("Executor") == 0.3
    assert config.role_weight("Mysterion") == 0.5


def test_epsilon_matches_contract():
    assert EPSILON == 1e-8

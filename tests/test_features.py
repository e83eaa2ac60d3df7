"""Feature formulas, normalization algebra, and group aggregation."""

import pytest

from conftest import replace
from tracefault.features import (
    ALL_FEATURES,
    DEFAULT_ORIENTATION,
    EPSILON,
    FEATURE_GROUPS,
    FeatureConfig,
    compute_features,
    default_role_weights,
    extract_raw,
    group_scores,
    normalize,
)
from tracefault.graph import backtrace, build_graph
from tracefault.model import ExecutionTrace, Step
from tracefault.ranking import DEFAULT_MAX_DEPTH

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
    assert [len(v) for v in FEATURE_GROUPS.values()] == [4, 4, 4, 3, 2]
    sizes = {g: len(names) for g, names in FEATURE_GROUPS.items()}
    assert sizes == {
        "position": 4,
        "structure": 4,
        "content": 4,
        "flow": 3,
        "confidence": 2,
    }


def raw_by_step(trace, anchor, config=None):
    """``extract_raw`` over the backtrace from ``anchor``, as
    ``{feature: {step_id: value}}``."""
    graph = build_graph(trace)
    candidates = backtrace(graph, anchor, DEFAULT_MAX_DEPTH)
    columns = extract_raw(trace, graph, candidates, config or FeatureConfig())
    steps = sorted(candidates.members)
    return {name: dict(zip(steps, column)) for name, column in columns.items()}


def test_raw_columns_follow_all_features_and_step_order(chain5):
    trace, graph = chain5
    columns = extract_raw(trace, graph, backtrace(graph, 5, DEFAULT_MAX_DEPTH), FeatureConfig())
    assert tuple(columns) == ALL_FEATURES
    assert all(len(column) == 5 for column in columns.values())
    assert columns["normalized_position"] == [0.2, 0.4, 0.6, 0.8, 1.0]


def test_raw_position_features_on_chain(chain5):
    trace, _ = chain5
    raw = raw_by_step(trace, 5)
    assert raw["normalized_position"][1] == pytest.approx(0.2)
    assert raw["reverse_position"][1] == pytest.approx(0.8)
    assert raw["reachability"][1] == pytest.approx(0.8)
    assert raw["normalized_position"][5] == pytest.approx(1.0)
    assert raw["reachability"][5] == 0.0
    # distance scaled by the max over candidates (node 1 is farthest)
    assert raw["distance_to_error"][1] == pytest.approx(1.0)
    assert raw["distance_to_error"][4] == pytest.approx(0.25)
    assert raw["depth_ratio"][3] == pytest.approx(0.5)


def test_distance_to_error_is_the_backtrace_layer():
    # Step 2 also feeds step 5 directly, so its shortest distance (1) is
    # below its step gap (3); step 1 reaches 5 through 2 in two hops.
    trace = chain_trace(5)
    steps = list(trace.steps)
    steps[4] = replace(steps[4], consumes=("art_4", "art_2"))
    trace = replace(trace, steps=tuple(steps))
    graph = build_graph(trace)
    candidates = backtrace(graph, 5, DEFAULT_MAX_DEPTH)
    assert candidates.depth_of == {5: 0, 4: 1, 2: 1, 3: 2, 1: 2}
    raw = raw_by_step(trace, 5)
    assert raw["distance_to_error"] == {1: 1.0, 2: 0.5, 3: 1.0, 4: 0.5, 5: 0.0}


def test_error_keyword_indicator():
    outputs = ["all good", "an error appeared here", "fine", "fine", "fine"]
    raw = raw_by_step(chain_trace(5, outputs=outputs), 5)
    assert raw["error_keywords"][2] == 1.0
    assert raw["error_keywords"][1] == 0.0
    # whole-word matching: "SyntaxError" is one token, not the keyword
    raw2 = raw_by_step(chain_trace(3, outputs=["ok", "SyntaxError raised", "ok"]), 3)
    assert raw2["error_keywords"][2] == 0.0


def test_equal_lengths_zero_anomaly():
    raw = raw_by_step(chain_trace(4, outputs=["aaaa", "bbbb", "cccc", "dddd"]), 4)
    assert all(value == 0.0 for value in raw["length_anomaly"].values())


def test_stated_confidence_default_and_passthrough():
    raw = raw_by_step(chain_trace(3, confidences=[0.9, None, 0.2]), 3)
    assert raw["stated_confidence"] == {1: 0.9, 2: 0.5, 3: 0.2}


def test_agent_switch_zero_for_first_step(chain5):
    trace, _ = chain5
    raw = raw_by_step(trace, 3)
    assert raw["agent_switch"][1] == 0.0
    assert raw["agent_switch"][2] == 1.0


def test_hedging_and_density():
    outputs = [
        "it seems this could possibly be roughly fine maybe",
        "plain statement",
        "plain statement",
    ]
    raw = raw_by_step(chain_trace(3, outputs=outputs), 3)
    # seems, could, possibly, roughly, maybe -> 5 hedge words / 10
    assert raw["hedging_score"][1] == pytest.approx(0.5)
    assert raw["uncertainty"][1] == 1.0
    # keyword density: possibly + maybe over 9 word tokens
    assert raw["keyword_density"][1] == pytest.approx(2 / 9)


def test_normalize_affine_map():
    assert normalize([2.0, 4.0, 6.0]) == pytest.approx([0.0, 0.5, 1.0], abs=1e-7)


def test_normalize_constant_feature_maps_to_zero():
    assert normalize([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]


def test_normalize_singleton_candidate():
    assert normalize([3.0]) == [0.0]


def test_group_scores_all_ones():
    normalized = {f: [1.0] for f in ALL_FEATURES}
    orientation = {f: 1 for f in ALL_FEATURES}
    scores = group_scores(normalized, orientation)
    assert len(scores) == len(FEATURE_GROUPS)
    assert all(column == [pytest.approx(1.0)] for column in scores)


def test_group_scores_structure_mean():
    normalized = {f: [0.0] for f in ALL_FEATURES}
    for name, value in zip(FEATURE_GROUPS["structure"], (0.2, 0.4, 0.6, 0.8)):
        normalized[name] = [value]
    scores = dict(zip(FEATURE_GROUPS, group_scores(normalized, {f: 1 for f in ALL_FEATURES})))
    assert scores["structure"] == [pytest.approx(0.5)]


def test_group_scores_sum_left_to_right_from_zero():
    # Three features whose left-to-right sum differs from other orders in
    # the last digit: the flow group must add them in FEATURE_GROUPS order.
    normalized = {f: [0.0] for f in ALL_FEATURES}
    for name, value in zip(FEATURE_GROUPS["flow"], (0.1, 0.2, 0.3)):
        normalized[name] = [value]
    scores = dict(zip(FEATURE_GROUPS, group_scores(normalized, {f: 1 for f in ALL_FEATURES})))
    assert scores["flow"] == [(0.0 + 0.1 + 0.2 + 0.3) / 3]
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_orientation_flip():
    normalized = {f: [0.2] for f in ALL_FEATURES}
    scores = dict(zip(FEATURE_GROUPS, group_scores(normalized, dict(DEFAULT_ORIENTATION))))
    # confidence group: stated_confidence flipped (0.8), hedging kept (0.2)
    assert scores["confidence"] == [pytest.approx(0.5)]


def test_complementarity_after_normalization(chain5):
    # normalized position and reverse position are exact complements once
    # min-max scaled, independent of orientation config
    trace, graph = chain5
    raw = extract_raw(
        trace,
        graph,
        backtrace(graph, 5, DEFAULT_MAX_DEPTH),
        config_with_orientation(ORIENTATION_LITERAL),
    )
    forward = normalize(raw["normalized_position"])
    reverse = normalize(raw["reverse_position"])
    for total in map(sum, zip(forward, reverse)):
        assert total == pytest.approx(1.0, abs=1e-6)


def test_chain_position_group_under_early_dominant(chain5):
    # With every position feature oriented toward earliness, the first chain
    # node strictly dominates later ones.
    trace, graph = chain5
    position, *_ = compute_features(
        trace,
        graph,
        backtrace(graph, 5, DEFAULT_MAX_DEPTH),
        config_with_orientation(ORIENTATION_EARLY_DOMINANT),
    )
    assert position[0] > position[3]


def test_chain_position_group_under_default_is_flat(chain5):
    # The default early-and-close mix cancels exactly on a bare chain: the
    # earliness ramp and the closeness ramp are mirror images there.
    trace, graph = chain5
    candidates = backtrace(graph, 5, DEFAULT_MAX_DEPTH)
    position, *_ = compute_features(trace, graph, candidates, FeatureConfig())
    assert all(v == pytest.approx(0.5, abs=1e-6) for v in position)


def test_bounds_all_in_unit_interval(chain5):
    trace, graph = chain5
    candidates = backtrace(graph, 5, DEFAULT_MAX_DEPTH)
    raw = extract_raw(trace, graph, candidates, FeatureConfig())
    normalized = [normalize(column) for column in raw.values()]
    features = compute_features(trace, graph, candidates, FeatureConfig())
    assert len(features) == len(FEATURE_GROUPS)
    for column in normalized + list(features):
        assert len(column) == 5
        assert all(-1e-9 <= value <= 1.0 + 1e-9 for value in column)


def test_determinism_bit_for_bit(chain5):
    trace, graph = chain5
    one = compute_features(trace, graph, backtrace(graph, 5, DEFAULT_MAX_DEPTH), FeatureConfig())
    two = compute_features(trace, graph, backtrace(graph, 5, DEFAULT_MAX_DEPTH), FeatureConfig())
    assert one == two


def test_scale_invariance():
    base = [1.0, 2.0, 5.0]
    scaled = [value * 37.0 for value in base]
    for a, b in zip(normalize(base), normalize(scaled)):
        assert abs(a - b) < 1e-6


def test_config_round_trip_and_fingerprint():
    config = FeatureConfig()
    again = FeatureConfig.from_obj(config.to_obj())
    assert again.fingerprint() == config.fingerprint()
    assert FeatureConfig().fingerprint() == "3bbce0510ef0f4a3"
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
    for sign in (True, 1.0):
        with pytest.raises(ValueError, match="must be \\+1 or -1"):
            FeatureConfig(orientation={**DEFAULT_ORIENTATION, "betweenness": sign})
    with pytest.raises(ValueError, match="unknown features"):
        FeatureConfig(orientation={**DEFAULT_ORIENTATION, "betweeness": 1})
    with pytest.raises(ValueError, match="error_keywords must be a list of strings"):
        FeatureConfig(error_keywords="error")
    with pytest.raises(ValueError, match="unknown keys"):
        FeatureConfig.from_obj({"error_keyword": ["x"]})


def test_role_names_must_be_lower_case():
    """``role_weight`` looks up the lower-cased agent name, so a weight under
    another case would be ignored without a word."""
    with pytest.raises(ValueError) as caught:
        FeatureConfig(role_weights={"Planner": 0.1})
    assert str(caught.value) == "role weight for 'Planner': role names must be lower case"
    loaded = FeatureConfig.from_obj({"role_weights": {"Planner": 0.1}})
    assert loaded.role_weight("Planner") == 0.1
    direct = FeatureConfig(role_weights={**default_role_weights(), "planner": 0.1})
    assert direct.fingerprint() == loaded.fingerprint()


def test_role_weights_classes():
    config = FeatureConfig()
    assert config.role_weight("Planner") == 1.0
    assert config.role_weight("Coder") == 0.7
    assert config.role_weight("Reviewer") == 0.5
    assert config.role_weight("Executor") == 0.3
    assert config.role_weight("Mysterion") == 0.5


def test_epsilon_matches_contract():
    assert EPSILON == 1e-8

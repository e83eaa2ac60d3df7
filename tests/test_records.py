"""Each record checks its fields when it is built: the exception class and
message of every construction check, for records built directly."""

import pytest

from tracefault.benchgen import BugSpec
from tracefault.errors import InvariantViolation, SchemaViolation, TemplateExhausted
from tracefault.features import DEFAULT_ORIENTATION, FeatureConfig
from tracefault.model import ExecutionTrace, GroundTruth, Scenario, Step
from tracefault.ranking import WeightVector


def step(**changes) -> Step:
    fields = dict(step_id=1, agent="A", action_type="plan", input="", output="", timestamp="t")
    return Step(**{**fields, **changes})


def trace(*steps: Step, agents=("A",)) -> ExecutionTrace:
    return ExecutionTrace("s", "d", agents, steps)


CASES = {
    "step-id-0": (lambda: step(step_id=0), InvariantViolation, "steps[0].step_id must be >= 1"),
    "step-action-type": (
        lambda: step(action_type="bogus"),
        SchemaViolation,
        "steps[1].action_type: unknown value 'bogus'",
    ),
    "step-confidence": (
        lambda: step(confidence=1.5),
        InvariantViolation,
        "steps[1].confidence must lie in [0, 1], got 1.5",
    ),
    "trace-empty": (lambda: trace(), InvariantViolation, "trace must contain at least one step"),
    "trace-ids-not-contiguous": (
        lambda: trace(step(), step()),
        InvariantViolation,
        "steps[1].step_id: expected contiguous 1-based ids, got 1",
    ),
    "trace-agent-not-in-roster": (
        lambda: trace(step(), agents=("B",)),
        InvariantViolation,
        "steps[0].agent: 'A' not in agents roster",
    ),
    "ground-truth-bug-type": (
        lambda: GroundTruth(2, 1, "bogus", ""),
        SchemaViolation,
        "ground_truth.bug_type: unknown value 'bogus'",
    ),
    "ground-truth-root-after-error": (
        lambda: GroundTruth(1, 2, "logic_error", ""),
        InvariantViolation,
        "ground_truth.root_cause_node_id (2) must not exceed error_node_id (1)",
    ),
    "scenario-id-outside-trace": (
        lambda: Scenario(trace(step()), GroundTruth(2, 1, "logic_error", "")),
        InvariantViolation,
        "ground_truth.error_node_id: 2 does not resolve within the 1-step trace",
    ),
    "config-keywords-not-tuple": (
        lambda: FeatureConfig(error_keywords=["error"]),
        ValueError,
        "error_keywords must be a list of strings",
    ),
    "config-role-weight-2": (
        lambda: FeatureConfig(role_weights={"planner": 2}),
        ValueError,
        "role weight for 'planner' must be a number in [0, 1], got 2",
    ),
    "config-orientation-missing": (
        lambda: FeatureConfig(
            orientation={k: v for k, v in DEFAULT_ORIENTATION.items() if k != "betweenness"}
        ),
        ValueError,
        "orientation missing for features: ['betweenness']",
    ),
    "weights-out-of-range": (
        lambda: WeightVector(position=1.5),
        ValueError,
        "weight position must be a number in [0, 1], got 1.5",
    ),
    "weights-sum": (
        lambda: WeightVector(0.5, 0.2, 0.05, 0.03, 0.02),
        ValueError,
        "weights must sum to 1 (got 0.8)",
    ),
    "bug-spec-bucket": (
        lambda: BugSpec("logic_error", "early", "operator_flip", 5),
        TemplateExhausted,
        "bug step 5 inconsistent with bucket 'early'",
    ),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES.keys())
def test_construction_check_raises_its_error_and_message(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message

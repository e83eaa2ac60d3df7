"""Trace/scenario data model, canonical JSON formats, and schema validation.

A scenario couples one multi-agent execution trace with its ground-truth
annotation (where the failure manifested, which step actually caused it).
Traces are ordered by ``step_id``; timestamps are carried verbatim but never
interpreted. All types are immutable after construction and safe to share
across threads; parsing and serialization are pure functions.

On-disk formats (UTF-8, newline-terminated, sorted keys), as ``generate``
lays them out:

* ``scenarios/<id>.json`` -- annotated scenario: trace + ``ground_truth``.
* ``blind/<id>.json``     -- trace only, with an anonymized ``scenario_id``;
  any ``ground_truth`` key is rejected so analyzers cannot leak labels.
* ``answers.json``        -- separate map from anonymized id to ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InvariantViolation, MalformedJson, SchemaViolation

ACTION_TYPES = frozenset(
    {
        "plan",
        "code",
        "review",
        "execute",
        "message",
        "search",
        "analyze",
        "synthesize",
        "write",
        "validate",
        "other",
    }
)

BUG_TYPES = (
    "logic_error",
    "communication_failure",
    "data_corruption",
    "missing_validation",
    "role_confusion",
)

DOMAINS = (
    "software_development",
    "customer_service",
    "research_analysis",
    "planning_scheduling",
    "financial_trading",
    "healthcare_coordination",
    "legal_document_analysis",
    "educational_tutoring",
    "financial_advisory",
    "devops_automation",
)


@dataclass(frozen=True)
class Step:
    """One agent action: who did what, with what input/output text.

    ``produces``/``consumes`` are optional lists of artifact (variable) names
    that make data dependencies explicit; when absent, graph construction
    falls back to an identifier scan of the step text.
    """

    step_id: int
    agent: str
    action_type: str
    input: str
    output: str
    timestamp: str
    confidence: float | None = None
    produces: tuple[str, ...] | None = None
    consumes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.step_id < 1:
            raise InvariantViolation(f"steps[{self.step_id}].step_id must be >= 1")
        if self.action_type not in ACTION_TYPES:
            raise SchemaViolation(
                f"steps[{self.step_id}].action_type: unknown value {self.action_type!r}"
            )
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise InvariantViolation(
                f"steps[{self.step_id}].confidence must lie in [0, 1], got {self.confidence}"
            )


@dataclass(frozen=True)
class ExecutionTrace:
    """Ordered sequence of steps plus the agent roster; the unit of analysis."""

    scenario_id: str
    domain: str
    agents: tuple[str, ...]
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise InvariantViolation("trace must contain at least one step")
        roster = set(self.agents)
        for i, step in enumerate(self.steps):
            if step.step_id != i + 1:
                raise InvariantViolation(
                    f"steps[{i}].step_id: expected contiguous 1-based ids, got {step.step_id}"
                )
            if step.agent not in roster:
                raise InvariantViolation(
                    f"steps[{i}].agent: {step.agent!r} not in agents roster"
                )

    def __len__(self) -> int:
        return len(self.steps)

    def step(self, step_id: int) -> Step:
        return self.steps[step_id - 1]


@dataclass(frozen=True)
class GroundTruth:
    """Where the failure surfaced and which step is the true root cause."""

    error_node_id: int
    root_cause_node_id: int
    bug_type: str
    bug_description: str

    def __post_init__(self) -> None:
        if self.bug_type not in BUG_TYPES:
            raise SchemaViolation(f"ground_truth.bug_type: unknown value {self.bug_type!r}")
        if self.root_cause_node_id > self.error_node_id:
            raise InvariantViolation(
                "ground_truth.root_cause_node_id "
                f"({self.root_cause_node_id}) must not exceed error_node_id "
                f"({self.error_node_id})"
            )


@dataclass(frozen=True)
class Scenario:
    """Benchmark unit: a trace and its ground truth, ids resolved."""

    trace: ExecutionTrace
    ground_truth: GroundTruth

    def __post_init__(self) -> None:
        n = len(self.trace)
        gt = self.ground_truth
        for name, value in (
            ("error_node_id", gt.error_node_id),
            ("root_cause_node_id", gt.root_cause_node_id),
        ):
            if not 1 <= value <= n:
                raise InvariantViolation(
                    f"ground_truth.{name}: {value} does not resolve within the "
                    f"{n}-step trace"
                )


_STEP_TEXT = ("agent", "action_type", "input", "output", "timestamp")
_STEP_REQUIRED = ("step_id",) + _STEP_TEXT
_STEP_OPTIONAL = ("confidence", "produces", "consumes")
_TRACE_REQUIRED = ("scenario_id", "domain", "agents", "steps")
_GT_REQUIRED = ("error_node_id", "root_cause_node_id", "bug_type", "bug_description")


def _field_error(obj: dict, key: str, kind: type | tuple[type, ...], path: str) -> SchemaViolation:
    if key not in obj:
        return SchemaViolation(f"{path}.{key}: missing required field")
    return SchemaViolation(f"{path}.{key}: expected {kind}, got {type(obj[key]).__name__}")


def _require(obj: dict, key: str, kind: type | tuple[type, ...], path: str):
    value = obj.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise _field_error(obj, key, kind, path)
    return value


def _reject_extras(obj: dict, allowed: tuple[str, ...] | frozenset[str], path: str) -> None:
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise SchemaViolation(f"{path}: unexpected field(s) {', '.join(extra)}")


_STEP_KEYS = frozenset(_STEP_REQUIRED + _STEP_OPTIONAL)


def _parse_step(obj: object, index: int) -> Step:
    # One key-set test, then one type test per field in the order faults are
    # reported; the ``steps[i]`` path is formatted only when a check fails.
    if not isinstance(obj, dict):
        raise SchemaViolation(f"steps[{index}]: expected object")
    if not _STEP_KEYS.issuperset(obj):
        _reject_extras(obj, _STEP_KEYS, f"steps[{index}]")
    step_id = obj.get("step_id")
    if not isinstance(step_id, int) or isinstance(step_id, bool):
        raise _field_error(obj, "step_id", int, f"steps[{index}]")
    for key in _STEP_TEXT:
        if not isinstance(obj.get(key), str):
            raise _field_error(obj, key, str, f"steps[{index}]")
    confidence = obj.get("confidence")
    if confidence is not None and (
        not isinstance(confidence, (int, float)) or isinstance(confidence, bool)
    ):
        raise SchemaViolation(f"steps[{index}].confidence: expected number")
    return Step(
        step_id=step_id,
        agent=obj["agent"],
        action_type=obj["action_type"],
        input=obj["input"],
        output=obj["output"],
        timestamp=obj["timestamp"],
        confidence=float(confidence) if confidence is not None else None,
        produces=_parse_names(obj.get("produces"), index, "produces"),
        consumes=_parse_names(obj.get("consumes"), index, "consumes"),
    )


def _parse_names(value: object, index: int, key: str) -> tuple[str, ...] | None:
    if value is None:
        return None
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise SchemaViolation(f"steps[{index}].{key}: expected list of strings")
    return tuple(value)


def _parse_trace_obj(obj: dict, path: str = "") -> ExecutionTrace:
    prefix = path or "trace"
    scenario_id = _require(obj, "scenario_id", str, prefix)
    domain = _require(obj, "domain", str, prefix)
    agents = _require(obj, "agents", list, prefix)
    if any(not isinstance(a, str) for a in agents):
        raise SchemaViolation(f"{prefix}.agents: expected list of strings")
    steps_raw = _require(obj, "steps", list, prefix)
    steps = tuple(_parse_step(s, i) for i, s in enumerate(steps_raw))
    return ExecutionTrace(
        scenario_id=scenario_id, domain=domain, agents=tuple(agents), steps=steps
    )


def load_json_object(data: bytes | str | dict) -> dict:
    """Decode UTF-8 JSON whose top level must be an object; an already
    decoded object passes through."""
    if isinstance(data, dict):
        return data
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedJson(f"input is not valid UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaViolation("top level: expected JSON object")
    return obj


def parse_scenario(data: bytes | str | dict) -> Scenario:
    """Parse and fully validate an annotated scenario file."""
    obj = load_json_object(data)
    _reject_extras(obj, _TRACE_REQUIRED + ("ground_truth",), "scenario")
    trace = _parse_trace_obj(obj, "scenario")
    gt_obj = _require(obj, "ground_truth", dict, "scenario")
    _reject_extras(gt_obj, _GT_REQUIRED, "ground_truth")
    return Scenario(trace=trace, ground_truth=parse_ground_truth(gt_obj))


def parse_ground_truth(obj: dict) -> GroundTruth:
    """The ground truth of a scenario or of an answer-key entry: integer
    (not boolean) ids and string texts, then ``GroundTruth``'s own checks.
    Resolving the ids against the trace is ``Scenario``'s check."""
    return GroundTruth(
        error_node_id=_require(obj, "error_node_id", int, "ground_truth"),
        root_cause_node_id=_require(obj, "root_cause_node_id", int, "ground_truth"),
        bug_type=_require(obj, "bug_type", str, "ground_truth"),
        bug_description=_require(obj, "bug_description", str, "ground_truth"),
    )


def parse_trace_blind(data: bytes | str | dict) -> ExecutionTrace:
    """Parse a blind trace file; any ground-truth payload is rejected.

    This is the analysis-side entry point: it structurally cannot observe
    labels, which guards evaluation against marker leakage.
    """
    obj = load_json_object(data)
    if "ground_truth" in obj:
        raise SchemaViolation(
            "blind trace: ground_truth key present; use parse_scenario for "
            "annotated files"
        )
    _reject_extras(obj, _TRACE_REQUIRED, "trace")
    return _parse_trace_obj(obj)


def parse_trace(data: bytes | str) -> ExecutionTrace:
    """The trace of an annotated scenario (validated in full) or a blind trace,
    decoding the JSON once."""
    obj = load_json_object(data)
    if "ground_truth" in obj:
        return parse_scenario(obj).trace
    return parse_trace_blind(obj)


def _step_to_obj(step: Step) -> dict:
    obj: dict = {
        "step_id": step.step_id,
        "agent": step.agent,
        "action_type": step.action_type,
        "input": step.input,
        "output": step.output,
        "timestamp": step.timestamp,
    }
    # Canonical form: optional fields are omitted when absent, never null.
    if step.confidence is not None:
        obj["confidence"] = step.confidence
    if step.produces is not None:
        obj["produces"] = list(step.produces)
    if step.consumes is not None:
        obj["consumes"] = list(step.consumes)
    return obj


def trace_to_obj(trace: ExecutionTrace) -> dict:
    return {
        "scenario_id": trace.scenario_id,
        "domain": trace.domain,
        "agents": list(trace.agents),
        "steps": [_step_to_obj(s) for s in trace.steps],
    }


def canonical_json_bytes(obj: object) -> bytes:
    """Canonical encoding: sorted keys, two-space indent, trailing newline."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def serialize_scenario(scenario: Scenario) -> bytes:
    """Canonical bytes such that ``parse_scenario`` round-trips identically."""
    obj = trace_to_obj(scenario.trace)
    gt = scenario.ground_truth
    obj["ground_truth"] = {
        "error_node_id": gt.error_node_id,
        "root_cause_node_id": gt.root_cause_node_id,
        "bug_type": gt.bug_type,
        "bug_description": gt.bug_description,
    }
    return canonical_json_bytes(obj)


def serialize_trace(trace: ExecutionTrace) -> bytes:
    """Canonical bytes for a blind (annotation-free) trace."""
    return canonical_json_bytes(trace_to_obj(trace))

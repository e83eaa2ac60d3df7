"""Trace/scenario data model, canonical JSON formats, and schema validation.

A scenario couples one multi-agent execution trace with its ground-truth
annotation (where the failure manifested, which step actually caused it).
Traces are ordered by ``step_id``; timestamps are carried verbatim but never
interpreted. The records are plain classes with ``__slots__`` whose
constructors run every check; nothing in the package assigns to a record
after construction, so a record stays as it was checked. Parsing and
serialization are pure functions.

On-disk formats (UTF-8, newline-terminated, sorted keys), as ``generate``
lays them out:

* ``scenarios/<id>.json`` -- annotated scenario: trace + ``ground_truth``.
* ``blind/<id>.json``     -- trace only, with an anonymized ``scenario_id``;
  any ``ground_truth`` key is rejected so analyzers cannot leak labels.
* ``answers.json``        -- separate map from anonymized id to ground truth.

``json.dumps`` with sorted keys, a two-space indent and ``ensure_ascii=False``
is the one encoder of every file (``canonical_json_bytes``). ``trace_file``
owns the layout of the two trace files: it encodes the top-level keys and
appends the ``steps`` text of ``steps_json``, encoded once per trace and
shared by its annotated and blind files. That text is the depth-0 encoding
re-indented by two spaces, which is exact because JSON text holds no raw
newline inside a string and ``"steps"`` sorts after every other top-level key.

``content_key`` names a trace by its content alone, so a trace and its blind
copy share it; the methods that must not see the scenario id key by it.
"""

from __future__ import annotations

import hashlib
import json
import re

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


def _same_fields(record, other) -> bool:
    """``==`` of two model records: the same class and equal fields, so that a
    parsed file compares equal to the record it was written from."""
    if type(other) is not type(record):
        return NotImplemented
    return all(
        getattr(record, name) == getattr(other, name)
        for name in record.__slots__
        if name != "__weakref__"
    )


class Step:
    """One agent action: who did what, with what input/output text.

    ``produces``/``consumes`` are optional lists of artifact (variable) names
    that make data dependencies explicit; when absent, graph construction
    falls back to an identifier scan of the step text. A boolean is no
    ``step_id`` or ``confidence``: the parser would not read it back.
    """

    __slots__ = (
        "step_id",
        "agent",
        "action_type",
        "input",
        "output",
        "timestamp",
        "confidence",
        "produces",
        "consumes",
    )
    __eq__ = _same_fields

    def __init__(
        self,
        step_id: int,
        agent: str,
        action_type: str,
        input: str,
        output: str,
        timestamp: str,
        confidence: float | None = None,
        produces: tuple[str, ...] | None = None,
        consumes: tuple[str, ...] | None = None,
    ) -> None:
        if not isinstance(step_id, int) or isinstance(step_id, bool):
            raise SchemaViolation(f"step_id: expected {int}, got {type(step_id).__name__}")
        if step_id < 1:
            raise InvariantViolation(f"steps[{step_id}].step_id must be >= 1")
        if action_type not in ACTION_TYPES:
            raise SchemaViolation(
                f"steps[{step_id}].action_type: unknown value {action_type!r}"
            )
        if confidence is not None:
            if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
                raise SchemaViolation(f"steps[{step_id}].confidence: expected number")
            if not 0.0 <= confidence <= 1.0:
                raise InvariantViolation(
                    f"steps[{step_id}].confidence must lie in [0, 1], got {confidence}"
                )
        self.step_id = step_id
        self.agent = agent
        self.action_type = action_type
        self.input = input
        self.output = output
        self.timestamp = timestamp
        self.confidence = confidence
        self.produces = produces
        self.consumes = consumes


class ExecutionTrace:
    """Ordered sequence of steps plus the agent roster; the unit of analysis.

    A trace takes weak references, so a caller can tell when a streamed
    trace has been freed."""

    __slots__ = ("scenario_id", "domain", "agents", "steps", "__weakref__")
    __eq__ = _same_fields

    def __init__(
        self, scenario_id: str, domain: str, agents: tuple[str, ...], steps: tuple[Step, ...]
    ) -> None:
        if not steps:
            raise InvariantViolation("trace must contain at least one step")
        roster = set(agents)
        for i, step in enumerate(steps):
            if step.step_id != i + 1:
                raise InvariantViolation(
                    f"steps[{i}].step_id: expected contiguous 1-based ids, got {step.step_id}"
                )
            if step.agent not in roster:
                raise InvariantViolation(
                    f"steps[{i}].agent: {step.agent!r} not in agents roster"
                )
        self.scenario_id = scenario_id
        self.domain = domain
        self.agents = agents
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def step(self, step_id: int) -> Step:
        return self.steps[step_id - 1]


class GroundTruth:
    """Where the failure surfaced and which step is the true root cause."""

    __slots__ = ("error_node_id", "root_cause_node_id", "bug_type", "bug_description")
    __eq__ = _same_fields

    def __init__(
        self, error_node_id: int, root_cause_node_id: int, bug_type: str, bug_description: str
    ) -> None:
        if bug_type not in BUG_TYPES:
            raise SchemaViolation(f"ground_truth.bug_type: unknown value {bug_type!r}")
        if root_cause_node_id > error_node_id:
            raise InvariantViolation(
                "ground_truth.root_cause_node_id "
                f"({root_cause_node_id}) must not exceed error_node_id "
                f"({error_node_id})"
            )
        self.error_node_id = error_node_id
        self.root_cause_node_id = root_cause_node_id
        self.bug_type = bug_type
        self.bug_description = bug_description


class Scenario:
    """Benchmark unit: a trace and its ground truth, ids resolved."""

    __slots__ = ("trace", "ground_truth")
    __eq__ = _same_fields

    def __init__(self, trace: ExecutionTrace, ground_truth: GroundTruth) -> None:
        n = len(trace)
        for name, value in (
            ("error_node_id", ground_truth.error_node_id),
            ("root_cause_node_id", ground_truth.root_cause_node_id),
        ):
            if not 1 <= value <= n:
                raise InvariantViolation(
                    f"ground_truth.{name}: {value} does not resolve within the "
                    f"{n}-step trace"
                )
        self.trace = trace
        self.ground_truth = ground_truth


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


# A ``\uD800`` to ``\uDFFF`` escape. Text decoded as UTF-8 holds no
# surrogate code point, so an escape is the only way one gets into a file.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F][0-9a-fA-F]{2}")
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")


def _lone_surrogate_path(obj) -> str | None:
    """The path of the first key or string in ``obj`` that holds a lone
    surrogate, which no UTF-8 writer can encode. Decoding joins every valid
    pair into one code point, so any surrogate left is lone. Iterative, so
    that nesting ``json`` accepted cannot overflow the stack here."""
    stack = [("", obj)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, str):
            if _SURROGATE_RE.search(value):
                return path or "top level"
        elif isinstance(value, dict):
            for key in value:
                if _SURROGATE_RE.search(key):
                    return f"{path or 'top level'}: key {key!r}"
            stack.extend(
                (f"{path}.{key}" if path else key, item)
                for key, item in reversed(value.items())
            )
        elif isinstance(value, list):
            stack.extend((f"{path}[{i}]", item) for i, item in reversed(list(enumerate(value))))
    return None


def load_json_object(data: bytes | str | dict) -> dict:
    """Decode UTF-8 JSON whose top level must be an object; an already
    decoded object passes through.

    Keys and strings holding a lone surrogate are rejected:
    ``"\\ud800"`` is valid JSON, but no UTF-8 writer can encode it. One
    regex search over the text finds every surrogate escape, and the
    decoded object is walked only when it hits (a valid pair or an escaped
    backslash also hits), so a clean file costs that one search.
    """
    if isinstance(data, dict):
        return data
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedJson(f"input is not valid UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except RecursionError:
        raise MalformedJson("nesting too deep") from None
    except ValueError as exc:
        # JSONDecodeError, or an integer past the interpreter's digit limit.
        raise MalformedJson(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaViolation("top level: expected JSON object")
    if _SURROGATE_ESCAPE_RE.search(data):
        path = _lone_surrogate_path(obj)
        if path is not None:
            raise SchemaViolation(f"{path}: lone surrogate in string")
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


def content_key(trace: ExecutionTrace) -> str:
    """SHA-256 hex digest of the trace's content, its scenario id left out.

    Blinding renames only the id, so a trace and its blind copy share the
    key. The encoding is part of the key: changing it redraws ``random`` and
    orphans every fixture file. Compact ``json.dumps`` keeps json's C
    encoder, which the indent of ``canonical_json_bytes`` turns off.
    """
    obj = trace_to_obj(trace)
    obj["scenario_id"] = ""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def canonical_json_bytes(obj: object) -> bytes:
    """Canonical encoding: sorted keys, two-space indent, trailing newline."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def steps_json(trace: ExecutionTrace) -> str:
    """The trace's steps list in the canonical encoding, at depth 0 and
    without the trailing newline: the part of a trace file that
    ``trace_file`` takes ready-made, so that one encoding serves a trace's
    annotated and blind files."""
    return json.dumps(
        [_step_to_obj(s) for s in trace.steps], sort_keys=True, indent=2, ensure_ascii=False
    )


def trace_file(
    trace: ExecutionTrace,
    steps: str,
    scenario_id: str | None = None,
    ground_truth: GroundTruth | None = None,
) -> bytes:
    """The canonical file of ``trace`` (``canonical_json_bytes`` of its
    object), renamed to ``scenario_id`` when one is given and annotated with
    ``ground_truth`` when one is given. ``steps`` is ``steps_json(trace)``,
    re-indented to depth 1 and put last (the module docstring says why that
    is exact)."""
    head: dict = {
        "scenario_id": trace.scenario_id if scenario_id is None else scenario_id,
        "domain": trace.domain,
        "agents": list(trace.agents),
    }
    if ground_truth is not None:
        head["ground_truth"] = {
            "error_node_id": ground_truth.error_node_id,
            "root_cause_node_id": ground_truth.root_cause_node_id,
            "bug_type": ground_truth.bug_type,
            "bug_description": ground_truth.bug_description,
        }
    text = json.dumps(head, sort_keys=True, indent=2, ensure_ascii=False)
    steps = steps.replace("\n", "\n  ")
    return f'{text[:-2]},\n  "steps": {steps}\n}}\n'.encode("utf-8")


def serialize_scenario(scenario: Scenario) -> bytes:
    """Canonical bytes such that ``parse_scenario`` round-trips identically."""
    trace = scenario.trace
    return trace_file(trace, steps_json(trace), ground_truth=scenario.ground_truth)


def serialize_trace(trace: ExecutionTrace) -> bytes:
    """Canonical bytes for a blind (annotation-free) trace."""
    return trace_file(trace, steps_json(trace))

"""Schema parsing, invariants, and canonical serialization."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import replace
from tracefault import model
from tracefault.errors import InvariantViolation, MalformedJson, SchemaViolation
from tracefault.model import (
    ExecutionTrace,
    GroundTruth,
    Scenario,
    Step,
    canonical_json_bytes,
    content_key,
    parse_scenario,
    parse_trace,
    parse_trace_blind,
    serialize_scenario,
    serialize_trace,
    steps_json,
    trace_file,
    trace_to_obj,
)


def minimal_scenario_obj():
    return {
        "scenario_id": "cod_034b23",
        "domain": "coding",
        "agents": ["Planner", "Coder", "Reviewer", "Executor"],
        "steps": [
            {
                "step_id": i,
                "agent": agent,
                "action_type": action,
                "input": "...",
                "output": "...",
                "timestamp": f"2026-01-05T10:0{i}:00Z",
            }
            for i, (agent, action) in enumerate(
                [
                    ("Planner", "plan"),
                    ("Coder", "code"),
                    ("Coder", "code"),
                    ("Reviewer", "review"),
                    ("Executor", "execute"),
                    ("Executor", "execute"),
                    ("Executor", "execute"),
                    ("Executor", "execute"),
                ],
                start=1,
            )
        ],
        "ground_truth": {
            "error_node_id": 8,
            "root_cause_node_id": 3,
            "bug_type": "logic_error",
            "bug_description": "Incorrect comparison operator",
        },
    }


def test_parse_annotated_scenario_shape():
    scenario = parse_scenario(json.dumps(minimal_scenario_obj()).encode())
    assert scenario.trace.scenario_id == "cod_034b23"
    assert scenario.ground_truth.root_cause_node_id == 3
    assert scenario.ground_truth.error_node_id == 8
    assert scenario.ground_truth.bug_type == "logic_error"
    assert len(scenario.trace) == 8


def test_single_step_scenario_is_legal():
    obj = minimal_scenario_obj()
    obj["steps"] = obj["steps"][:1]
    obj["ground_truth"].update({"error_node_id": 1, "root_cause_node_id": 1})
    scenario = parse_scenario(json.dumps(obj).encode())
    assert len(scenario.trace) == 1


def test_root_cause_after_error_rejected():
    obj = minimal_scenario_obj()
    obj["ground_truth"]["root_cause_node_id"] = 9
    obj["ground_truth"]["error_node_id"] = 8
    with pytest.raises(InvariantViolation):
        parse_scenario(json.dumps(obj).encode())


def test_ground_truth_ids_must_resolve():
    obj = minimal_scenario_obj()
    obj["ground_truth"]["error_node_id"] = 99
    obj["ground_truth"]["root_cause_node_id"] = 98
    with pytest.raises(InvariantViolation):
        parse_scenario(json.dumps(obj).encode())


def test_malformed_json():
    with pytest.raises(MalformedJson):
        parse_scenario(b"{not json")
    with pytest.raises(MalformedJson):
        parse_scenario(b"\xff\xfe")
    # ``json.loads`` raises RecursionError and ValueError for these two.
    with pytest.raises(MalformedJson, match="nesting too deep"):
        parse_scenario(b"[" * 100_000)
    with pytest.raises(MalformedJson, match="invalid JSON: Exceeds the limit"):
        parse_scenario(b'{"scenario_id": ' + b"9" * 5000 + b"}")


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda o: o.update(domain="\ud800"), "domain"),
        (lambda o: o["steps"][3].update(output="ok \udfff"), "steps[3].output"),
        (lambda o: o["agents"].append("\udc00"), "agents[4]"),
        (
            lambda o: o["ground_truth"].update(bug_description="\ude00\ud83d"),
            "ground_truth.bug_description",
        ),
        (lambda o: o["steps"][0].update({"\ud800": 1}), "steps[0]: key '\\ud800'"),
    ],
    ids=["domain", "step-output", "agent", "reversed-pair", "key"],
)
def test_lone_surrogate_is_rejected_naming_its_field(mutate, path):
    obj = minimal_scenario_obj()
    mutate(obj)
    # ``json.dumps`` writes each surrogate as a ``\uXXXX`` escape.
    data = json.dumps(obj).encode()
    with pytest.raises(SchemaViolation) as exc:
        parse_scenario(data)
    assert str(exc.value) == f"{path}: lone surrogate in string"


@pytest.mark.parametrize(
    "escape, text",
    [("\\ud83d\\ude00", "\U0001f600"), ("\\uD83D\\uDE00", "\U0001f600"), ("\\\\ud800", "\\ud800")],
    ids=["pair", "upper-case-pair", "escaped-backslash"],
)
def test_surrogate_pairs_and_escaped_backslashes_parse(escape, text):
    obj = minimal_scenario_obj()
    obj["steps"][2]["output"] = "@"
    data = json.dumps(obj).replace('"@"', f'"{escape}"').encode()
    assert parse_scenario(data).trace.step(3).output == text


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o["steps"][0].pop("agent"),
        lambda o: o["steps"][0].update(action_type="daydream"),
        lambda o: o["steps"][0].update(unexpected=1),
        lambda o: o.pop("agents"),
        lambda o: o["ground_truth"].update(bug_type="cosmic_rays"),
    ],
)
def test_schema_violations(mutate):
    obj = minimal_scenario_obj()
    mutate(obj)
    with pytest.raises(SchemaViolation):
        parse_scenario(json.dumps(obj).encode())


def _set(index, **fields):
    return lambda o: o["steps"][index].update(fields)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o["steps"].__setitem__(2, ["step"]), "steps[2]: expected object"),
        (_set(2, unexpected=1), "steps[2]: unexpected field(s) unexpected"),
        (lambda o: o["steps"][2].pop("agent"), "steps[2].agent: missing required field"),
        (_set(2, step_id="3"), "steps[2].step_id: expected <class 'int'>, got str"),
        (_set(2, step_id=True), "steps[2].step_id: expected <class 'int'>, got bool"),
        (_set(2, timestamp=5), "steps[2].timestamp: expected <class 'str'>, got int"),
        (_set(2, output=None), "steps[2].output: expected <class 'str'>, got NoneType"),
        (_set(2, produces="x"), "steps[2].produces: expected list of strings"),
        (_set(2, consumes=["x", 1]), "steps[2].consumes: expected list of strings"),
        (_set(2, confidence="high"), "steps[2].confidence: expected number"),
        pytest.param(
            _set(2, confidence=True),
            "steps[2].confidence: expected number",
            id="bool-confidence",
        ),
        # Two faults: the extra field is reported before the missing one.
        (
            lambda o: (o["steps"][2].pop("agent"), o["steps"][2].update(zz=1, aa=2)),
            "steps[2]: unexpected field(s) aa, zz",
        ),
    ],
)
def test_step_fault_messages(mutate, message):
    obj = minimal_scenario_obj()
    mutate(obj)
    with pytest.raises(SchemaViolation) as info:
        parse_scenario(json.dumps(obj).encode())
    assert str(info.value) == message


def test_step_fields_of_a_str_subtype_still_parse():
    class Label(str):
        pass

    obj = minimal_scenario_obj()
    obj["steps"][0].update(agent=Label("Planner"), produces=[Label("x")])
    step = parse_scenario(obj).trace.steps[0]
    assert (step.agent, step.produces) == ("Planner", ("x",))


def test_step_id_contiguity_enforced():
    obj = minimal_scenario_obj()
    obj["steps"][3]["step_id"] = 7
    with pytest.raises(InvariantViolation):
        parse_scenario(json.dumps(obj).encode())


def test_confidence_range_enforced():
    obj = minimal_scenario_obj()
    obj["steps"][0]["confidence"] = 1.5
    with pytest.raises(InvariantViolation):
        parse_scenario(json.dumps(obj).encode())


def test_blind_parser_accepts_plain_trace():
    obj = minimal_scenario_obj()
    obj.pop("ground_truth")
    obj["steps"] = obj["steps"][:5]
    trace = parse_trace_blind(json.dumps(obj).encode())
    assert len(trace) == 5


def test_blind_parser_rejects_ground_truth():
    with pytest.raises(SchemaViolation):
        parse_trace_blind(json.dumps(minimal_scenario_obj()).encode())


def test_serialize_round_trip_identity():
    scenario = parse_scenario(json.dumps(minimal_scenario_obj()).encode())
    data = serialize_scenario(scenario)
    assert parse_scenario(data) == scenario
    assert serialize_scenario(parse_scenario(data)) == data


def test_optional_fields_omitted_not_null():
    scenario = parse_scenario(json.dumps(minimal_scenario_obj()).encode())
    data = serialize_scenario(scenario).decode()
    assert "null" not in data
    assert '"confidence"' not in data
    assert data.endswith("\n")


def test_optional_fields_survive_round_trip():
    obj = minimal_scenario_obj()
    obj["steps"][1]["confidence"] = 0.75
    obj["steps"][1]["produces"] = ["draft"]
    obj["steps"][2]["consumes"] = ["draft"]
    scenario = parse_scenario(json.dumps(obj).encode())
    again = parse_scenario(serialize_scenario(scenario))
    assert again.trace.step(2).confidence == 0.75
    assert again.trace.step(2).produces == ("draft",)
    assert again.trace.step(3).consumes == ("draft",)
    assert again == scenario


def test_blind_trace_serialization_round_trip():
    obj = minimal_scenario_obj()
    obj.pop("ground_truth")
    trace = parse_trace_blind(json.dumps(obj).encode())
    data = serialize_trace(trace)
    assert parse_trace_blind(data) == trace
    assert "ground_truth" not in json.loads(data)


# Any text a UTF-8 file can hold: newlines, quotes, backslashes, control
# and non-ASCII characters, U+2028; no surrogates.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def traces(draw):
    agents = draw(st.lists(_TEXT, min_size=1, max_size=3, unique=True))
    names = st.none() | st.lists(_TEXT, max_size=2).map(tuple)
    steps = tuple(
        Step(
            step_id=i,
            agent=draw(st.sampled_from(agents)),
            action_type=draw(st.sampled_from(sorted(model.ACTION_TYPES))),
            input=draw(_TEXT),
            output=draw(_TEXT),
            timestamp=draw(_TEXT),
            confidence=draw(st.none() | st.floats(0.0, 1.0)),
            produces=draw(names),
            consumes=draw(names),
        )
        for i in range(1, draw(st.integers(1, 4)) + 1)
    )
    return ExecutionTrace(draw(_TEXT), draw(_TEXT), tuple(agents), steps)


@settings(max_examples=200, deadline=None)
@given(trace=traces(), renamed=st.none() | _TEXT, description=st.none() | _TEXT)
def test_trace_file_is_the_canonical_encoding_of_the_trace_object(trace, renamed, description):
    # ``trace_file`` re-indents the depth-0 steps text; the reference encodes
    # the whole object with ``canonical_json_bytes``.
    obj = trace_to_obj(trace)
    if renamed is not None:
        obj["scenario_id"] = renamed
    truth = None
    if description is not None:
        truth = GroundTruth(len(trace), 1, "logic_error", description)
        obj["ground_truth"] = {
            "error_node_id": len(trace),
            "root_cause_node_id": 1,
            "bug_type": "logic_error",
            "bug_description": description,
        }
    expected = canonical_json_bytes(obj)
    assert trace_file(trace, steps_json(trace), renamed, truth) == expected


def test_agent_not_in_roster_rejected():
    obj = minimal_scenario_obj()
    obj["steps"][0]["agent"] = "Ghost"
    with pytest.raises(InvariantViolation):
        parse_scenario(json.dumps(obj).encode())


def test_fixture_files_parse(example1_bytes, example2_bytes):
    one = parse_scenario(example1_bytes)
    two = parse_scenario(example2_bytes)
    assert one.ground_truth.root_cause_node_id == 3
    assert two.ground_truth.root_cause_node_id == 3
    assert len(one.trace) == 5
    assert len(two.trace) == 6


def test_direct_construction_validates():
    with pytest.raises(InvariantViolation):
        Step(step_id=0, agent="A", action_type="plan", input="", output="", timestamp="t")
    with pytest.raises(SchemaViolation):
        GroundTruth(error_node_id=3, root_cause_node_id=1, bug_type="nope", bug_description="")
    step = Step(step_id=1, agent="A", action_type="plan", input="", output="", timestamp="t")
    trace = ExecutionTrace(scenario_id="x", domain="d", agents=("A",), steps=(step,))
    gt = GroundTruth(
        error_node_id=1, root_cause_node_id=1, bug_type="logic_error", bug_description=""
    )
    assert Scenario(trace=trace, ground_truth=gt).trace is trace
    assert trace_to_obj(trace)["steps"][0]["step_id"] == 1


@pytest.mark.parametrize(
    "field, message",
    [
        ("step_id", "step_id: expected <class 'int'>, got bool"),
        ("confidence", "steps[1].confidence: expected number"),
    ],
    ids=["step_id", "confidence"],
)
def test_step_rejects_a_boolean_the_parser_would_not_read_back(field, message):
    """A boolean ``step_id`` or ``confidence`` used to be accepted and
    written as ``true``, which the parser then rejected. Now the record
    rejects it with the parser's message, at the record's own path."""
    fields = dict(step_id=1, agent="A", action_type="plan", input="", output="", timestamp="t")
    obj = {"scenario_id": "s", "domain": "d", "agents": ["A"], "steps": [{**fields, field: True}]}
    with pytest.raises(SchemaViolation) as parsed:
        parse_trace_blind(json.dumps(obj))
    with pytest.raises(SchemaViolation) as built:
        Step(**{**fields, field: True})
    assert str(built.value) == message
    assert message.endswith(str(parsed.value).split(".", 1)[1])


@pytest.mark.parametrize("annotated", [True, False], ids=["annotated", "blind"])
def test_parse_trace_decodes_json_once(monkeypatch, example1_bytes, annotated):
    scenario = parse_scenario(example1_bytes)
    data = example1_bytes if annotated else serialize_trace(scenario.trace)
    loads, calls = json.loads, []

    def counting_loads(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(model.json, "loads", counting_loads)
    assert parse_trace(data) == scenario.trace
    assert len(calls) == 1


STEP_CHANGES = {
    "agent": "Planner",
    "action_type": "review",
    "input": "Add edge case handling",
    "output": "if nums == []:",
    "timestamp": "2026-01-05T10:02:01Z",
    "confidence": 0.5,
    "produces": (),
    "consumes": ("calc_requirements",),
}


def test_content_key_is_a_sha256_hex_digest_blind_to_the_scenario_id(example1_bytes):
    trace = parse_scenario(example1_bytes).trace
    key = content_key(trace)
    assert re.fullmatch("[0-9a-f]{64}", key)
    assert content_key(replace(trace, scenario_id="00c3d517ff6b")) == key
    assert content_key(parse_trace_blind(serialize_trace(trace))) == key


@pytest.mark.parametrize(
    "change",
    [
        lambda t: replace(t, domain="data_analysis"),
        lambda t: replace(t, agents=tuple(reversed(t.agents))),
    ]
    + [
        # A step id is fixed by its position, so it cannot change alone.
        lambda t, field=field, value=value: replace(
            t, steps=(*t.steps[:2], replace(t.steps[2], **{field: value}), *t.steps[3:])
        )
        for field, value in STEP_CHANGES.items()
    ],
    ids=["domain", "agents", *(f"step-{field}" for field in STEP_CHANGES)],
)
def test_content_key_changes_with_any_content(example1_bytes, change):
    trace = parse_scenario(example1_bytes).trace
    changed = change(trace)
    assert changed != trace
    assert content_key(changed) != content_key(trace)

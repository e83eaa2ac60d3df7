"""CLI exit codes: 3 for unreadable input (naming the file), 2 for usage errors,
plus the subcommands' outputs and the modules they load."""

import errno
import hashlib
import inspect
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import tracefault
from conftest import FIXTURES
from tracefault import cli, ranking
from tracefault.cli import main
from tracefault.errors import TracefaultError, VerificationFailed
from tracefault.model import content_key, parse_scenario


def test_analyze_malformed_json_exits_3_naming_the_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"steps": [')
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "command, message",
    [("analyze", "nesting too deep"), ("evaluate", "domain: lone surrogate in string")],
    ids=["deep-nesting", "lone-surrogate"],
)
def test_unwritable_json_exits_3_naming_the_file(
    tmp_path, example1_bytes, capsys, command, message
):
    # Both used to escape as a traceback with exit 1: RecursionError from
    # ``json.loads``, and UnicodeEncodeError when evaluate wrote the domain.
    (tmp_path / "scenarios").mkdir()
    path = tmp_path / "scenarios" / "example1.json"
    if command == "analyze":
        path.write_bytes(b"[" * 100_000)
        argv = ["analyze", str(path)]
    else:
        domain = b'"domain": "software_development"'
        path.write_bytes(example1_bytes.replace(domain, b'"domain": "\\ud800"'))
        argv = ["evaluate", str(tmp_path), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err
    assert message in err


def test_analyze_non_object_exits_3(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["analyze", str(path)]) == 3
    assert str(path) in capsys.readouterr().err


def test_analyze_missing_file_exits_3(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main(["analyze", str(path)]) == 3
    assert str(path) in capsys.readouterr().err


def test_analyze_annotated_scenario(tmp_path, example1_bytes):
    path = tmp_path / "example1.json"
    path.write_bytes(example1_bytes)
    out = tmp_path / "analysis.json"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["candidates"][0]["step_id"] == 3


@pytest.mark.parametrize("node", ["0", "-3"])
def test_analyze_error_node_outside_graph_exits_3(example1_path, capsys, node):
    # The membership check runs before any bit shift: ``1 << -3`` would
    # raise ValueError and end in a traceback with exit 1.
    assert main(["analyze", str(example1_path), "--error-node", node]) == 3
    err = capsys.readouterr().err
    assert f"error node {node} not in graph" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "t.json", "--max-depth", "0"], "--max-depth: must be >= 1"),
        (["analyze", "t.json", "--max-depth", "-2"], "--max-depth: must be >= 1"),
        (["evaluate", "b", "--max-depth", "0"], "--max-depth: must be >= 1"),
        (["learn-weights", "v", "--max-depth", "-1"], "--max-depth: must be >= 1"),
        (["evaluate", "b", "--bootstrap-b", "0"], "unrecognized arguments: --bootstrap-b 0"),
        (
            ["evaluate", "b", "--bootstrap-b", "10", "--bootstrap-seed", "9"],
            "unrecognized arguments: --bootstrap-b 10 --bootstrap-seed 9",
        ),
        (["evaluate", "b", "--methods", "bogus"], "--methods: unknown method bogus"),
        (["evaluate", "b", "--methods", ","], "--methods: no method given"),
        (["evaluate", "b", "--methods", "last,last"], "--methods: method given twice"),
        (["analyze", "t.json", "--max-depth", "abc"], "--max-depth: not an integer: 'abc'"),
        (["bench"], "invalid choice: 'bench'"),
        (["evaluate", "b", "--eval-seed", "5"], "unrecognized arguments: --eval-seed 5"),
        (["evaluate", "b", "--methods", "tracefault,llm"], "--methods llm needs --llm-fixture"),
    ],
    ids=[
        "analyze-max-depth-0",
        "analyze-max-depth-negative",
        "evaluate-max-depth-0",
        "learn-weights-max-depth-negative",
        "bootstrap-b-0",
        "bootstrap-b-removed",
        "unknown-method",
        "no-method",
        "repeated-method",
        "max-depth-not-int",
        "bench-removed",
        "eval-seed-removed",
        "llm-without-fixture",
    ],
)
def test_bad_flag_values_exit_2_with_a_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_unset_evaluate_flags_take_the_evaluate_defaults(monkeypatch, tmp_path, example1_bytes):
    from tracefault import evaluation

    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "example1.json").write_bytes(example1_bytes)
    seen = []
    signature = inspect.signature(evaluation.evaluate)

    def stop(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments)
        raise TracefaultError("stop")

    monkeypatch.setattr(evaluation, "evaluate", stop)
    assert main(["evaluate", str(tmp_path)]) == 3
    assert main(["evaluate", str(tmp_path), "--methods", "last, first"]) == 3
    defaults, given = ({k: call[k] for k in ("methods", "max_depth")} for call in seen)
    assert defaults == {
        "methods": ("tracefault", "random", "first", "last"),
        "max_depth": ranking.DEFAULT_MAX_DEPTH,
    }
    assert given == {"methods": ("last", "first"), "max_depth": ranking.DEFAULT_MAX_DEPTH}


def test_evaluate_rejects_removed_jobs_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2


@pytest.fixture()
def example1_path(tmp_path, example1_bytes):
    path = tmp_path / "example1.json"
    path.write_bytes(example1_bytes)
    return path


def test_analyze_partial_weights_exits_3_naming_the_file(tmp_path, example1_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text('{"position": 0.7}')
    assert main(["analyze", str(example1_path), "--weights", str(weights)]) == 3
    err = capsys.readouterr().err
    assert str(weights) in err
    assert "structure" in err


@pytest.mark.parametrize("flag", ["--weights", "--feature-config"])
def test_analyze_truncated_input_json_exits_3_naming_the_file(
    tmp_path, example1_path, capsys, flag
):
    path = tmp_path / "truncated.json"
    path.write_text('{"position": ')
    assert main(["analyze", str(example1_path), flag, str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "value, message",
    [
        (math.nan, "weight position must be a number in [0, 1], got nan"),
        (math.inf, "weight position must be a number in [0, 1], got inf"),
        (-0.1, "weight position must be a number in [0, 1], got -0.1"),
        (True, "weight position must be a number in [0, 1], got True"),
        ("0.7", "weight position must be a number in [0, 1], got '0.7'"),
    ],
    ids=["nan", "infinite", "negative", "boolean", "string"],
)
def test_analyze_invalid_weight_exits_3_naming_the_file(
    tmp_path, example1_path, capsys, value, message
):
    weights = tmp_path / "weights.json"
    rest = {"structure": 0.2, "content": 0.05, "flow": 0.03, "confidence": 0.02}
    weights.write_text(json.dumps({"position": value, **rest}))
    assert main(["analyze", str(example1_path), "--weights", str(weights)]) == 3
    err = capsys.readouterr().err
    assert str(weights) in err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"orientation": {"betweeness": -1}}, "orientation for unknown features: ['betweeness']"),
        ({"orientation": {"hedging_score": 1.9}}, "orientation for 'hedging_score' must be +1 or -1"),
        ({"orientation": {"hedging_score": True}}, "orientation for 'hedging_score' must be +1 or -1"),
        ({"error_keyword": ["x"]}, "unknown keys: ['error_keyword']"),
        ({"error_keywords": "error"}, "error_keywords must be a list of strings"),
        ({"default_role_weight": 7.5}, "default_role_weight must be a number in [0, 1], got 7.5"),
        ({"default_role_weight": True}, "default_role_weight must be a number in [0, 1], got True"),
        ({"default_role_weight": math.nan}, "default_role_weight must be a number in [0, 1]"),
        ({"role_weights": {"Planner": True}}, "role weight for 'Planner' must be a number in"),
        ({"role_weights": {"coder": math.nan}}, "role weight for 'coder' must be a number in"),
    ],
    ids=[
        "misspelled-feature",
        "fractional-sign",
        "boolean-sign",
        "unknown-key",
        "string-keywords",
        "default-role-weight-above-one",
        "boolean-default-role-weight",
        "nan-default-role-weight",
        "boolean-role-weight",
        "nan-role-weight",
    ],
)
def test_analyze_invalid_feature_config_exits_3_naming_the_file(
    tmp_path, example1_path, capsys, config, message
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["analyze", str(example1_path), "--feature-config", str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert message in err
    assert "Traceback" not in err


def test_analyze_accepts_a_partial_feature_config(tmp_path, example1_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"orientation": {"stated_confidence": 1}, "hedge_words": ["may"]}))
    out = tmp_path / "analysis.json"
    argv = ["analyze", str(example1_path), "--feature-config", str(path), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["candidates"]


@pytest.mark.parametrize("names", [["example1"], ["example1", "example2"]], ids=["one", "two"])
def test_evaluate_tiny_benchmark_writes_a_report(tmp_path, names):
    (tmp_path / "scenarios").mkdir()
    for name in names:
        data = (FIXTURES / f"{name}.json").read_bytes()
        (tmp_path / "scenarios" / f"{name}.json").write_bytes(data)
    out_dir = tmp_path / "out"
    assert main(["evaluate", str(tmp_path), "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "metrics.json",
        "report.md",
        "significance.json",
    ]
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["scenario_count"] == len(names)
    timings = metrics["component_timings_ms"]
    assert sorted(timings) == [
        "backward_tracing",
        "feature_extraction",
        "graph_construction",
        "node_ranking",
    ]
    assert all(0 <= t["p50"] <= t["p95"] for t in timings.values())


def test_evaluate_blind_answer_without_bug_type_exits_3(tmp_path, example1_bytes, capsys):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "example1.json").write_bytes(example1_bytes)
    assert main(["blind", str(tmp_path)]) == 0
    answers_path = tmp_path / "answers.json"
    answers = json.loads(answers_path.read_text())
    del next(iter(answers.values()))["bug_type"]
    answers_path.write_text(json.dumps(answers))
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["evaluate", str(tmp_path), "--blind", "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert str(answers_path) in err
    assert "bug_type" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"root_cause_node_id": 99}, "root_cause_node_id (99) must not exceed error_node_id"),
        ({"root_cause_node_id": 99, "error_node_id": 99}, "error_node_id: 99 does not resolve"),
        ({"root_cause_node_id": 0}, "root_cause_node_id: 0 does not resolve"),
        ({"root_cause_node_id": "3"}, "root_cause_node_id: expected <class 'int'>, got str"),
        ({"root_cause_node_id": 3.7}, "root_cause_node_id: expected <class 'int'>, got float"),
        ({"error_node_id": True}, "error_node_id: expected <class 'int'>, got bool"),
        ({"bug_type": "typo"}, "bug_type: unknown value 'typo'"),
        (None, "expected object, got list"),
    ],
    ids=[
        "root-after-error",
        "error-outside-trace",
        "root-zero",
        "string-id",
        "fractional-id",
        "boolean-id",
        "unknown-bug-type",
        "non-object",
    ],
)
def test_evaluate_blind_bad_answer_exits_3_naming_the_file_and_id(
    tmp_path, capsys, entry, message
):
    from tracefault.benchgen import generate_benchmark
    from tracefault.model import serialize_scenario

    (tmp_path / "scenarios").mkdir()
    for generated in generate_benchmark(seed=1, counts={"devops_automation": 3}):
        scenario = generated.scenario
        path = tmp_path / "scenarios" / f"{scenario.trace.scenario_id}.json"
        path.write_bytes(serialize_scenario(scenario))
    assert main(["blind", str(tmp_path)]) == 0
    answers_path = tmp_path / "answers.json"
    answers = json.loads(answers_path.read_text())
    blind_id = sorted(answers)[1]
    if entry is None:
        answers[blind_id] = []
    else:
        answers[blind_id].update(entry)
    answers_path.write_text(json.dumps(answers))
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["evaluate", str(tmp_path), "--blind", "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert str(answers_path) in err
    assert f"answer key entry {blind_id!r}" in err
    assert message in err
    assert "Traceback" not in err


def test_analyze_dump_graph_builds_the_graph_once(monkeypatch, example1_path, tmp_path):
    calls = []

    def counting(build):
        def wrapped(trace):
            calls.append(trace.scenario_id)
            return build(trace)
        return wrapped

    monkeypatch.setattr(cli, "build_graph", counting(cli.build_graph))
    monkeypatch.setattr(ranking, "build_graph", counting(ranking.build_graph))
    out = tmp_path / "analysis.json"
    assert main(["analyze", str(example1_path), "--dump-graph", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert json.loads(out.read_text())["graph"]["nodes"] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"sof_example1": ', "invalid JSON"),
        ('["3"]', "expected JSON object"),
        ('{"sof_example1": 3}', "expected string"),
    ],
    ids=["truncated", "top-level-list", "non-string-completion"],
)
def test_evaluate_malformed_llm_fixture_exits_3_naming_the_file(
    tmp_path, example1_bytes, capsys, content, message
):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "example1.json").write_bytes(example1_bytes)
    fixture = tmp_path / "fixture.json"
    fixture.write_text(content)
    argv = ["evaluate", str(tmp_path), "--methods", "tracefault,llm", "--llm-fixture", str(fixture)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert str(fixture) in err
    assert message in err
    assert "Traceback" not in err


def test_evaluate_without_llm_never_reads_the_llm_fixture(tmp_path, example1_bytes):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "example1.json").write_bytes(example1_bytes)
    fixture = tmp_path / "fixture.json"
    fixture.write_text('{"sof_example1": ')
    argv = ["evaluate", str(tmp_path), "--methods", "tracefault", "--llm-fixture", str(fixture)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    assert "llm" not in json.loads((tmp_path / "out" / "metrics.json").read_text())["methods"]


def test_evaluate_id_keyed_llm_fixture_exits_3_naming_the_file_and_key(
    tmp_path, example1_bytes, capsys
):
    # A fixture keyed by scenario id, the format before content keys.
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "example1.json").write_bytes(example1_bytes)
    fixture = tmp_path / "fixture.json"
    fixture.write_text('{"sof_example1": "3"}')
    argv = ["evaluate", str(tmp_path), "--methods", "tracefault,llm", "--llm-fixture", str(fixture)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    key = content_key(parse_scenario(example1_bytes).trace)
    assert f"error: {fixture}: fixture has no completion for scenario 'sof_example1'" in err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
def test_analyze_markdown_keeps_the_group_table(example1_path, capsys, explain):
    argv = ["analyze", str(example1_path), "--markdown"] + (["--explain"] if explain else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    report, end = json.JSONDecoder().raw_decode(out)
    candidates = report["candidates"]
    explained = [{"groups", "contributions"} & c.keys() for c in candidates]
    assert explained == [{"groups", "contributions"} if explain else set()] * len(candidates)
    lines = out[end:].splitlines()
    header = lines.index("| rank | step | score | " + " | ".join(ranking.GROUP_ORDER) + " |")
    rows = [line.strip("| ").split(" | ") for line in lines[header + 2 :] if line]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(c["rank"], c["step_id"]) for c in candidates]
    assert all(len(r) == 3 + len(ranking.GROUP_ORDER) for r in rows)
    if explain:
        for row, cand in zip(rows, candidates):
            assert row[3:] == [f"{cand['groups'][g]:.3f}" for g in ranking.GROUP_ORDER]


def modules_after_main(argv) -> set[str]:
    """Run ``cli.main(argv)`` in a fresh interpreter; return the names in
    ``sys.modules`` once it exits 0."""
    code = (
        "import json, sys\n"
        "from tracefault import cli\n"
        f"assert cli.main({list(argv)!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = str(Path(tracefault.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


# Costly to import, and the records need neither.
COLD_START_FREE = ("dataclasses", "inspect")


def test_analyze_never_loads_numpy(example1_path, tmp_path):
    modules = modules_after_main(["analyze", str(example1_path), "--out", str(tmp_path / "a.json")])
    assert "tracefault.ranking" in modules
    assert "numpy" not in modules
    assert not modules.intersection(COLD_START_FREE)
    for name in ("evaluation", "benchgen", "baselines", "weights", "stats"):
        assert f"tracefault.{name}" not in modules


def test_generate_never_loads_feature_or_ranking_code(tmp_path):
    modules = modules_after_main(["generate", "--seed", "1", "--out", str(tmp_path / "bench")])
    assert (tmp_path / "bench" / "manifest.json").exists()
    assert "tracefault.benchgen" in modules
    for name in ("features", "ranking", "evaluation", "baselines", "weights", "stats"):
        assert f"tracefault.{name}" not in modules
    assert not modules.intersection(COLD_START_FREE)


def test_blind_loads_no_cold_start_module(tmp_path, example1_bytes):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "example1.json").write_bytes(example1_bytes)
    modules = modules_after_main(["blind", str(tmp_path)])
    assert (tmp_path / "answers.json").exists()
    assert "tracefault.benchgen" in modules
    assert not modules.intersection(COLD_START_FREE)


def test_evaluate_never_loads_benchgen(tmp_path, example1_bytes):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "example1.json").write_bytes(example1_bytes)
    out_dir = tmp_path / "out"
    modules = modules_after_main(
        ["evaluate", str(tmp_path), "--methods", "tracefault", "--out-dir", str(out_dir)]
    )
    assert (out_dir / "metrics.json").exists()
    assert "tracefault.evaluation" in modules
    assert "tracefault.benchgen" not in modules


def test_evaluate_never_loads_numpy(tmp_path, example1_bytes):
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "example1.json").write_bytes(example1_bytes)
    out_dir = tmp_path / "out"
    modules = modules_after_main(["evaluate", str(tmp_path), "--out-dir", str(out_dir)])
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert all("hit_at_1_ci95" in block for block in metrics["methods"].values())
    assert "tracefault.stats" in modules
    assert "numpy" not in modules
    assert not modules.intersection(COLD_START_FREE)


def test_learn_weights_never_loads_numpy(tmp_path, example1_bytes, example2_bytes):
    validation = tmp_path / "validation"
    validation.mkdir()
    (validation / "example1.json").write_bytes(example1_bytes)
    (validation / "example2.json").write_bytes(example2_bytes)
    out = tmp_path / "weights.json"
    modules = modules_after_main(["learn-weights", str(validation), "--out", str(out)])
    assert json.loads(out.read_text())["evaluated_points"] > 0
    assert "tracefault.weights" in modules
    assert "numpy" not in modules
    assert not modules.intersection(COLD_START_FREE)


# SHA-256 of the weights.json that ``learn-weights`` writes from the
# validation split of ``generate --seed <seed>``.
LEARNED_WEIGHTS_SHA256 = {
    42: "2a37d258e15608f99c7ad8dd632fbea5550519faf2da13c7b7ec25c05ac359fd",
    7: "4879169993f3931b5c900e6ca8385c34da6fe51c26017dc365c64883b0551566",
    1: "a69a12411a088311ebf14d8e46829f76e3ac276f342ed42ea9a4dcdaeae57f7f",
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """``generated(seed)``: the directory ``generate --seed seed`` wrote,
    run once per seed and module."""
    dirs = {}

    def at(seed: int) -> Path:
        if seed not in dirs:
            dirs[seed] = tmp_path_factory.mktemp(f"seed{seed}")
            assert main(["generate", "--seed", str(seed), "--out", str(dirs[seed])]) == 0
        return dirs[seed]

    return at


@pytest.mark.parametrize("seed", sorted(LEARNED_WEIGHTS_SHA256))
def test_learn_weights_output_is_pinned(generated, tmp_path, seed):
    out = tmp_path / "weights.json"
    assert main(["learn-weights", str(generated(seed) / "validation"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LEARNED_WEIGHTS_SHA256[seed]


# SHA-256 of each entry ``generate --seed <seed>`` writes. A split
# directory's digest is that of its sorted ``<name> <file sha256>`` lines.
GENERATED_TREE_SHA256 = {
    42: {
        "answers.json": "04ab4d14b81f2857793d71d397f9c26a0e5913f6031c1b5de056c1bf39829a54",
        "blind/": "3a85799caf4d118052618bf70810a6f0e62382c8e0ef692dcec193e256a6d8c6",
        "manifest.json": "b41115b6659a2019bad253566f341f61c85b7a4d72f83e2ec68da7833e75cbd5",
        "scenarios/": "50824716a90ed7d28bd17a634ffbd535e68f7007035de491a32f3bf3b183f166",
        "validation/": "213c694acfa64dac2a98128ae1d41c1e7d8bad217e36ad0b468dbb19877f2fd3",
    },
    7: {
        "answers.json": "b2e8a98892083713d7d938f7215f31a2b6851f58c34c9ea303193c325b268625",
        "blind/": "1cd09c788bdfdfd3ffe2ff2db2476ca568c339ae34b463854f3494e6f7c43f06",
        "manifest.json": "c278f7114b6309b8f4fabceaadd52cfb991fc6828db04702934ab5c89cbbc6d6",
        "scenarios/": "2c35661793b6b2541a62d8a08a98e87e0316b77c1d82efe315a9e24e8361e66c",
        "validation/": "0eac026b7be11058ab621068bb654a0dd7164327a820d9cb2218098211957f94",
    },
    1: {
        "answers.json": "ce34f7d699d979715a493c5ee2a21953d4467af9aad6c4298453fd52d29cd3d8",
        "blind/": "3217323b1e4872855c5649e11e9656eb982b0ff9279e3aff94b4b6088c41579c",
        "manifest.json": "2fd75964cd965bdb1b1694bcd56c4b4081844f4975a99755f5b4b4c707c15925",
        "scenarios/": "35c38f200276f2b95bae7cb977b0b52195e6bb1aea226372ba9a3c9c27b8dee8",
        "validation/": "36694a9620d9c4ce4a12012394bbf0e32a5ec1de9a8c53c0bcf48059a67d3ae2",
    },
}


def tree_sha256(bench: Path) -> dict[str, str]:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    digests = {}
    for entry in sorted(bench.iterdir()):
        if entry.is_dir():
            lines = "".join(f"{p.name} {sha(p.read_bytes())}\n" for p in sorted(entry.iterdir()))
            digests[f"{entry.name}/"] = sha(lines.encode())
        else:
            digests[entry.name] = sha(entry.read_bytes())
    return digests


@pytest.mark.parametrize("seed", sorted(GENERATED_TREE_SHA256))
def test_generated_tree_is_pinned(generated, seed):
    assert tree_sha256(generated(seed)) == GENERATED_TREE_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(LEARNED_WEIGHTS_SHA256))
def test_generated_errors_manifest_at_the_final_step(generated, seed):
    # Evaluation and learn-weights anchor at the final step; on generated
    # data that is the annotated error node.
    for split in ("scenarios", "validation"):
        paths = sorted((generated(seed) / split).glob("*.json"))
        assert paths, split
        for path in paths:
            scenario = parse_scenario(path.read_bytes())
            assert scenario.ground_truth.error_node_id == len(scenario.trace), path.name


def split_files(bench: Path, split: str) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in (bench / split).iterdir()}


def test_generate_over_another_seed_replaces_every_split(generated, tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(generated(42), bench)
    assert main(["generate", "--seed", "7", "--out", str(bench)]) == 0
    for split in ("scenarios", "blind", "validation"):
        assert split_files(bench, split) == split_files(generated(7), split), split
    manifest = json.loads((bench / "manifest.json").read_text())
    for flags in ([], ["--blind"]):
        out_dir = tmp_path / f"out{len(flags)}"
        argv = ["evaluate", str(bench), *flags, "--methods", "tracefault"]
        assert main([*argv, "--out-dir", str(out_dir)]) == 0, flags
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["scenario_count"] == manifest["scenario_count"], flags


def test_blind_with_another_salt_replaces_the_blind_split(tmp_path):
    from tracefault.benchgen import generate_benchmark
    from tracefault.model import serialize_scenario

    (tmp_path / "scenarios").mkdir()
    for generated in generate_benchmark(seed=1, counts={"devops_automation": 3}):
        scenario = generated.scenario
        path = tmp_path / "scenarios" / f"{scenario.trace.scenario_id}.json"
        path.write_bytes(serialize_scenario(scenario))
    assert main(["blind", str(tmp_path)]) == 0
    assert main(["blind", str(tmp_path), "--salt", "other"]) == 0
    answers = json.loads((tmp_path / "answers.json").read_text())
    assert sorted(path.stem for path in (tmp_path / "blind").iterdir()) == sorted(answers)
    out_dir = tmp_path / "out"
    assert main(["evaluate", str(tmp_path), "--blind", "--out-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "metrics.json").read_text())["scenario_count"] == 3


def test_generate_failing_partway_leaves_the_benchmark_as_it_was(
    generated, tmp_path, monkeypatch, capsys
):
    # One run fails in verification, before anything is written; one while
    # staging the scenario split, once 300 files are in the staging
    # directory; one when the old scenario split cannot be moved aside.
    # Each time every split keeps its old bytes, no staging directory is
    # left beside them and the error reported is the one that happened.
    from tracefault import benchgen

    bench = tmp_path / "bench"
    shutil.copytree(generated(42), bench)
    before = tree_sha256(bench)

    def failing_at(call, original, exc):
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise exc
            return original(*args, **kwargs)

        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(
            benchgen,
            "verify_ground_truth",
            failing_at(100, benchgen.verify_ground_truth, VerificationFailed("injected")),
        )
        assert main(["generate", "--seed", "7", "--out", str(bench)]) == 3
    assert "error: injected" in capsys.readouterr().err
    assert tree_sha256(bench) == before

    with monkeypatch.context() as patch:
        patch.setattr(cli, "trace_file", failing_at(300, cli.trace_file, OSError("injected")))
        assert main(["generate", "--seed", "7", "--out", str(bench)]) == 3
    assert "io error: injected" in capsys.readouterr().err
    assert tree_sha256(bench) == before

    with monkeypatch.context() as patch:
        busy = OSError(errno.EBUSY, "injected busy")
        patch.setattr(os, "rename", failing_at(1, os.rename, busy))
        assert main(["generate", "--seed", "7", "--out", str(bench)]) == 3
    assert "io error: [Errno 16] injected busy" in capsys.readouterr().err
    assert tree_sha256(bench) == before


def test_generate_into_a_symlinked_split_replaces_the_link_target(generated, tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(generated(42), bench)
    target = tmp_path / "elsewhere"
    (bench / "scenarios").rename(target)
    (target / "notes.txt").write_text("kept by hand\n")
    (bench / "scenarios").symlink_to(target)
    assert main(["generate", "--seed", "7", "--out", str(bench)]) == 0
    assert (bench / "scenarios").is_symlink()
    assert (bench / "scenarios").resolve() == target.resolve()
    assert split_files(bench, "scenarios") == split_files(generated(7), "scenarios")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench", "elsewhere"]
    assert tree_sha256(bench) == tree_sha256(generated(7))


def test_output_files_take_the_umask(tmp_path, example1_bytes):
    # Files are created with mode 0666 and directories with 0777, less the
    # umask; a temporary file's 0600 must not leak into any output.
    (tmp_path / "input.json").write_bytes(example1_bytes)
    out = tmp_path / "out"
    bench = out / "bench"
    commands = [
        ["generate", "--seed", "1", "--out", str(bench)],
        ["blind", str(bench), "--salt", "other"],
        ["analyze", str(tmp_path / "input.json"), "--out", str(out / "analysis.json")],
        ["evaluate", str(bench), "--methods", "tracefault", "--out-dir", str(out / "eval")],
        ["learn-weights", str(bench / "validation"), "--out", str(out / "weights.json")],
    ]
    old = os.umask(0o027)
    try:
        for argv in commands:
            assert main(argv) == 0, argv[0]
    finally:
        os.umask(old)
    modes = {
        path.relative_to(out).as_posix(): stat.S_IMODE(path.stat().st_mode)
        for path in out.rglob("*")
    }
    expected = {name: 0o750 if (out / name).is_dir() else 0o640 for name in modes}
    assert modes == expected
    for name in ("bench/scenarios", "bench/blind", "bench/answers.json", "eval/metrics.json"):
        assert name in modes

"""CLI exit codes: 3 for unreadable input (naming the file), 2 for usage errors."""

import json

import pytest

from tracefault.cli import main


def test_analyze_malformed_json_exits_3_naming_the_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"steps": [')
    assert main(["analyze", str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert "invalid JSON" in err


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


def test_evaluate_rejects_removed_jobs_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2

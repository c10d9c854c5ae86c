"""Live reports must validate against the committed JSON schemas."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from slopscope.cli import main

from conftest import build_history_repo, drop_blob, write_tree

SCHEMA_DIR = Path(__file__).parent.parent / "docs" / "schema"

SLOPPY_TREE = {
    "app.py": """\
        def pick(flags):
            chosen = [f for f in flags]
            if len(chosen) == 0:
                return None
            return chosen[0]
        """,
    "other.py": """\
        def select(marks):
            taken = [m for m in marks]
            if len(taken) == 0:
                return None
            return taken[0]
        """,
}


def _load_schema(name: str):
    with open(SCHEMA_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def _registry():
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text(encoding="utf-8"))
        resource = Resource.from_contents(schema)
        resources.append((path.name, resource))
        resources.append((schema["$id"], resource))
    return Registry().with_resources(resources)


def _validator(name: str):
    schema = _load_schema(name)
    try:
        return jsonschema.Draft202012Validator(schema, registry=_registry())
    except TypeError:  # older jsonschema without the referencing API
        resolver = jsonschema.RefResolver(
            base_uri=f"{SCHEMA_DIR.as_uri()}/", referrer=schema
        )
        return jsonschema.Draft202012Validator(schema, resolver=resolver)


def _run_json(capsys, *argv: str) -> dict:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_scan_report_validates(capsys, tmp_path):
    write_tree(tmp_path, SLOPPY_TREE)
    report = _run_json(capsys, "scan", str(tmp_path), "--sweep", "--deterministic")
    _validator("scan_report.schema.json").validate(report)


def test_scan_report_with_a_skipped_link_validates(capsys, tmp_path):
    write_tree(tmp_path, SLOPPY_TREE)
    (tmp_path / "link.py").symlink_to(tmp_path / "app.py")
    report = _run_json(capsys, "scan", str(tmp_path), "--deterministic")
    assert {"path": "link.py", "reason": "symlink"} in report["payload"]["inventory"]["skipped"]
    _validator("scan_report.schema.json").validate(report)


def test_scan_report_with_timestamp_validates(capsys, tmp_path):
    write_tree(tmp_path, SLOPPY_TREE)
    report = _run_json(capsys, "scan", str(tmp_path))
    _validator("scan_report.schema.json").validate(report)


def test_rule_matches_validate(capsys, tmp_path):
    write_tree(tmp_path, SLOPPY_TREE)
    report = _run_json(capsys, "scan", str(tmp_path), "--deterministic")
    validator = _validator("rule_match.schema.json")
    matches = report["payload"]["matches"]
    assert matches
    for match in matches:
        validator.validate(match)


def test_history_report_validates(capsys, history_repo):
    report = _run_json(capsys, "history", str(history_repo), "--deterministic")
    _validator("history_report.schema.json").validate(report)


def test_history_report_with_a_skipped_commit_validates(capsys, tmp_path):
    repo = build_history_repo(tmp_path / "repo")
    drop_blob(repo, "HEAD:slop.py")
    report = _run_json(capsys, "history", str(repo), "--deterministic")
    assert len(report["payload"]["skipped_commits"]) == 1  # the last commit added slop.py
    _validator("history_report.schema.json").validate(report)


def test_panel_report_validates(capsys, tmp_path, history_repo):
    config = tmp_path / "panel.yaml"
    config.write_text(f"- {{repo_path: '{history_repo}', repo_id: fixture, stars: 42}}\n")
    report = _run_json(capsys, "panel", str(config), "--deterministic")
    _validator("panel_report.schema.json").validate(report)


def test_panel_report_with_a_failed_repository_validates(capsys, tmp_path, history_repo):
    config = tmp_path / "panel.yaml"
    config.write_text(
        f"- {{repo_path: '{history_repo}', repo_id: fixture, stars: 42}}\n"
        f"- {{repo_path: '{tmp_path / 'ghost'}', repo_id: ghost, stars: 1}}\n"
    )
    report = _run_json(capsys, "panel", str(config), "--deterministic")
    assert [f["repo_id"] for f in report["payload"]["failed"]] == ["ghost"]
    _validator("panel_report.schema.json").validate(report)
    report["payload"]["failed"] = ["ghost"]  # the old shape: ids without reasons
    with pytest.raises(jsonschema.ValidationError):
        _validator("panel_report.schema.json").validate(report)


def test_schema_rejects_malformed_match():
    validator = _validator("rule_match.schema.json")
    match = {"rule_id": "x", "file": "a.py", "start": {"line": 1, "col": 1}, "end": {"line": 1, "col": 2},
             "lines": [1], "captures": {}}
    validator.validate(match)
    with pytest.raises(jsonschema.ValidationError):
        validator.validate({"rule_id": "x", "file": "a.py"})
    with pytest.raises(jsonschema.ValidationError):  # columns are 1-based
        validator.validate({**match, "start": {"line": 1, "col": 0}})

from __future__ import annotations

import json

from slopscope.cli import (
    EXIT_BAD_RULES,
    EXIT_OK,
    EXIT_UNREADABLE,
    EXIT_USAGE,
    RULES_ENV,
    main,
)

from conftest import FIXTURES, write_tree

GOLDEN_TREE = str(FIXTURES / "golden_tree")

SIMPLE_TREE = {
    "app.py": """\
        def pick(flags):
            chosen = [f for f in flags]
            if len(chosen) == 0:
                return None
            return chosen[0]
        """,
}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse paths exit directly
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_scan_ok(self, capsys, tmp_path):
        write_tree(tmp_path, SIMPLE_TREE)
        code, out, _ = run_cli(capsys, "scan", str(tmp_path))
        assert code == EXIT_OK
        assert json.loads(out)["payload_type"] == "ScanReport"

    def test_scan_empty_directory_is_ok(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "scan", str(tmp_path))
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["verbosity"]["score"] == 0.0

    def test_usage_error(self, capsys, tmp_path):
        for argv in (["scan"], ["scan", str(tmp_path), "--jobs", "2"]):
            code, _, _ = run_cli(capsys, *argv)
            assert code == EXIT_USAGE, argv

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_missing_root(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scan", str(tmp_path / "nope"))
        assert code == EXIT_UNREADABLE
        assert "slopscope:" in err

    def test_history_on_non_repo(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "history", str(tmp_path))
        assert code == EXIT_UNREADABLE

    def test_invalid_rule_file(self, capsys, tmp_path):
        bad = tmp_path / "rules.yaml"
        bad.write_text("- {id: broken, kind: pattern, pattern: 'def ((('}\n")
        write_tree(tmp_path / "tree", SIMPLE_TREE)
        code, _, err = run_cli(capsys, "scan", str(tmp_path / "tree"), "--rules", str(bad))
        assert code == EXIT_BAD_RULES
        assert "broken" in err


class TestScanReport:
    def test_sweep_has_nine_rows(self, capsys, tmp_path):
        write_tree(tmp_path, SIMPLE_TREE)
        code, out, _ = run_cli(capsys, "scan", str(tmp_path), "--sweep")
        assert code == EXIT_OK
        sweep = json.loads(out)["payload"]["sweep"]
        assert len(sweep) == 9
        cells = {(row["cc_cutoff"], row["size_exponent"]) for row in sweep}
        assert cells == {(c, e) for c in (8, 10, 12) for e in (0.0, 0.5, 1.0)}

    def test_matches_embedded_in_report(self, capsys, tmp_path):
        write_tree(tmp_path, SIMPLE_TREE)
        _, out, _ = run_cli(capsys, "scan", str(tmp_path))
        payload = json.loads(out)["payload"]
        rule_ids = {m["rule_id"] for m in payload["matches"]}
        assert "identity-comprehension" in rule_ids

    def test_emit_matches_jsonl(self, capsys, tmp_path):
        write_tree(tmp_path / "tree", SIMPLE_TREE)
        out_file = tmp_path / "matches.jsonl"
        code, _, _ = run_cli(
            capsys, "scan", str(tmp_path / "tree"), "--emit-matches", str(out_file)
        )
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines and all(json.loads(line)["file"] == "app.py" for line in lines)

    def test_csv_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", GOLDEN_TREE, "--format", "csv", "--deterministic"
        )
        assert code == EXIT_OK
        golden = (FIXTURES / "golden_scan.csv").read_text()
        assert out == golden

    def test_out_flag_writes_file(self, capsys, tmp_path):
        write_tree(tmp_path / "tree", SIMPLE_TREE)
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "scan", str(tmp_path / "tree"), "--out", str(dest)
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(dest.read_text())["payload_type"] == "ScanReport"


class TestDeterminism:
    def test_scan_byte_identical(self, capsys, tmp_path):
        write_tree(tmp_path, SIMPLE_TREE)
        outputs = set()
        for _ in range(3):
            _, out, _ = run_cli(capsys, "scan", str(tmp_path), "--deterministic")
            outputs.add(out)
        assert len(outputs) == 1

    def test_deterministic_omits_timestamp_and_root(self, capsys, tmp_path):
        write_tree(tmp_path, SIMPLE_TREE)
        _, out, _ = run_cli(capsys, "scan", str(tmp_path), "--deterministic")
        report = json.loads(out)
        assert "created_at" not in report
        assert report["payload"]["root"] == "."

    def test_nondeterministic_has_timestamp(self, capsys, tmp_path):
        write_tree(tmp_path, SIMPLE_TREE)
        _, out, _ = run_cli(capsys, "scan", str(tmp_path))
        assert "created_at" in json.loads(out)

    def test_history_byte_identical(self, capsys, history_repo):
        runs = set()
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "history", str(history_repo), "--seed", "3", "--deterministic"
            )
            runs.add(out)
        assert len(runs) == 1

    def test_canonical_json_shape(self, capsys, tmp_path):
        write_tree(tmp_path, SIMPLE_TREE)
        _, out, _ = run_cli(capsys, "scan", str(tmp_path), "--deterministic")
        parsed = json.loads(out)
        assert out == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


class TestHistoryCommand:
    def test_report_shape(self, capsys, history_repo):
        code, out, _ = run_cli(capsys, "history", str(history_repo), "--deterministic")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["payload_type"] == "HistoryReport"
        payload = report["payload"]
        assert len(payload["checkpoints"]) == 5
        assert payload["summary"]["rising_erosion"] is True
        assert payload["checkpoints"][0]["phase"] == "Start"
        assert payload["checkpoints"][-1]["phase"] == "Final"

    def test_empty_repo_warns_and_succeeds(self, capsys, tmp_path):
        import subprocess

        repo = tmp_path / "empty"
        repo.mkdir()
        subprocess.run(["git", "-C", str(repo), "init", "-q"], check=True)
        code, _, err = run_cli(capsys, "history", str(repo))
        assert code == EXIT_OK
        assert "no source-modifying commits" in err

    def test_csv_format(self, capsys, history_repo):
        code, out, _ = run_cli(
            capsys, "history", str(history_repo), "--format", "csv", "--deterministic"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("index,label,timestamp,phase,loc")
        assert len(lines) == 6


class TestPanelCommand:
    def test_single_repo_panel(self, capsys, tmp_path, history_repo):
        config = tmp_path / "panel.yaml"
        config.write_text(
            f"- {{repo_path: '{history_repo}', repo_id: fixture, stars: 42}}\n"
        )
        code, out, _ = run_cli(capsys, "panel", str(config), "--deterministic")
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        assert payload["overall"]["n"] == 1
        assert payload["entries"][0]["star_tier"] == "Hobby"
        assert payload["failed_count"] == 0

    def test_partial_failure_still_reports(self, capsys, tmp_path, history_repo):
        config = tmp_path / "panel.yaml"
        config.write_text(
            f"- {{repo_path: '{history_repo}', repo_id: good, stars: 42}}\n"
            f"- {{repo_path: '{tmp_path / 'ghost'}', repo_id: bad, stars: 1}}\n"
        )
        code, out, _ = run_cli(capsys, "panel", str(config), "--deterministic")
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        assert payload["failed"] == ["bad"]

    def test_min_window_changes_report(self, capsys, tmp_path, history_repo):
        config = tmp_path / "panel.yaml"
        config.write_text(f"- {{repo_path: '{history_repo}', repo_id: fixture, stars: 42}}\n")
        reports = [
            json.loads(run_cli(capsys, "panel", str(config), "--deterministic", *extra)[1])
            for extra in ((), ("--min-window", "2"))
        ]
        assert reports[0]["config_digest"] != reports[1]["config_digest"]
        verbosity = [r["payload"]["entries"][0]["head_verbosity"] for r in reports]
        assert verbosity[1] > verbosity[0]

    def test_config_changes_report(self, capsys, tmp_path, history_repo):
        panel = tmp_path / "panel.yaml"
        panel.write_text(f"- {{repo_path: '{history_repo}', repo_id: fixture, stars: 42}}\n")
        scan_config = tmp_path / "scan.yaml"
        scan_config.write_text("exclude: ['slop.py']\n")
        reports = [
            json.loads(run_cli(capsys, "panel", str(panel), "--deterministic", *extra)[1])
            for extra in ((), ("--config", str(scan_config)))
        ]
        assert reports[0]["config_digest"] != reports[1]["config_digest"]
        erosion = [r["payload"]["entries"][0]["head_erosion"] for r in reports]
        assert erosion[1] < erosion[0]

    def test_format_is_not_offered(self, capsys, tmp_path):
        config = tmp_path / "panel.yaml"
        config.write_text(f"- {{repo_path: '{tmp_path}', repo_id: x, stars: 1}}\n")
        code, _, _ = run_cli(capsys, "panel", str(config), "--format", "csv")
        assert code == EXIT_USAGE

    def test_all_failures_is_unreadable(self, capsys, tmp_path):
        config = tmp_path / "panel.yaml"
        config.write_text(f"- {{repo_path: '{tmp_path / 'ghost'}', repo_id: bad, stars: 1}}\n")
        code, _, _ = run_cli(capsys, "panel", str(config))
        assert code == EXIT_UNREADABLE


class TestRulesCommand:
    def test_list_starter_rules(self, capsys):
        code, out, _ = run_cli(capsys, "rules", "list")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) >= 20
        assert any(line.startswith("identity-comprehension\t") for line in lines)

    def test_test_subcommand_prints_matches(self, capsys, tmp_path):
        target = tmp_path / "sample.py"
        target.write_text("ys = [x for x in xs]\n")
        code, out, _ = run_cli(capsys, "rules", "test", "identity-comprehension", str(target))
        assert code == EXIT_OK
        match = json.loads(out.splitlines()[0])
        assert match["rule_id"] == "identity-comprehension"

    def test_test_subcommand_empty_file(self, capsys, tmp_path):
        target = tmp_path / "empty.py"
        target.write_text("")
        code, out, _ = run_cli(capsys, "rules", "test", "identity-comprehension", str(target))
        assert code == EXIT_OK and out == ""

    def test_unknown_rule_id(self, capsys, tmp_path):
        target = tmp_path / "sample.py"
        target.write_text("x = 1\n")
        code, _, err = run_cli(capsys, "rules", "test", "no-such-rule", str(target))
        assert code == EXIT_USAGE
        assert "unknown rule id" in err


class TestRulesEnv:
    def test_env_variable_selects_rules(self, capsys, tmp_path, monkeypatch):
        custom = tmp_path / "custom.yaml"
        custom.write_text("- {id: only-rule, kind: regex, pattern: 'TODO'}\n")
        monkeypatch.setenv(RULES_ENV, str(custom))
        code, out, _ = run_cli(capsys, "rules", "list")
        assert code == EXIT_OK
        assert out.splitlines() == ["only-rule\tregex\t\t" + "python"]

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        env_rules = tmp_path / "env.yaml"
        env_rules.write_text("- {id: env-rule, kind: regex, pattern: 'A'}\n")
        flag_rules = tmp_path / "flag.yaml"
        flag_rules.write_text("- {id: flag-rule, kind: regex, pattern: 'B'}\n")
        monkeypatch.setenv(RULES_ENV, str(env_rules))
        code, out, _ = run_cli(capsys, "rules", "list", "--rules", str(flag_rules))
        assert code == EXIT_OK
        assert out.startswith("flag-rule")

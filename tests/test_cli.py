from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slopscope
from slopscope.cli import (
    EXIT_BAD_RULES,
    EXIT_OK,
    EXIT_UNREADABLE,
    EXIT_USAGE,
    RULES_ENV,
    main,
)
from slopscope.rules import load_starter_rules
from slopscope.scan import MAX_FILE_BYTES, ScanConfig, read_file, read_tree

from conftest import (
    DEEP_SUM,
    FIXTURES,
    TOO_DEEP,
    TOO_DEEP_RULES,
    deepest_elif_chain,
    elif_chain,
    handler_source,
    padded_module,
    write_tree,
)

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


def run_module(*argv: str, stdout=subprocess.PIPE, code: str | None = None) -> subprocess.CompletedProcess:
    """``python -m slopscope.cli argv`` in a child process (or ``python -c
    code argv``), with the bundled rules and a 60 s timeout."""
    env = {**os.environ, "PYTHONPATH": str(Path(slopscope.__file__).parents[1])}
    env.pop(RULES_ENV, None)
    head = ["-m", "slopscope.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          timeout=60, env=env)


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

    def test_history_without_git_on_path(self, capsys, tmp_path, history_repo, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        code, out, err = run_cli(capsys, "history", str(history_repo))
        assert code == EXIT_UNREADABLE
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("slopscope: cannot run git")

    def test_invalid_rule_file(self, capsys, tmp_path):
        bad = tmp_path / "rules.yaml"
        bad.write_text("- {id: broken, kind: pattern, pattern: 'def ((('}\n")
        write_tree(tmp_path / "tree", SIMPLE_TREE)
        code, _, err = run_cli(capsys, "scan", str(tmp_path / "tree"), "--rules", str(bad))
        assert code == EXIT_BAD_RULES
        assert "broken" in err


# Each bad input, the files it needs, and its documented exit code.
BAD_INPUTS = {
    "scan-missing-config": (["scan", "{tree}", "--config", "/nonexistent.yaml"], EXIT_USAGE),
    "history-missing-config": (["history", "{repo}", "--config", "/nonexistent.yaml"], EXIT_USAGE),
    "malformed-config": (["scan", "{tree}", "--config", "{malformed}"], EXIT_USAGE),
    "deeply-nested-config": (["scan", "{tree}", "--config", "{deep}"], EXIT_USAGE),
    "deeply-nested-rules": (["scan", "{tree}", "--rules", "{deep}"], EXIT_BAD_RULES),
    "deeply-nested-panel": (["panel", "{deep}"], EXIT_USAGE),
    "too-deep-pattern-for-the-parser": (["scan", "{tree}", "--rules", "{deep_parser_rules}"], EXIT_BAD_RULES),
    "too-deep-regex": (["rules", "list", "--rules", "{deep_regex_rules}"], EXIT_BAD_RULES),
    "too-deep-pattern-plans": (["scan", "{tree}", "--rules", "{deep_plans_rules}"], EXIT_BAD_RULES),
    "too-deep-rules-test": (["rules", "test", "self-equality", "{too_deep}"], EXIT_UNREADABLE),
    "string-exclude": (["scan", "{tree}", "--config", "{string_exclude}"], EXIT_USAGE),
    "zero-minified-threshold": (["scan", "{tree}", "--config", "{zero_threshold}"], EXIT_USAGE),
    "unknown-encoding": (["history", "{repo}", "--config", "{unknown_encoding}"], EXIT_USAGE),
    "non-text-encoding": (["scan", "{tree}", "--config", "{rot13_encoding}"], EXIT_USAGE),
    "languages-config": (["scan", "{tree}", "--config", "{languages_config}"], EXIT_USAGE),
    "languages-rules": (["scan", "{tree}", "--rules", "{languages_rules}"], EXIT_BAD_RULES),
    "scalar-regex-flags": (["rules", "list", "--rules", "{scalar_regex_flags}"], EXIT_BAD_RULES),
    "empty-regex-flags": (["scan", "{tree}", "--rules", "{empty_regex_flags}"], EXIT_BAD_RULES),
    "string-regex-flags": (["rules", "list", "--rules", "{string_regex_flags}"], EXIT_BAD_RULES),
    "zero-min-window": (["scan", "{tree}", "--min-window", "0"], EXIT_USAGE),
    "negative-max-commits": (["history", "{repo}", "--max-commits", "-1"], EXIT_USAGE),
    "bogus-cutoff-date": (["history", "{repo}", "--cutoff-date", "bogus"], EXIT_USAGE),
    # date.fromisoformat on 3.11+ reads both as 2024-01-01; 3.10 refuses them.
    "basic-format-cutoff-date": (["history", "{repo}", "--cutoff-date", "20240101"], EXIT_USAGE),
    "week-date-cutoff-date": (["history", "{repo}", "--cutoff-date", "2024-W01-1"], EXIT_USAGE),
    "sweep-in-csv": (["scan", "{tree}", "--sweep", "--format", "csv"], EXIT_USAGE),
    "malformed-panel": (["panel", "{malformed}"], EXIT_USAGE),
    "scalar-panel": (["panel", "{scalar}"], EXIT_USAGE),
    "empty-list-panel": (["panel", "{empty_list}"], EXIT_USAGE),
    "empty-mapping-panel": (["panel", "{empty_mapping}"], EXIT_USAGE),
    "empty-file-panel": (["panel", "{empty_file}"], EXIT_USAGE),
    "empty-repos-panel": (["panel", "{empty_repos}"], EXIT_USAGE),
    "nan-reference-verbosity": (["panel", "{panel}", "--reference-mean-verbosity", "nan"], EXIT_USAGE),
    "inf-reference-erosion": (["panel", "{panel}", "--reference-mean-erosion", "inf"], EXIT_USAGE),
    "minus-inf-reference-verbosity": (["panel", "{panel}", "--reference-mean-verbosity=-inf"], EXIT_USAGE),
    "overflowing-reference-erosion": (["panel", "{panel}", "--reference-mean-erosion", "1e999"], EXIT_USAGE),
    "undecodable-rules-test": (["rules", "test", "identity-comprehension", "{undecodable}"], EXIT_UNREADABLE),
    "unparsable-rules-test": (["rules", "test", "broad-except", "{unparsable}"], EXIT_UNREADABLE),
    "unclaimed-rules-test": (["rules", "test", "identity-comprehension", "{unclaimed}"], EXIT_USAGE),
    "negative-panel-max-commits": (["panel", "{negative_max_commits}"], EXIT_USAGE),
    "zero-panel-max-commits": (["panel", "{zero_max_commits}"], EXIT_USAGE),
    "fractional-panel-max-commits": (["panel", "{fractional_max_commits}"], EXIT_USAGE),
    "string-panel-max-commits": (["panel", "{string_max_commits}"], EXIT_USAGE),
    "negative-panel-stars": (["panel", "{negative_stars}"], EXIT_USAGE),
    "fractional-panel-stars": (["panel", "{fractional_stars}"], EXIT_USAGE),
    "string-panel-stars": (["panel", "{string_stars}"], EXIT_USAGE),
    "bool-panel-stars": (["panel", "{bool_stars}"], EXIT_USAGE),
    "bool-panel-seed": (["panel", "{bool_seed}"], EXIT_USAGE),
    "fractional-panel-seed": (["panel", "{fractional_seed}"], EXIT_USAGE),
    "string-panel-seed": (["panel", "{string_seed}"], EXIT_USAGE),
    "repeated-panel-repo-id": (["panel", "{repeated_repo_id}"], EXIT_USAGE),
    "repeated-panel-repo-path": (["panel", "{repeated_repo_path}"], EXIT_USAGE),
    "misspelled-panel-stars": (["panel", "{misspelled_stars}"], EXIT_USAGE),
    "null-panel-repo-path": (["panel", "{null_repo_path}"], EXIT_USAGE),
    "repos-mapping-panel": (["panel", "{repos_mapping}"], EXIT_USAGE),
    "empty-rule-category": (["rules", "list", "--rules", "{empty_category}"], EXIT_BAD_RULES),
    "null-rule-id": (["rules", "list", "--rules", "{null_rule_id}"], EXIT_BAD_RULES),
    "list-rule-pattern": (["rules", "list", "--rules", "{list_pattern}"], EXIT_BAD_RULES),
    "mixed-key-types-config": (["scan", "{tree}", "--config", "{mixed_keys}"], EXIT_USAGE),
    "unwritable-out": (["scan", "{tree}", "--out", "{tree}/no/such/dir/r.json"], EXIT_USAGE),
    "unwritable-emit-matches": (["scan", "{tree}", "--emit-matches", "{tree}/no/such/dir/m.jsonl"], EXIT_USAGE),
}
BAD_FILES = {
    "malformed.yaml": b"exclude: [a\n",
    "deep.yaml": b"[" * 2000 + b"]" * 2000 + b"\n",  # deeper than the parser's recursion limit
    "string_exclude.yaml": b'exclude: "x"\n',
    "zero_threshold.yaml": b"minified_line_threshold: 0\n",
    "unknown_encoding.yaml": b"encoding: nope\n",
    "rot13_encoding.yaml": b"encoding: rot13\n",
    "languages_config.yaml": b"languages: [python]\n",
    "languages_rules.yaml": b"- {id: r, kind: pattern, pattern: '$X == $X', languages: [python]}\n",
    "scalar_regex_flags.yaml": b"- {id: r, kind: regex, pattern: x, regex_flags: 5}\n",
    "empty_regex_flags.yaml": b"- id: r\n  kind: regex\n  pattern: x\n  regex_flags:\n",
    "string_regex_flags.yaml": b"- {id: r, kind: regex, pattern: x, regex_flags: im}\n",
    "scalar.yaml": b"42\n",
    "empty_list.yaml": b"[]\n",
    "empty_mapping.yaml": b"{}\n",
    "empty_file.yaml": b"",
    "empty_repos.yaml": b"repos: []\n",
    "panel.yaml": b"- {repo_path: repo, repo_id: r, stars: 5}\n",
    "undecodable.py": b"x = 1\n\xff\n",
    "unparsable.py": b"def (:\n",
    "too_deep.py": TOO_DEEP.encode(),
    **{f"deep_{shape}_rules.json": json.dumps([{"id": "deep", "kind": kind, "pattern": pattern}]).encode()
       for shape, (kind, pattern) in TOO_DEEP_RULES.items()},
    "unclaimed.txt": b"ys = [x for x in xs]\n",
    "negative_max_commits.yaml": b"- {repo_path: repo, max_commits: -1}\n",
    "zero_max_commits.yaml": b"- {repo_path: repo, repo_id: zero, max_commits: 0}\n",
    "fractional_max_commits.yaml": b"- {repo_path: repo, max_commits: 2.5}\n",
    "string_max_commits.yaml": b"- {repo_path: repo, max_commits: '5'}\n",
    "negative_stars.yaml": b"- {repo_path: repo, stars: -1}\n",
    "fractional_stars.yaml": b"- {repo_path: repo, repo_id: r, stars: 19999.9}\n",
    "string_stars.yaml": b"- {repo_path: repo, repo_id: r, stars: '50'}\n",
    "bool_stars.yaml": b"- {repo_path: repo, stars: true}\n",
    "bool_seed.yaml": b"- {repo_path: repo, stars: 5, seed: true}\n",
    "fractional_seed.yaml": b"- {repo_path: repo, seed: 1.5}\n",
    "string_seed.yaml": b"- {repo_path: repo, seed: '1'}\n",
    "repeated_repo_id.yaml": b"- {repo_path: repo, repo_id: r, stars: 20000}\n"
                             b"- {repo_path: other, repo_id: r, stars: 50}\n",
    "repeated_repo_path.yaml": b"- {repo_path: repo}\n- {repo_path: repo, stars: 50}\n",
    "misspelled_stars.yaml": b"- {repo_path: repo, repo_id: r, star: 20000}\n",
    "null_repo_path.yaml": b"- {repo_path: ~}\n",
    "repos_mapping.yaml": b"repos: [{repo_path: repo}]\nextra: 1\n",
    "empty_category.yaml": b"- id: r\n  kind: pattern\n  pattern: '$X == $X'\n  category:\n",
    "null_rule_id.yaml": b"- {id: ~, kind: pattern, pattern: '$X == $X'}\n",
    "list_pattern.yaml": b"- {id: r, kind: regex, pattern: [a, b]}\n",
    "mixed_keys.yaml": b"1: a\nb: c\n",
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_with_one_line(name, capsys, tmp_path, history_repo):
    argv, expected = BAD_INPUTS[name]
    paths = {"tree": str(write_tree(tmp_path / "tree", SIMPLE_TREE)), "repo": str(history_repo)}
    for filename, data in BAD_FILES.items():
        (tmp_path / filename).write_bytes(data)
        paths[filename.split(".")[0]] = str(tmp_path / filename)
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == expected
    assert out == "" and "Traceback" not in err
    lines = err.splitlines()
    errors = [line for line in lines if line.startswith("slopscope")]
    assert len(errors) == 1 and errors[0] == lines[-1]
    assert len(lines) == 1 or lines[0].startswith("usage:")  # argparse prints its usage first


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

    def test_a_name_that_is_not_utf8_is_reported_escaped(self, capsys, tmp_path):
        write_tree(tmp_path / "tree", SIMPLE_TREE)
        (tmp_path / "tree" / os.fsdecode(b"caf\xe9.py")).write_text("ok = x == True\n")
        (tmp_path / "tree" / "caf\\xe9.py").write_text("y = 1\n")  # a backslash: a name of its own
        out_file = tmp_path / "r.json"
        code, _, err = run_cli(capsys, "scan", str(tmp_path / "tree"), "--out", str(out_file))
        assert code == EXIT_OK, err
        payload = json.loads(out_file.read_bytes().decode("utf-8"))["payload"]
        assert [f["path"] for f in payload["inventory"]["files"]] == ["app.py", "caf\\\\xe9.py", "caf\\xe9.py"]
        assert "caf\\xe9.py" in {m["file"] for m in payload["matches"]}
        assert "caf\\\\xe9.py" not in {m["file"] for m in payload["matches"]}
        code, out, _ = run_cli(capsys, "scan", str(tmp_path / "tree"))
        assert code == EXIT_OK and json.loads(out.encode("utf-8"))["payload"] == payload
        code, out, _ = run_cli(capsys, "scan", str(tmp_path / "tree"), "--format", "csv")
        assert code == EXIT_OK and "caf\\xe9.py" in out.encode("utf-8").decode("utf-8")

    def test_csv_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", GOLDEN_TREE, "--format", "csv", "--deterministic"
        )
        assert code == EXIT_OK
        golden = (FIXTURES / "golden_scan.csv").read_text()
        assert out == golden

    def test_json_and_matches_golden(self, capsys, tmp_path):
        """The whole deterministic report, sweep included, and the
        --emit-matches file, byte for byte."""
        emitted = tmp_path / "m.jsonl"
        code, out, err = run_cli(capsys, "scan", GOLDEN_TREE, "--deterministic", "--sweep",
                                 "--emit-matches", str(emitted))
        assert code == EXIT_OK, err
        assert out.encode("utf-8") == (FIXTURES / "golden_scan.json").read_bytes()
        assert emitted.read_bytes() == (FIXTURES / "golden_matches.jsonl").read_bytes()

    def test_csv_file_rows_count_source_lines_like_the_total(self, capsys, tmp_path):
        write_tree(tmp_path, {
            "walk.py": """\
                def walk(d):
                    for k in d.keys():

                        # every key
                        print(k)
                """,
        })
        code, out, _ = run_cli(capsys, "scan", str(tmp_path), "--format", "csv")
        assert code == EXIT_OK
        header, row, total = (line.split(",") for line in out.splitlines())
        fields = dict(zip(header, row))
        assert (fields["loc"], fields["flagged_lines"]) == ("3", "2")
        assert total[header.index("flagged_lines")] == "2"

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

    def test_digest_covers_the_rule_file(self, capsys, tmp_path):
        write_tree(tmp_path / "tree", SIMPLE_TREE)
        digests = []
        for word in ("TODO", "FIXME"):
            rules = tmp_path / f"{word}.yaml"
            rules.write_text(f"- {{id: marker, kind: regex, pattern: '{word}'}}\n")
            _, out, _ = run_cli(capsys, "scan", str(tmp_path / "tree"), "--deterministic", "--rules", str(rules))
            report = json.loads(out)
            assert report["payload"]["matches"] == []
            digests.append(report["config_digest"])
        assert digests[0] != digests[1]

    @pytest.mark.parametrize("tree", ["golden_tree", "names"])
    def test_reports_do_not_depend_on_the_walk_order(self, capsys, tmp_path, monkeypatch, tree):
        """Files are read in walk order and reported in path order: a walk
        that offers every directory's names in reverse gives the same bytes."""
        if tree == "golden_tree":
            root = FIXTURES / "golden_tree"
        else:  # its walk order is not its path order
            root = write_tree(tmp_path / "tree", dict.fromkeys(("a.py", "a/b.py", "a-b.py", "b/c.py"),
                                                               SIMPLE_TREE["app.py"]))

        def reports() -> list:
            out = []
            for extra in ([], ["--format", "csv"], ["--emit-matches", str(tmp_path / "m.jsonl")]):
                code, text, err = run_cli(capsys, "scan", str(root), "--deterministic", *extra)
                assert code == EXIT_OK, err
                out.append(text)
            return [*out, (tmp_path / "m.jsonl").read_bytes()]

        want = reports()
        walk = os.walk

        def reversed_walk(*args, **kwargs):
            for dirpath, dirnames, filenames in walk(*args, **kwargs):
                dirnames.sort(reverse=True)
                filenames.sort(reverse=True)
                yield dirpath, dirnames, filenames

        monkeypatch.setattr(os, "walk", reversed_walk)
        walked = [path for path, _ in read_tree(root, ScanConfig())]
        assert tree == "golden_tree" or walked != sorted(walked)
        assert reports() == want

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

    def test_default_flags_give_the_report_of_explicit_ones(self, capsys, history_repo):
        reports = []
        for flags in ([], ["--max-commits", "30", "--cutoff-date", "2024-01-01"]):
            _, out, _ = run_cli(capsys, "history", str(history_repo), "--deterministic", *flags)
            reports.append(out)
        assert reports[0] == reports[1]

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
        code, out, err = run_cli(capsys, "panel", str(config), "--deterministic")
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        reason = f"not a git repository: {tmp_path / 'ghost'}"
        assert payload["failed"] == [{"repo_id": "bad", "reason": reason}]
        assert err == f"slopscope: bad: {reason}\n"

    def test_failures_sorted_by_id_and_named_once(self, capsys, tmp_path, history_repo):
        empty = tmp_path / "empty"
        empty.mkdir()
        subprocess.run(["git", "-C", str(empty), "init", "-q"], check=True)
        config = tmp_path / "panel.yaml"
        config.write_text(
            f"- {{repo_path: '{history_repo}', repo_id: good, stars: 42}}\n"
            f"- {{repo_path: '{empty}', repo_id: zero, stars: 1}}\n"
            f"- {{repo_path: '{tmp_path / 'ghost'}', repo_id: bad, stars: 1}}\n"
        )
        code, out, err = run_cli(capsys, "panel", str(config), "--deterministic")
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        assert [f["repo_id"] for f in payload["failed"]] == ["bad", "zero"]
        assert payload["failed"][1]["reason"] == "no measurable checkpoints"
        assert payload["failed_count"] == 2
        assert "slopscope: zero: no measurable checkpoints\n" in err and err.count("zero") == 1

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

    def test_digest_covers_the_repositories(self, capsys, tmp_path, history_repo):
        digests = []
        for stars in (42, 43):
            panel = tmp_path / str(stars) / "panel.yaml"
            panel.parent.mkdir()
            panel.write_text(f"- {{repo_path: '{history_repo}', repo_id: fixture, stars: {stars}}}\n")
            _, out, _ = run_cli(capsys, "panel", str(panel), "--deterministic")
            digests.append(json.loads(out)["config_digest"])
        assert digests[0] != digests[1]

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


# What ``rules list`` prints for the bundled starter set: id, kind, category.
STARTER_RULES_LIST = (
    "identity-comprehension\tpattern\tidentity-comprehension",
    "identity-generator-list\tpattern\tidentity-comprehension",
    "self-equality\tpattern\tredundant-comparison",
    "self-inequality\tpattern\tredundant-comparison",
    "compare-true\tpattern\tredundant-comparison",
    "compare-false\tpattern\tredundant-comparison",
    "compare-none-eq\tpattern\tredundant-comparison",
    "compare-empty-list\tpattern\tredundant-comparison",
    "double-negation\tpattern\tredundant-comparison",
    "len-eq-zero\tpattern\tredundant-comparison",
    "len-gt-zero\tpattern\tredundant-comparison",
    "ternary-bool\tpattern\tredundant-comparison",
    "dict-get-none\tpattern\tredundant-comparison",
    "if-return-bool\tpattern\tif-else-ladder",
    "if-return-bool-fallthrough\tpattern\tif-else-ladder",
    "elif-ladder\tpattern\tif-else-ladder",
    "single-use-return\tpattern\tsingle-use-variable",
    "except-pass\tpattern\tdefensive-check",
    "empty-check-continue\tpattern\tdefensive-check",
    "trivial-wrapper\tpattern\ttrivial-wrapper",
    "trivial-wrapper-noargs\tpattern\ttrivial-wrapper",
    "range-len-loop\tpattern\tverbose-iteration",
    "keys-iteration\tpattern\tverbose-iteration",
    "broad-except\tregex\tdefensive-check",
    "bare-except\tregex\tdefensive-check",
    "deep-nesting\tregex\theavy-nesting",
)


class TestRulesCommand:
    def test_list_starter_rules(self, capsys):
        code, out, _ = run_cli(capsys, "rules", "list")
        assert code == EXIT_OK
        assert out == "".join(line + "\n" for line in STARTER_RULES_LIST)

    def test_test_subcommand_prints_matches(self, capsys, tmp_path):
        target = tmp_path / "sample.py"
        target.write_text("ys = [x for x in xs]\n")
        code, out, _ = run_cli(capsys, "rules", "test", "identity-comprehension", str(target))
        assert code == EXIT_OK
        match = json.loads(out.splitlines()[0])
        assert match["rule_id"] == "identity-comprehension"

    def test_test_subcommand_reports_a_name_that_is_not_utf8_as_scan_does(self, capsys, tmp_path):
        target = tmp_path / os.fsdecode(b"caf\xe9.py")
        target.write_text("ys = [x for x in xs]\n")
        code, out, _ = run_cli(capsys, "rules", "test", "identity-comprehension", str(target))
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[0])["file"] == "caf\\xe9.py"

    @pytest.mark.parametrize("data", [b"\xef\xbb\xbfys = [x for x in xs]\n",
                                      b"# -*- coding: latin-1 -*-\ns = '\xe9'\nys = [x for x in xs]\n"],
                             ids=["bom", "latin1-cookie"])
    def test_bom_and_cookie_files_are_measured(self, capsys, tmp_path, data):
        (tmp_path / "m.py").write_bytes(data)
        code, out, _ = run_cli(capsys, "rules", "test", "identity-comprehension", str(tmp_path / "m.py"))
        assert code == EXIT_OK and len(out.splitlines()) == 1
        code, out, _ = run_cli(capsys, "scan", str(tmp_path))
        inventory = json.loads(out)["payload"]["inventory"]
        assert ([f["path"] for f in inventory["files"]], inventory["skipped"]) == (["m.py"], [])

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

    @pytest.mark.parametrize("rule_id", ["len-eq-zero", "broad-except"])  # a pattern rule, a regex rule
    def test_test_subcommand_prints_what_scan_emits(self, capsys, tmp_path, rule_id):
        body = """\
            def check(items, rows):
                try:
                    if len(items) == 0 or len(rows[1:]) == 0:
                        return None
                except Exception:
                    pass
                except BaseException as err:
                    raise err
            """
        write_tree(tmp_path / "tree", {"a.py": body, "b.py": body.replace("items", "things")})
        emitted = tmp_path / "matches.jsonl"
        code, _, _ = run_cli(capsys, "scan", str(tmp_path / "tree"), "--emit-matches", str(emitted))
        assert code == EXIT_OK
        want = [line for line in emitted.read_text().splitlines()
                if json.loads(line)["rule_id"] == rule_id and json.loads(line)["file"] == "a.py"]
        assert len(want) == 2
        if rule_id == "len-eq-zero":
            assert [json.loads(line)["captures"] for line in want] == [{"X": "items"}, {"X": "rows[1:]"}]
        code, out, _ = run_cli(capsys, "rules", "test", rule_id, str(tmp_path / "tree" / "a.py"))
        assert code == EXIT_OK
        assert out.splitlines() == want


# Lines with non-ASCII text, each with the one span ``x == None`` matches
# there: its start, the position after it, and its lines.
NON_ASCII_MATCHES = {
    "before": ('s = "\u00e9"; ok = x == None\n', ((1, 15), (1, 24), [1])),
    "inside": ("gr\u00f6\u00dfe == None\n", ((1, 1), (1, 14), [1])),
}


def _none_eq_rules(tmp_path) -> Path:
    """The starter ``compare-none-eq`` pattern rule and a regex rule that
    matches the same spans."""
    (pattern,) = [rule.pattern for rule in load_starter_rules() if rule.id == "compare-none-eq"]
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{"id": "compare-none-eq", "pattern": pattern},
                                {"id": "none-eq-regex", "kind": "regex", "pattern": r"\w+ == None"}]))
    return path


def _places(lines: list[str]) -> dict[str, list[tuple]]:
    """Each rule's matches as (start, end, lines)."""
    out: dict[str, list[tuple]] = {}
    for line in lines:
        m = json.loads(line)
        out.setdefault(m["rule_id"], []).append(
            ((m["start"]["line"], m["start"]["col"]), (m["end"]["line"], m["end"]["col"]), m["lines"]))
    return out


class TestMatchPositions:
    @pytest.mark.parametrize("case", sorted(NON_ASCII_MATCHES))
    def test_pattern_and_regex_rules_place_a_match_alike(self, capsys, tmp_path, case):
        """In characters of its line, through ``rules test`` and ``scan
        --emit-matches``."""
        text, place = NON_ASCII_MATCHES[case]
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "m.py").write_text(text, encoding="utf-8")
        rules = _none_eq_rules(tmp_path)
        for rule_id in ("compare-none-eq", "none-eq-regex"):
            code, out, err = run_cli(capsys, "rules", "test", rule_id, str(tree / "m.py"), "--rules", str(rules))
            assert code == EXIT_OK, err
            assert _places(out.splitlines()) == {rule_id: [place]}
        emitted = tmp_path / "m.jsonl"
        code, _, err = run_cli(capsys, "scan", str(tree), "--rules", str(rules), "--emit-matches", str(emitted))
        assert code == EXIT_OK, err
        assert _places(emitted.read_text(encoding="utf-8").splitlines()) == {
            "compare-none-eq": [place], "none-eq-regex": [place]}


class TestLargeFiles:
    """A file of more than ``MAX_FILE_BYTES`` bytes is a ``large`` skip."""

    def test_scan_skips_a_file_over_the_cap_and_measures_one_at_it(self, capsys, tmp_path):
        tree = write_tree(tmp_path / "tree", {"big.py": padded_module(MAX_FILE_BYTES + 1),
                                              "cap.py": padded_module(MAX_FILE_BYTES)})
        code, out, err = run_cli(capsys, "scan", str(tree), "--deterministic")
        assert code == EXIT_OK, err
        inventory = json.loads(out)["payload"]["inventory"]
        assert [(f["path"], f["line_count"]) for f in inventory["files"]] == [
            ("cap.py", padded_module(MAX_FILE_BYTES).count("\n"))]
        assert inventory["skipped"] == [{"path": "big.py", "reason": "large"}]

    def test_scan_never_reads_a_file_over_the_cap(self, tmp_path, monkeypatch):
        (tmp_path / "big.py").write_text(padded_module(MAX_FILE_BYTES + 1))
        monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(f"{self} was read"))
        assert read_file(tmp_path, "big.py") == "large"

    def test_rules_test_refuses_a_file_over_the_cap(self, capsys, tmp_path):
        target = tmp_path / "big.py"
        target.write_text(padded_module(MAX_FILE_BYTES + 1))
        code, out, err = run_cli(capsys, "rules", "test", "compare-none-eq", str(target))
        assert (code, out, err) == (EXIT_UNREADABLE, "", f"slopscope: {target}: skipped (large)\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss counts KiB on Linux only")
    def test_a_scan_next_to_a_huge_module_stays_small(self, tmp_path):
        """Measured by a fresh wrapper process, so that only its one child,
        the scan, counts toward ``RUSAGE_CHILDREN``."""
        function = "def f{0}(a, b):\n    if a == {0}:\n        return [x for x in b if x]\n    return a + {0}\n"
        parts, size, i = [], 0, 0
        while size < 5_000_000:
            parts.append(function.format(i))
            size += len(parts[-1])
            i += 1
        tree = write_tree(tmp_path / "tree", {**SIMPLE_TREE, "huge.py": "".join(parts)})
        wrapper = (
            "import resource, subprocess, sys\n"
            "done = subprocess.run([sys.executable, '-m', 'slopscope.cli', 'scan', sys.argv[1],"
            " '--deterministic'], capture_output=True, timeout=60)\n"
            "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
            "sys.stdout.write(done.stdout.decode())\n"
        )
        done = run_module(str(tree), code=wrapper)
        assert done.returncode == 0, done.stderr
        status, report = done.stdout.decode().split("\n", 1)
        code, peak_kib = map(int, status.split())
        assert code == EXIT_OK
        assert json.loads(report)["payload"]["inventory"]["skipped"] == [{"path": "huge.py", "reason": "large"}]
        assert peak_kib < 100 * 1024


class TestDeepNesting:
    def test_scan_measures_a_deeply_nested_file(self, capsys, tmp_path):
        tree = write_tree(tmp_path / "tree", {**SIMPLE_TREE, "deep.py": DEEP_SUM})
        code, out, err = run_cli(capsys, "scan", str(tree), "--deterministic")
        assert code == EXIT_OK, err
        inventory = json.loads(out)["payload"]["inventory"]
        assert [f["path"] for f in inventory["files"]] == ["app.py", "deep.py"]
        assert inventory["skipped"] == []

    def test_rules_test_on_a_deeply_nested_file(self, capsys, tmp_path):
        target = tmp_path / "deep.py"
        target.write_text(DEEP_SUM)
        code, out, err = run_cli(capsys, "rules", "test", "identity-comprehension", str(target))
        assert (code, out, err) == (EXIT_OK, "", "")

    def test_scan_skips_a_file_too_deep_for_the_parser(self, capsys, tmp_path):
        tree = write_tree(tmp_path / "tree", {**SIMPLE_TREE, "deep.py": TOO_DEEP})
        code, out, err = run_cli(capsys, "scan", str(tree), "--deterministic")
        assert code == EXIT_OK, err
        inventory = json.loads(out)["payload"]["inventory"]
        assert [f["path"] for f in inventory["files"]] == ["app.py"]
        assert inventory["skipped"] == [{"path": "deep.py", "reason": "parse"}]

    def test_the_deepest_pattern_that_compiles_matches_in_a_scan(self, capsys, tmp_path):
        chain = elif_chain(deepest_elif_chain())
        rules = tmp_path / "deep.json"
        rules.write_text(json.dumps([{"id": "deep", "pattern": chain}]))
        tree = write_tree(tmp_path / "tree", {"chain.py": chain})
        code, out, err = run_cli(capsys, "scan", str(tree), "--rules", str(rules), "--deterministic")
        assert code == EXIT_OK, err
        matches = json.loads(out)["payload"]["matches"]
        assert [(m["rule_id"], m["start"]["line"], m["end"]["line"]) for m in matches] == [
            ("deep", 1, chain.count("\n"))
        ]


class TestRulesEnv:
    def test_env_variable_selects_rules(self, capsys, tmp_path, monkeypatch):
        custom = tmp_path / "custom.yaml"
        custom.write_text("- {id: only-rule, kind: regex, pattern: 'TODO'}\n")
        monkeypatch.setenv(RULES_ENV, str(custom))
        code, out, _ = run_cli(capsys, "rules", "list")
        assert code == EXIT_OK
        assert out.splitlines() == ["only-rule\tregex\t"]

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        env_rules = tmp_path / "env.yaml"
        env_rules.write_text("- {id: env-rule, kind: regex, pattern: 'A'}\n")
        flag_rules = tmp_path / "flag.yaml"
        flag_rules.write_text("- {id: flag-rule, kind: regex, pattern: 'B'}\n")
        monkeypatch.setenv(RULES_ENV, str(env_rules))
        code, out, _ = run_cli(capsys, "rules", "list", "--rules", str(flag_rules))
        assert code == EXIT_OK
        assert out.startswith("flag-rule")


def _outside_file(tmp_path):
    """A file outside the measured tree whose one function would top the hotspots."""
    outside = tmp_path / "outside" / "secret.py"
    outside.parent.mkdir()
    outside.write_text(handler_source("outside_secret", "v"))
    return outside


class TestSymlinks:
    def test_scan_skips_a_link_out_of_the_tree(self, capsys, tmp_path):
        tree = write_tree(tmp_path / "tree", SIMPLE_TREE)
        os.symlink(_outside_file(tmp_path), tree / "leak.py")
        code, out, _ = run_cli(capsys, "scan", str(tree), "--deterministic")
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        assert payload["inventory"]["skipped"] == [{"path": "leak.py", "reason": "symlink"}]
        assert [c["qualified_name"] for c in payload["callables"]] == ["pick"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_scan_skips_a_fifo_without_opening_it(self, tmp_path):
        tree = write_tree(tmp_path / "tree", SIMPLE_TREE)
        os.mkfifo(tree / "pipe.py")
        # In a child process with a timeout: opening the FIFO would block forever.
        done = run_module("scan", str(tree), "--deterministic")
        assert done.returncode == EXIT_OK, done.stderr
        payload = json.loads(done.stdout)["payload"]
        assert payload["inventory"]["skipped"] == [{"path": "pipe.py", "reason": "special"}]
        assert [c["qualified_name"] for c in payload["callables"]] == ["pick"]

    def test_history_skips_a_committed_link_out_of_the_tree(self, capsys, tmp_path):
        repo = write_tree(tmp_path / "repo", SIMPLE_TREE)
        os.symlink(_outside_file(tmp_path), repo / "leak.py")
        for args in (["init", "-q"], ["add", "-A"],
                     ["-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "link"]):
            subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)
        code, out, _ = run_cli(capsys, "history", str(repo), "--deterministic")
        assert code == EXIT_OK
        (checkpoint,) = json.loads(out)["payload"]["checkpoints"]
        assert [h["qualified_name"] for h in checkpoint["erosion"]["hotspots"]] == ["pick"]


class TestProcessEntry:
    """``python -m slopscope.cli`` runs ``cli.run``, which ends the process
    without interpreter teardown once ``main()`` has returned."""

    @pytest.mark.parametrize("command", ["scan", "history", "rules"])
    def test_stdout_is_what_main_writes(self, capsys, history_repo, command):
        argv = {"scan": ["scan", GOLDEN_TREE, "--deterministic"],
                "history": ["history", str(history_repo), "--deterministic"],
                "rules": ["rules", "list"]}[command]
        code, out, _ = run_cli(capsys, *argv)
        done = run_module(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), b"")
        assert code == EXIT_OK and out

    def test_exit_codes_come_through(self, tmp_path):
        target = write_tree(tmp_path, SIMPLE_TREE) / "app.py"
        bad_rules = tmp_path / "bad.yaml"
        bad_rules.write_text("- {id: r, kind: regex}\n")
        for argv, expected in ((["rules", "test", "no-such-rule", str(target)], EXIT_USAGE),
                               (["scan", str(tmp_path / "nope")], EXIT_UNREADABLE),
                               (["rules", "list", "--rules", str(bad_rules)], EXIT_BAD_RULES)):
            done = run_module(*argv)
            assert done.returncode == expected, argv
            assert done.stdout == b"" and done.stderr.decode().startswith("slopscope: "), argv
            assert len(done.stderr.splitlines()) == 1, argv

    @pytest.mark.parametrize("argv, expected", [(["rules", "list"], EXIT_OK),
                                                (["scan", "no/such/root"], EXIT_UNREADABLE)])
    def test_exit_handlers_run_before_the_process_ends(self, argv, expected):
        code = ("import atexit, sys\n"
                "atexit.register(lambda: print('handler ran'))\n"
                "from slopscope.cli import run\n"
                "run()\n")
        done = run_module(*argv, code=code)
        assert done.returncode == expected
        assert done.stdout.decode().splitlines()[-1] == "handler ran"

    def test_help_and_usage_errors_exit_as_before(self):
        done = run_module("--help")
        assert done.returncode == EXIT_OK and done.stdout.startswith(b"usage: slopscope")
        done = run_module("scan")
        assert done.returncode == EXIT_USAGE and b"error: the following arguments are required" in done.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    @pytest.mark.parametrize("argv", [["scan", GOLDEN_TREE, "--deterministic"], ["rules", "list"]])
    def test_a_failed_stdout_write_is_one_line(self, argv):
        with open("/dev/full", "wb") as full:
            done = run_module(*argv, stdout=full)
        assert done.returncode == EXIT_USAGE
        assert done.stderr.decode().splitlines() == [f"slopscope: cannot write <stdout>: {os.strerror(errno.ENOSPC)}"]

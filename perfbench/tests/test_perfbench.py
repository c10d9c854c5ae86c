"""Tests of the benchmark itself: seeded corpora, oracles, hooks and a smoke run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402


def _scan(tmp_path: Path, files: dict[str, str]) -> dict:
    from slopscope import cli

    corpus.Tree(files, {}, 0).write(str(tmp_path / "tree"))
    out = tmp_path / "report.json"
    assert cli.main(["scan", str(tmp_path / "tree"), "--deterministic", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_a_seed_fixes_the_corpus_and_another_seed_changes_it():
    for make in (corpus.wide_tree, corpus.stdlib_tree):
        assert make(3).digest() == make(3).digest()
        assert make(3).digest() != make(4).digest()


def test_a_seed_fixes_the_history_repository(tmp_path):
    heads = [
        corpus.build_repo(corpus.history_commits(seed, n_commits=6, start_files=3), str(tmp_path / f"repo{i}"))
        for i, seed in enumerate((5, 5, 6))
    ]
    assert heads[0] == heads[1] != heads[2]


def test_oracles_on_hand_counted_code():
    text = "# note\n\ndef f(a):\n    '''Doc.'''\n    async def g():\n        return 1\n    return a\n"
    assert checks.source_lines(text) == {3, 4, 5, 6, 7}
    assert checks.count_defs(text) == 2
    block = "a = b + 1\nc = d(e)\nif f:\n    g.h(i)\nj = [k]\nl = m - 2\n"
    renamed = "x = y + 7\nz = w(v)\nif u:\n    t.s(r)\nq = [p]\no = n - 9\n"
    five = "".join(block.splitlines(keepends=True)[:5])
    got = checks.clone_lines({"a.py": block, "b.py": renamed, "c.py": five})
    assert got == {(f, n) for f in ("a.py", "b.py") for n in range(1, 7)}


def test_planted_counts_and_oracles_agree_with_slopscope(tmp_path):
    tree = corpus.wide_tree(7, n_files=14, n_families=2)
    assert tree.planted == dict.fromkeys(corpus.PLANTABLE, 1)
    report = _scan(tmp_path, tree.files)
    assert checks.check_scan(report, tree.files, tree.planted, tree.flagged_lines, tree.families) == []

    # The checks are not vacuous: a lost match, a wrong LOC and a lost clone all fail.
    lost = json.loads(json.dumps(report))
    dropped = lost["payload"]["matches"].pop()
    assert any(dropped["rule_id"] in f for f in checks.check_scan(lost, tree.files, tree.planted, None, []))
    wrong = json.loads(json.dumps(report))
    wrong["payload"]["inventory"]["files"][0]["loc"] += 1
    assert checks.check_scan(wrong, tree.files, tree.planted, None, [])
    no_clones = json.loads(json.dumps(report))
    no_clones["payload"]["clones"] = []
    assert checks.check_scan(no_clones, tree.files, tree.planted, None, tree.families)


def test_history_check_agrees_with_slopscope(tmp_path):
    from slopscope import cli

    commits = corpus.history_commits(2, n_commits=8, start_files=3)
    corpus.build_repo(commits, str(tmp_path / "repo"))
    out = tmp_path / "history.json"
    argv = ["history", str(tmp_path / "repo"), "--max-commits", "6", "--seed", "2", "--deterministic", "--out", str(out)]
    assert cli.main(argv) == 0
    report = json.loads(out.read_text())
    assert checks.check_history(report, commits, 6) == []
    report["payload"]["checkpoints"][0]["loc"] += 1
    assert checks.check_history(report, commits, 6)


def _traced_scan(tmp_path: Path, monkeypatch, hooks: tuple) -> "spans.Tracer":
    import slopscope.history

    original = slopscope.history.match_rules
    monkeypatch.setattr(spans, "HOOKS", hooks)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _scan(tmp_path, corpus.wide_tree(7, n_files=14, n_families=2).files)
    finally:
        tracer.uninstall()
    assert slopscope.history.match_rules is original
    return tracer


def test_a_missing_hook_is_reported_and_the_rest_still_traced(tmp_path, monkeypatch):
    tracer = _traced_scan(tmp_path, monkeypatch, spans.HOOKS + (
        ("slopscope.history", "no_such_function", "gone", None),
        ("slopscope.no_such_module", "f", "gone", None),
    ))
    assert tracer.gaps("scan") == ["slopscope.history.no_such_function", "slopscope.no_such_module.f"]
    metrics = tracer.layer_metrics(10.0, 10.0, [], "scan")
    assert metrics["trace.hooks_absent"] == 2
    assert metrics["patterns.find_s.compare-none-eq"] > 0 and metrics["rules.matches"] > 0


def test_untraced_rule_loading_and_uncalled_hooks_are_gaps(tmp_path, monkeypatch):
    # Rules loaded past their hook leave every pattern search without a rule.
    tracer = _traced_scan(tmp_path, monkeypatch, tuple(h for h in spans.HOOKS if h[2] != "rules.load"))
    assert tracer.gaps("scan") == ["patterns.find (rule unknown)"]
    assert tracer.layer_metrics(10.0, 10.0, [], "scan")["trace.hooks_absent"] == 1
    # A scan never reaches the history hooks, which a history command must call.
    assert "history.list (never called)" in tracer.gaps("history")


def test_compare_refuses_records_of_different_corpora(tmp_path, capsys):
    def record(digest: str) -> dict:
        result = {"workload": "scan-wide", "seed": 1, "corpus": {"tree_sha256": digest},
                  "metrics_json": {"wall_s": {"value": 1.0, "unit": "s"}}, "failures": []}
        return {"environment": {"python": "3.11.7", "code_sha256": "0" * 64}, "trace": 0, "smoke": False,
                "results": [result]}

    paths = []
    for name, digest in (("a", "1"), ("b", "2")):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record(digest)))
    assert compare.main([str(p) for p in paths]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_every_workload(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke", "--trace", trace],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = config["per_layer"] if trace == "1" else config["end_to_end"]
    for w in config["workloads"]:
        for spec in specs:
            metric = result["metrics"][f"{w['name']}.{spec['name']}"]
            assert metric["unit"] == spec["unit"]
    if trace == "1":
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert values["history-synth.history.checkpoints"] > 0
        for w in config["workloads"]:
            assert values[f"{w['name']}.trace.hooks_absent"] == 0
        # Every planted rule's pattern search is timed under its own name.
        find_s = [spec["name"] for spec in specs if spec["name"].startswith("patterns.find_s.")]
        assert len(find_s) == 23 and all(values[f"scan-wide.{name}"] > 0 for name in find_s)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-wide", "--seed", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

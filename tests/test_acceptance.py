"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every criterion checks the implementation against an independent oracle
(brute-force recomputation, hand-counted manifests, or frozen fixtures).
"""

from __future__ import annotations

import functools
import json
import math
import random
import resource
import time
from datetime import datetime, timedelta, timezone

import pytest

from slopscope.cli import main
from slopscope.clones import DEFAULT_MIN_WINDOW, detect_clones
from slopscope.erosion import erosion_score, erosion_sensitivity
from slopscope.history import measure_checkpoint, measure_history
from slopscope.model import CallableRecord, SourceInventory
from slopscope.rules import RuleMatch, load_starter_rules
from slopscope.trajectory import bin_phases, era_split, trajectory_summary
from slopscope.verbosity import verbosity_score

from conftest import FIXTURES, all_source, covered_lines, large_tree_files, normalized, write_tree
from test_clones import RENAMED_BLOCK, VERBATIM_BLOCK, brute_force_clone_lines
from test_trajectory import checkpoint


def criterion(label):
    """Print one pass/fail line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")

        return run

    return wrap


def make_inventory(specs):
    callables = tuple(
        CallableRecord(f"f{i}", "m.py", (10 * i + 1, 10 * i + sloc), cc, sloc)
        for i, (cc, sloc) in enumerate(specs)
    )
    return SourceInventory(callables=callables)


@criterion("criterion-01 erosion-random-oracle")
def test_criterion_01_erosion_matches_brute_force():
    rng = random.Random(101)
    started = time.monotonic()
    for _ in range(1000):
        specs = [(rng.randint(1, 60), rng.randint(1, 800)) for _ in range(rng.randint(0, 80))]
        got = erosion_score(make_inventory(specs)).score
        total = sum(cc * sloc**0.5 for cc, sloc in specs)
        high = sum(cc * sloc**0.5 for cc, sloc in specs if cc > 10)
        want = high / total if total > 0 else 0.0
        assert math.isclose(got, want, abs_tol=1e-12)
    assert time.monotonic() - started < 5.0


@criterion("criterion-02 sensitivity-grid")
def test_criterion_02_sweep_grid_and_default_cell():
    rng = random.Random(202)
    for _ in range(50):
        specs = [(rng.randint(1, 40), rng.randint(1, 400)) for _ in range(rng.randint(1, 40))]
        inv = make_inventory(specs)
        rows = erosion_sensitivity(inv)
        assert [(c, e) for c, e, _ in rows] == [
            (c, e) for c in (8, 10, 12) for e in (0.0, 0.5, 1.0)
        ]
        by_cell = {(c, e): s for c, e, s in rows}
        # The default-parameter score must be bit-identical to its sweep cell.
        assert by_cell[(10, 0.5)] == erosion_score(inv).score


@criterion("criterion-03 hand-counted-complexity")
def test_criterion_03_cc_corpus_exact():
    with open(FIXTURES / "cc_corpus" / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert len(manifest) >= 30
    inv = measure_checkpoint(FIXTURES / "cc_corpus").inventory
    by_key = {f"{c.file}::{c.qualified_name}": c for c in inv.callables}
    assert set(by_key) == set(manifest)
    for key, expected in manifest.items():
        assert by_key[key].cc == expected["cc"], key
        assert by_key[key].sloc == expected["sloc"], key


@criterion("criterion-04 verbosity-oracle")
def test_criterion_04_verbosity_random_cases():
    def flag(*lines):
        return RuleMatch("r", "m.py", (lines[0], 1), (lines[-1], 80), tuple(lines))

    rng = random.Random(404)
    for _ in range(1000):
        loc = rng.randint(1, 300)
        flagged = {rng.randint(1, loc) for _ in range(rng.randint(0, 30))}
        matches = [flag(n) for n in sorted(flagged)]
        result = verbosity_score({"m.py": all_source(loc)}, matches, [])
        assert 0.0 <= result.score <= 1.0
        assert result.score == pytest.approx(len(flagged) / loc, abs=1e-12)
        # Duplicating every match must not change the score.
        doubled = verbosity_score({"m.py": all_source(loc)}, matches + matches, [])
        assert doubled.score == result.score
    from slopscope.clones import CloneRegion

    worked = verbosity_score(
        {"m.py": all_source(10)},
        [flag(1), flag(2), flag(3)],
        [CloneRegion(0, "m.py", (3, 4), "f", (3, 4))],
    )
    assert worked.score == pytest.approx(0.4, abs=1e-12)


@criterion("criterion-05 clone-detection")
def test_criterion_05_clone_oracle_and_examples():
    # A verbatim 12-line duplicate and its identifier-renamed twin.
    assert len(VERBATIM_BLOCK.splitlines()) >= 8
    verbatim = detect_clones(normalized({"a.py": VERBATIM_BLOCK, "b.py": VERBATIM_BLOCK}))
    assert {r.file for r in verbatim} == {"a.py", "b.py"}
    renamed = detect_clones(normalized({"a.py": VERBATIM_BLOCK, "b.py": RENAMED_BLOCK}))
    assert {r.file for r in renamed} == {"a.py", "b.py"}

    rng = random.Random(505)
    stmts = [
        "x{i} = compute({a}, {b})",
        "y{i} = x{i} + {a}",
        "items{i} = [v * {b} for v in data]",
        "total{i} = sum(items{i})",
        "print(total{i})",
    ]
    for _ in range(60):
        texts = {}
        for fi in range(rng.randint(1, 4)):
            lines = [
                rng.choice(stmts).format(i=i, a=rng.randint(0, 9), b=rng.randint(0, 9))
                for i in range(rng.randint(0, 120))
            ]
            body = "\n".join(lines) + "\n"
            if texts and rng.random() < 0.6:
                donor = texts[rng.choice(sorted(texts))].splitlines()
                if len(donor) >= DEFAULT_MIN_WINDOW:
                    cut = rng.randrange(len(donor) - DEFAULT_MIN_WINDOW + 1)
                    body += "\n".join(donor[cut : cut + DEFAULT_MIN_WINDOW + 2]) + "\n"
            texts[f"f{fi}.py"] = body
        assert covered_lines(detect_clones(normalized(texts))) == brute_force_clone_lines(texts)


# Each shape spans at least the clone window, so a verbatim file copy is
# always visible to the clone detector.
FUNCTION_SHAPES = [
    (
        "def {name}(a, b):\n"
        "    if a > b:\n"
        "        bigger = a\n"
        "    else:\n"
        "        bigger = b\n"
        "    scaled = bigger * 2\n"
        "    shifted = scaled + 1\n"
        "    return shifted\n"
    ),
    (
        "def {name}(xs):\n"
        "    out = [x for x in xs]\n"
        "    total = sum(out)\n"
        "    largest = max(out, default=0)\n"
        "    smallest = min(out, default=0)\n"
        "    spread = largest - smallest\n"
        "    return total, spread\n"
    ),
    (
        "def {name}(code, v):\n"
        + "".join(f"    if code == {i}:\n        v = v {op} {i}\n" for i, op in enumerate(["+", "-", "*", "//", "%", "&", "|", "^", ">>", "<<", "+", "-"], 1))
        + "    return v\n"
    ),
    (
        "def {name}(n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        total += i\n"
        "    doubled = total * 2\n"
        "    halved = doubled // 2\n"
        "    return halved\n"
    ),
]


def _measure_tree(root):
    analysis = measure_checkpoint(root, rules=load_starter_rules())
    return analysis.erosion.score, analysis.verbosity.score


@criterion("criterion-06 duplication-independence")
def test_criterion_06_whole_file_duplication(tmp_path):
    rng = random.Random(606)
    for trial in range(20):
        files = {}
        for fi in range(rng.randint(1, 3)):
            shape = rng.choice(FUNCTION_SHAPES)
            files[f"m{fi}.py"] = shape.format(name=f"fn_{trial}_{fi}")
        plain = write_tree(tmp_path / f"plain{trial}", files)
        doubled_files = dict(files)
        doubled_files.update({f"dup_{k}": v for k, v in files.items()})
        doubled = write_tree(tmp_path / f"doubled{trial}", doubled_files)

        erosion_a, verbosity_a = _measure_tree(plain)
        erosion_b, verbosity_b = _measure_tree(doubled)
        assert erosion_b == pytest.approx(erosion_a, abs=1e-12)
        if verbosity_a < 1.0:
            assert verbosity_b > verbosity_a


@criterion("criterion-07 phase-binning")
def test_criterion_07_phases():
    assert bin_phases(8) == [
        "Start", "Early", "Early", "Mid", "Mid", "Late", "Late", "Final",
    ]
    order = {"Early": 0, "Mid": 1, "Late": 2}
    for n in range(3, 9):
        phases = bin_phases(n)
        assert phases[0] == "Start" and phases[-1] == "Final"
        ranks = [order[p] for p in phases[1:-1]]
        assert ranks == sorted(ranks)


@criterion("criterion-08 trajectory-statistics")
def test_criterion_08_slopes_rising_and_era():
    series = [checkpoint(i, erosion=v) for i, v in enumerate([0.2, 0.3, 0.4])]
    summary = trajectory_summary(series)
    assert summary.slope_erosion == pytest.approx(0.1, abs=1e-9)
    assert summary.rising_erosion is True
    flat = [checkpoint(i, erosion=0.2) for i in range(3)]
    assert trajectory_summary(flat).rising_erosion is False

    rng = random.Random(808)
    base = datetime(2021, 6, 1, tzinfo=timezone.utc)
    boundary = datetime(2024, 1, 1, tzinfo=timezone.utc)
    for _ in range(10_000):
        n = rng.randint(1, 10)
        stamps = [base + timedelta(hours=rng.randint(0, 40_000)) for _ in range(n)]
        stamps.sort()
        series = [checkpoint(i, when=ts) for i, ts in enumerate(stamps)]
        n_pre = sum(ts < boundary for ts in stamps)
        expect = n_pre >= 3 and (n - n_pre) >= 3
        assert era_split(series).eligible == expect


@criterion("criterion-09 history-manifest")
def test_criterion_09_fixture_repo(history_repo):
    with open(FIXTURES / "history_manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    result = measure_history(history_repo, max_commits=30, seed=0)
    assert len(result.checkpoints) == len(manifest["checkpoints"])
    for got, want in zip(result.checkpoints, manifest["checkpoints"]):
        assert got.verbosity.loc == want["loc"]
        assert got.phase == want["phase"]
        assert abs(got.erosion.score - want["erosion"]) < 1e-9
        assert abs(got.verbosity.score - want["verbosity"]) < 1e-9
    assert result.summary.rising_erosion is True
    assert result.summary.rising_verbosity is True


@criterion("criterion-10 deterministic-output")
def test_criterion_10_byte_identical_reports(capsys, tmp_path, history_repo):
    write_tree(
        tmp_path / "tree",
        {"app.py": "def pick(flags):\n    chosen = [f for f in flags]\n    return chosen\n"},
    )

    def run(*argv):
        code = main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    scans = {run("scan", str(tmp_path / "tree"), "--deterministic") for _ in range(4)}
    assert len(scans) == 1
    histories = {
        run("history", str(history_repo), "--seed", "5", "--deterministic")
        for _ in range(2)
    }
    assert len(histories) == 1


@criterion("criterion-11 scale-budget")
def test_criterion_11_large_tree_within_budget(tmp_path):
    write_tree(tmp_path, large_tree_files())

    started = time.monotonic()
    inv = measure_checkpoint(tmp_path).inventory
    elapsed = time.monotonic() - started
    assert inv.total_loc >= 100_000
    assert elapsed < 60.0, f"scan took {elapsed:.1f}s"
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kib < 1024 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"


@criterion("criterion-12 full-pipeline-budget")
def test_criterion_12_full_pipeline_within_budget(tmp_path):
    # The criterion-11 tree through every layer a checkpoint runs: scan,
    # every starter rule, clone detection, erosion and verbosity.
    write_tree(tmp_path, large_tree_files())

    started = time.monotonic()
    analysis = measure_checkpoint(tmp_path, rules=load_starter_rules())
    elapsed = time.monotonic() - started
    assert analysis.inventory.total_loc >= 100_000
    assert elapsed < 30.0, f"measure_checkpoint took {elapsed:.1f}s"
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kib < 1024 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"

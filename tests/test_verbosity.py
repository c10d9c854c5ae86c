from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from slopscope.clones import CloneRegion, detect_clones
from slopscope.erosion import erosion_score
from slopscope.history import measured_lines, scan_tree_with_sources
from slopscope.rules import RuleMatch, load_starter_rules
from slopscope.scan import DEFAULT_MIN_WINDOW, ScanConfig, read_tree
from slopscope.verbosity import ConsistencyError, verbosity_score

from conftest import all_source, write_tree


def flag(file: str, *lines: int, rule_id: str = "r") -> RuleMatch:
    return RuleMatch(
        rule_id=rule_id,
        file=file,
        start=(lines[0], 1),
        end=(lines[-1], 80),
        lines=tuple(lines),
    )


def clone(file: str, *lines: int, class_id: int = 0) -> CloneRegion:
    return CloneRegion(
        clone_class_id=class_id,
        file=file,
        start_line=lines[0],
        end_line=lines[-1],
        fingerprint="f",
        lines=tuple(lines),
    )


class TestWorkedExample:
    def test_union_over_loc(self):
        # 10 LOC, flagged {1, 2, 3}, cloned {3, 4}: union of 4 lines.
        result = verbosity_score(
            {"m.py": all_source(10)}, [flag("m.py", 1, 2, 3)], [clone("m.py", 3, 4)]
        )
        assert result.score == pytest.approx(0.4)
        assert result.union_lines == 4
        assert result.violation_density == pytest.approx(0.3)
        assert result.clone_ratio == pytest.approx(0.2)

    def test_empty_inputs_score_zero(self):
        assert verbosity_score({}, [], []).score == 0.0
        assert verbosity_score({"m.py": all_source(10)}, [], []).score == 0.0


class TestDeduplication:
    def test_overlapping_rules_count_once(self):
        single = verbosity_score({"m.py": all_source(10)}, [flag("m.py", 2, 3)], [])
        doubled = verbosity_score(
            {"m.py": all_source(10)},
            [flag("m.py", 2, 3, rule_id="a"), flag("m.py", 2, 3, rule_id="b")],
            [],
        )
        assert single.score == doubled.score

    def test_rule_and_clone_overlap_counts_once(self):
        result = verbosity_score({"m.py": all_source(10)}, [flag("m.py", 5)], [clone("m.py", 5)])
        assert result.union_lines == 1

    def test_same_line_in_different_files_distinct(self):
        result = verbosity_score(
            {"a.py": all_source(5), "b.py": all_source(5)}, [flag("a.py", 1), flag("b.py", 1)], []
        )
        assert result.union_lines == 2


class TestConsistency:
    def test_unknown_file_rejected(self):
        with pytest.raises(ConsistencyError):
            verbosity_score({"m.py": all_source(10)}, [flag("ghost.py", 1)], [])

    def test_clone_in_unknown_file_rejected(self):
        with pytest.raises(ConsistencyError):
            verbosity_score({"m.py": all_source(10)}, [], [clone("ghost.py", 1)])

    def test_out_of_bounds_line_rejected(self):
        for line in (0, 11):
            with pytest.raises(ConsistencyError):
                verbosity_score({"m.py": all_source(10)}, [flag("m.py", line)], [])
            with pytest.raises(ConsistencyError):
                verbosity_score({"m.py": all_source(10)}, [], [clone("m.py", 5, line)])

    def test_blank_lines_restricted_out(self):
        result = verbosity_score({"m.py": (4, frozenset({1, 3, 4}))}, [flag("m.py", 1, 2, 3, 4)], [])
        assert result.union_lines == 3
        assert result.loc == 3
        assert result.score == 1.0


class TestProperties:
    @given(
        st.integers(1, 200),
        st.sets(st.integers(1, 200), max_size=40),
        st.sets(st.integers(1, 200), max_size=40),
    )
    def test_bounded_and_matches_set_arithmetic(self, loc, flagged, cloned):
        flagged = {n for n in flagged if n <= loc}
        cloned = {n for n in cloned if n <= loc}
        matches = [flag("m.py", n) for n in sorted(flagged)]
        clones = [clone("m.py", n) for n in sorted(cloned)] if cloned else []
        result = verbosity_score({"m.py": all_source(loc)}, matches, clones)
        assert result.score == pytest.approx(len(flagged | cloned) / loc)
        assert 0.0 <= result.score <= 1.0

    @given(st.sets(st.integers(1, 50), min_size=1, max_size=20))
    def test_monotone_in_flagged_lines(self, flagged):
        base = verbosity_score({"m.py": all_source(50)}, [flag("m.py", n) for n in sorted(flagged)], [])
        extra = (set(range(1, 51)) - flagged).pop() if flagged != set(range(1, 51)) else None
        if extra is not None:
            more = verbosity_score(
                {"m.py": all_source(50)}, [flag("m.py", n) for n in sorted(flagged | {extra})], []
            )
            assert more.score > base.score


SLOPPY_MODULE = """\
def pick(flags):
    chosen = [f for f in flags]
    if len(chosen) == 0:
        return None
    value = chosen[0]
    return value
"""


class TestWholeFileDuplication:
    """Duplicating every file verbatim must leave erosion untouched while
    verbosity can only go up: the clone detector sees each file twice."""

    def _measure(self, root):
        inv, files = _analyse_tree(root)
        matches = [m for f in files.values() for m in f.matches]
        clones = detect_clones([f.normalized for f in files.values()], DEFAULT_MIN_WINDOW)
        verbosity = verbosity_score(measured_lines(files), matches, clones)
        return erosion_score(inv).score, verbosity.score

    def test_erosion_fixed_verbosity_raised(self, tmp_path):
        rng = random.Random(11)
        for trial in range(5):
            plain = tmp_path / f"plain{trial}"
            doubled = tmp_path / f"doubled{trial}"
            files = {}
            for i in range(rng.randint(1, 3)):
                files[f"mod{i}.py"] = SLOPPY_MODULE.replace("pick", f"pick{trial}_{i}")
            write_tree(plain, files)
            write_tree(doubled, files)
            write_tree(doubled, {f"copy_{k}": v for k, v in files.items()})

            erosion_a, verbosity_a = self._measure(plain)
            erosion_b, verbosity_b = self._measure(doubled)
            assert erosion_b == pytest.approx(erosion_a, abs=1e-12)
            if verbosity_a < 1.0:
                assert verbosity_b > verbosity_a


def _analyse_tree(root):
    config = ScanConfig(rules=load_starter_rules())
    return scan_tree_with_sources(read_tree(root, config), config)


def test_fixture_module_end_to_end(tmp_path):
    write_tree(tmp_path, {"m.py": SLOPPY_MODULE})
    _, files = _analyse_tree(tmp_path)
    matches = list(files["m.py"].matches)
    # identity-comprehension on line 2, len-eq-zero guard on line 3,
    # single-use-return on lines 5-6.
    hit_lines = {line for m in matches for line in m.lines}
    assert {2, 3, 5, 6} <= hit_lines
    result = verbosity_score(measured_lines(files), matches, [])
    assert result.score > 0.5

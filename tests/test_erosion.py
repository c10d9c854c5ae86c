from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from slopscope import measure_checkpoint
from slopscope.erosion import (
    HOTSPOT_LIMIT,
    complexity_mass,
    erosion_score,
    erosion_sensitivity,
)
from slopscope.scan import CallableRecord, SourceInventory


def make_inventory(specs: list[tuple[int, int]]) -> SourceInventory:
    callables = tuple(
        CallableRecord(f"f{i}", "m.py", 10 * i + 1, 10 * i + sloc, cc, sloc)
        for i, (cc, sloc) in enumerate(specs)
    )
    return SourceInventory(callables=callables)


def brute_force_erosion(specs: list[tuple[int, int]], cutoff: int = 10, exp: float = 0.5) -> float:
    total = sum(cc * sloc**exp for cc, sloc in specs)
    high = sum(cc * sloc**exp for cc, sloc in specs if cc > cutoff)
    return high / total if total > 0 else 0.0


class TestComplexityMass:
    def test_identity_case(self):
        assert complexity_mass(1, 1, 0.5) == 1.0

    def test_sqrt_default(self):
        assert complexity_mass(12, 100, 0.5) == pytest.approx(120.0)

    def test_no_size_term(self):
        assert complexity_mass(12, 100, 0.0) == pytest.approx(12.0)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            complexity_mass(0, 5)


class TestErosionScore:
    def test_nothing_above_cutoff(self):
        assert erosion_score(make_inventory([(3, 10), (10, 40)])).score == 0.0

    def test_single_qualifying_callable(self):
        assert erosion_score(make_inventory([(15, 49)])).score == 1.0

    def test_worked_example(self):
        report = erosion_score(make_inventory([(12, 100), (4, 25)]))
        assert report.score == pytest.approx(120 / 140)
        assert report.total_mass == pytest.approx(140.0)
        assert report.high_cc_mass == pytest.approx(120.0)
        assert report.high_cc_count == 1
        assert report.max_cc == 12

    def test_cutoff_is_strict(self):
        report = erosion_score(make_inventory([(10, 25), (12, 25)]))
        assert report.high_cc_count == 1
        assert report.score == pytest.approx((12 * 5) / (10 * 5 + 12 * 5))

    def test_empty_inventory_scores_zero(self):
        report = erosion_score(SourceInventory())
        assert report.score == 0.0 and report.total_mass == 0.0

    def test_hotspots_ranked_by_mass_then_position(self):
        inv = make_inventory([(4, 25), (12, 100), (4, 25)])
        names = [c.qualified_name for c, _ in erosion_score(inv).hotspots]
        assert names == ["f1", "f0", "f2"]

    def test_hotspots_keep_the_heaviest_twenty(self):
        specs = [(1 + (7 * i) % 13, 1 + (11 * i) % 17) for i in range(25)]
        inv = make_inventory(specs)
        ranking = sorted(inv.callables, key=lambda c: (-complexity_mass(c.cc, c.sloc), c.file, c.start_line))
        hotspots = erosion_score(inv).hotspots
        assert HOTSPOT_LIMIT == 20
        assert [c for c, _ in hotspots] == ranking[:20]
        assert [mass for _, mass in hotspots] == [complexity_mass(c.cc, c.sloc) for c in ranking[:20]]

    def test_hotspots_are_the_head_of_the_full_ranking(self):
        """Many callables tie on mass, file and first line: the kept hotspots
        are still the first twenty of the whole stable ranking."""
        rng = random.Random(3)
        for size in (0, 19, 20, 21, 60, 200):
            callables = tuple(
                CallableRecord(f"f{i}", rng.choice(["a.py", "b.py"]), line, line + 1, rng.randint(1, 4), 2)
                for i, line in enumerate(rng.randint(1, 5) for _ in range(size))
            )
            ranking = sorted(callables, key=lambda c: (-complexity_mass(c.cc, c.sloc), c.file, c.start_line))
            hotspots = erosion_score(SourceInventory(callables=callables)).hotspots
            assert [c for c, _ in hotspots] == ranking[:HOTSPOT_LIMIT]


class TestSensitivitySweep:
    def test_empty_inventory_all_zero(self):
        rows = erosion_sensitivity(SourceInventory())
        assert len(rows) == 9
        assert all(score == 0.0 for _, _, score in rows)

    def test_grid_shape(self):
        rows = erosion_sensitivity(make_inventory([(12, 100)]))
        assert [(c, e) for c, e, _ in rows] == [
            (c, e) for c in (8, 10, 12) for e in (0.0, 0.5, 1.0)
        ]

    def test_worked_example_rows(self):
        rows = {(c, e): s for c, e, s in erosion_sensitivity(make_inventory([(12, 100), (4, 25)]))}
        assert rows[(10, 0.5)] == pytest.approx(120 / 140)
        assert rows[(10, 0.0)] == pytest.approx(12 / 16)

    def test_default_cell_is_bit_exact(self):
        inv = make_inventory([(13, 7), (9, 31), (25, 120)])
        rows = {(c, e): s for c, e, s in erosion_sensitivity(inv)}
        assert rows[(10, 0.5)] == erosion_score(inv).score

    def test_every_cell_is_the_score_with_its_params(self, cc_corpus):
        rng = random.Random(11)
        inventories = [measure_checkpoint(cc_corpus).inventory] + [
            make_inventory([(rng.randint(1, 40), rng.randint(1, 500)) for _ in range(rng.randint(0, 60))])
            for _ in range(50)
        ]
        for inv in inventories:
            specs = [(c.cc, c.sloc) for c in inv.callables]
            for cutoff, exponent, score in erosion_sensitivity(inv):
                assert score == pytest.approx(brute_force_erosion(specs, cutoff, exponent), rel=1e-12, abs=0)
                if (cutoff, exponent) == (10, 0.5):
                    assert score == erosion_score(inv).score

    def test_all_below_eight_all_zero(self):
        rows = erosion_sensitivity(make_inventory([(8, 50), (3, 10)]))
        assert all(s == 0.0 for _, _, s in rows)


specs_strategy = st.lists(
    st.tuples(st.integers(1, 40), st.integers(1, 500)), min_size=0, max_size=50
)


class TestProperties:
    @given(specs_strategy)
    def test_score_bounded(self, specs):
        assert 0.0 <= erosion_score(make_inventory(specs)).score <= 1.0

    @given(specs_strategy)
    def test_matches_brute_force(self, specs):
        got = erosion_score(make_inventory(specs)).score
        assert got == pytest.approx(brute_force_erosion(specs), abs=1e-12)

    @given(specs_strategy)
    def test_appending_high_cc_raises_score(self, specs):
        before = erosion_score(make_inventory(specs)).score
        after = erosion_score(make_inventory(specs + [(20, 10)])).score
        if before < 1.0:
            assert after > before

    @given(specs_strategy)
    def test_appending_low_cc_lowers_score(self, specs):
        before = erosion_score(make_inventory(specs)).score
        after = erosion_score(make_inventory(specs + [(2, 10)])).score
        if before > 0.0:
            assert after < before

    @given(specs_strategy)
    def test_duplication_invariance(self, specs):
        once = erosion_score(make_inventory(specs)).score
        twice = erosion_score(make_inventory(specs + specs)).score
        assert twice == pytest.approx(once, abs=1e-12)


def test_random_inventories_against_oracle():
    rng = random.Random(7)
    for _ in range(500):
        specs = [(rng.randint(1, 40), rng.randint(1, 500)) for _ in range(rng.randint(0, 50))]
        got = erosion_score(make_inventory(specs)).score
        assert math.isclose(got, brute_force_erosion(specs), abs_tol=1e-12)

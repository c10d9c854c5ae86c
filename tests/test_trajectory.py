from __future__ import annotations

import random
import statistics
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from slopscope.erosion import ErosionReport
from slopscope.panel import RepoPanelEntry, panel_aggregate, star_tier
from slopscope.trajectory import (
    CheckpointMetrics,
    bin_phases,
    era_split,
    median,
    trajectory_summary,
)
from slopscope.verbosity import VerbosityBreakdown


def fake_erosion(score: float) -> ErosionReport:
    return ErosionReport(
        score=score,
        total_mass=100.0,
        high_cc_mass=score * 100.0,
        high_cc_count=1 if score > 0 else 0,
        max_cc=12 if score > 0 else 1,
        hotspots=(),
    )


def fake_verbosity(score: float) -> VerbosityBreakdown:
    return VerbosityBreakdown(
        score=score,
        flagged_lines=0,
        clone_lines=0,
        union_lines=int(score * 100),
        loc=100,
        violation_density=score,
        clone_ratio=0.0,
    )


def checkpoint(
    index: int,
    erosion: float = 0.0,
    verbosity: float = 0.0,
    when: datetime = datetime(2023, 6, 1, tzinfo=timezone.utc),
) -> CheckpointMetrics:
    return CheckpointMetrics(
        index=index,
        label=f"cp{index}",
        erosion=fake_erosion(erosion),
        verbosity=fake_verbosity(verbosity),
        phase="Mid",
        timestamp=when,
    )


class TestBinPhases:
    def test_two_checkpoints(self):
        assert bin_phases(2) == ["Start", "Final"]

    def test_three_checkpoints(self):
        assert bin_phases(3) == ["Start", "Mid", "Final"]

    def test_eight_checkpoints(self):
        assert bin_phases(8) == [
            "Start", "Early", "Early", "Mid", "Mid", "Late", "Late", "Final",
        ]

    def test_single_checkpoint(self):
        assert bin_phases(1) == ["Start"]

    def test_interior_phases_nondecreasing(self):
        order = {"Early": 0, "Mid": 1, "Late": 2}
        for n in range(3, 40):
            interior = bin_phases(n)[1:-1]
            ranks = [order[p] for p in interior]
            assert ranks == sorted(ranks), f"n={n}"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bin_phases(0)


class TestTrajectorySummary:
    def test_linear_series_slope(self):
        series = [checkpoint(i, erosion=v) for i, v in enumerate([0.2, 0.3, 0.4])]
        summary = trajectory_summary(series)
        assert summary.slope_erosion == pytest.approx(0.1, abs=1e-9)
        assert summary.rising_erosion is True
        assert summary.growth_pct_erosion == pytest.approx(100.0)

    def test_rising_is_endpoint_comparison(self):
        series = [checkpoint(i, verbosity=v) for i, v in enumerate([0.10, 0.05, 0.12])]
        summary = trajectory_summary(series)
        assert summary.rising_verbosity is True

    def test_flat_endpoints_not_rising(self):
        series = [checkpoint(i, erosion=v) for i, v in enumerate([0.2, 0.9, 0.2])]
        assert trajectory_summary(series).rising_erosion is False

    def test_single_checkpoint(self):
        summary = trajectory_summary([checkpoint(0, erosion=0.5)])
        assert summary.slope_erosion == 0.0
        assert summary.rising_erosion is False
        assert summary.growth_pct_erosion == 0.0

    def test_missing_checkpoints_reported_not_imputed(self):
        series = [checkpoint(i, erosion=0.1 * i) for i in (0, 1, 4)]
        summary = trajectory_summary(series)
        assert summary.missing_checkpoints == (2, 3)
        assert summary.n_checkpoints == 3

    def test_growth_from_zero_is_undefined(self):
        series = [checkpoint(0, erosion=0.0), checkpoint(1, erosion=0.3)]
        assert trajectory_summary(series).growth_pct_erosion is None

    def test_slope_matches_closed_form(self):
        rng = random.Random(3)
        for _ in range(50):
            values = [rng.random() for _ in range(rng.randint(2, 12))]
            series = [checkpoint(i, erosion=v) for i, v in enumerate(values)]
            n = len(values)
            mean_x = (n - 1) / 2
            mean_y = sum(values) / n
            sxx = sum((i - mean_x) ** 2 for i in range(n))
            sxy = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
            assert trajectory_summary(series).slope_erosion == pytest.approx(
                sxy / sxx, abs=1e-9
            )


def timed(index: int, when: str, erosion: float = 0.0, verbosity: float = 0.0):
    return checkpoint(
        index, erosion, verbosity, datetime.fromisoformat(when).astimezone(timezone.utc)
    )


class TestEraSplit:
    def test_eligible_split_with_shift(self):
        series = [
            timed(0, "2023-01-01T00:00:00+00:00", erosion=0.10),
            timed(1, "2023-05-01T00:00:00+00:00", erosion=0.11),
            timed(2, "2023-09-01T00:00:00+00:00", erosion=0.12),
            timed(3, "2024-02-01T00:00:00+00:00", erosion=0.12),
            timed(4, "2024-06-01T00:00:00+00:00", erosion=0.13),
            timed(5, "2024-10-01T00:00:00+00:00", erosion=0.14),
        ]
        shift = era_split(series)
        assert shift.eligible is True
        assert shift.pre_median_erosion == pytest.approx(0.11)
        assert shift.post_median_erosion == pytest.approx(0.13)
        assert shift.shift_erosion == pytest.approx(0.02)

    def test_two_pre_checkpoints_ineligible(self):
        series = [
            timed(0, "2023-06-01T00:00:00+00:00"),
            timed(1, "2023-09-01T00:00:00+00:00"),
            timed(2, "2024-02-01T00:00:00+00:00"),
            timed(3, "2024-03-01T00:00:00+00:00"),
            timed(4, "2024-04-01T00:00:00+00:00"),
        ]
        assert era_split(series).eligible is False

    def test_cutoff_midnight_counts_as_post(self):
        pre = [timed(i, f"2023-0{i + 1}-01T00:00:00+00:00") for i in range(3)]
        boundary = [
            timed(3, "2024-01-01T00:00:00+00:00"),
            timed(4, "2024-01-02T00:00:00+00:00"),
            timed(5, "2024-01-03T00:00:00+00:00"),
        ]
        assert era_split(pre + boundary).eligible is True
        # One second earlier and the boundary checkpoint flips to pre.
        almost = [
            timed(3, "2023-12-31T23:59:59+00:00"),
            timed(4, "2024-01-02T00:00:00+00:00"),
            timed(5, "2024-01-03T00:00:00+00:00"),
        ]
        assert era_split(pre + almost).eligible is False

    def test_custom_cutoff(self):
        series = [
            timed(i, f"2022-0{i + 1}-01T00:00:00+00:00") for i in range(3)
        ] + [timed(3 + i, f"2023-0{i + 1}-01T00:00:00+00:00") for i in range(3)]
        assert era_split(series, cutoff=date(2023, 1, 1)).eligible is True
        assert era_split(series).eligible is False

    def test_randomized_eligibility(self):
        rng = random.Random(9)
        base = datetime(2022, 1, 1, tzinfo=timezone.utc)
        boundary = datetime(2024, 1, 1, tzinfo=timezone.utc)
        for _ in range(300):
            n = rng.randint(1, 12)
            stamps = sorted(
                base + timedelta(days=rng.randint(0, 1500)) for _ in range(n)
            )
            series = [
                checkpoint(i, erosion=rng.random(), when=ts)
                for i, ts in enumerate(stamps)
            ]
            n_pre = sum(ts < boundary for ts in stamps)
            n_post = n - n_pre
            assert era_split(series).eligible == (n_pre >= 3 and n_post >= 3)


# Finite floats, subnormals included, mixed with a few values drawn often
# enough to tie: both zeros, the smallest subnormals and negatives.
SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.5, 0.25]),
)


@pytest.mark.parametrize("parity", [0, 1])
@given(values=st.lists(SCORES, min_size=2, max_size=40))
def test_median_is_bit_equal_to_statistics_median(parity, values):
    """Odd and even lengths: the middle value itself, or the same
    ``(a + b) / 2`` of the two middle values."""
    if len(values) % 2 != parity:
        values = values[1:]
    assert median(iter(values)).hex() == statistics.median(values).hex()


def entry(
    repo_id: str,
    stars: int,
    head_erosion: float,
    head_verbosity: float,
    slope_erosion: float = 0.0,
    rising: bool = False,
) -> RepoPanelEntry:
    first_scale = 0.5 if rising else 1.0
    series = [
        checkpoint(
            0, erosion=head_erosion * first_scale, verbosity=head_verbosity * first_scale
        ),
        checkpoint(1, erosion=head_erosion, verbosity=head_verbosity),
    ]
    summary = trajectory_summary(series)
    if slope_erosion:
        summary = summary._replace(slope_erosion=slope_erosion)
    return RepoPanelEntry(
        repo_id=repo_id,
        star_tier=star_tier(stars),
        head_metrics=series[-1],
        trajectory=summary,
        era=era_split(series),  # two checkpoints: not eligible
    )


class TestStarTier:
    @pytest.mark.parametrize(
        "stars,tier",
        [
            (0, "Hobby"),
            (99, "Hobby"),
            (100, "Niche"),
            (999, "Niche"),
            (1_000, "Established"),
            (9_999, "Established"),
            (10_000, "Major"),
            (250_000, "Major"),
        ],
    )
    def test_cut_points(self, stars, tier):
        assert star_tier(stars) == tier


class TestPanelAggregate:
    def test_single_repo(self):
        report = panel_aggregate([entry("r1", 50, 0.4, 0.6)])
        assert report.overall.n == 1
        assert report.overall.mean_erosion == pytest.approx(0.4)
        assert report.overall.std_erosion == 0.0
        assert list(report.tiers) == ["Hobby"]

    def test_two_repo_mean(self):
        report = panel_aggregate(
            [entry("r1", 50, 0.1, 0.1), entry("r2", 200, 0.3, 0.3)]
        )
        assert report.overall.mean_verbosity == pytest.approx(0.2)
        assert report.overall.std_verbosity == pytest.approx(
            statistics.pstdev([0.1, 0.3])
        )
        assert set(report.tiers) == {"Hobby", "Niche"}

    def test_rising_fraction(self):
        entries = [
            entry("a", 10, 0.2, 0.2, rising=True),
            entry("b", 10, 0.2, 0.2, rising=True),
            entry("c", 10, 0.2, 0.2, rising=False),
            entry("d", 10, 0.2, 0.2, rising=False),
        ]
        report = panel_aggregate(entries)
        assert report.rising_fraction_erosion == pytest.approx(0.5)

    def test_permutation_invariance(self):
        entries = [
            entry(f"repo{i}", stars, e, v)
            for i, (stars, e, v) in enumerate(
                [(5, 0.1, 0.2), (500, 0.5, 0.4), (5000, 0.3, 0.9), (50000, 0.7, 0.1)]
            )
        ]
        forward = panel_aggregate(entries)
        backward = panel_aggregate(list(reversed(entries)))
        assert forward == backward

    def test_exceedance_is_strict(self):
        entries = [entry("a", 10, 0.2, 0.5), entry("b", 10, 0.2, 0.7)]
        report = panel_aggregate(entries, reference_mean_verbosity=0.5)
        assert report.exceed_reference_verbosity == pytest.approx(0.5)

    def test_six_repo_manifest(self):
        specs = [
            ("alpha", 20, 0.10, 0.30),
            ("bravo", 80, 0.20, 0.40),
            ("charlie", 150, 0.30, 0.50),
            ("delta", 2_000, 0.40, 0.60),
            ("echo", 15_000, 0.50, 0.70),
            ("foxtrot", 90_000, 0.60, 0.80),
        ]
        entries = [entry(rid, s, e, v) for rid, s, e, v in specs]
        report = panel_aggregate(entries)
        assert report.overall.n == 6
        assert report.overall.mean_erosion == pytest.approx(0.35)
        assert report.overall.mean_verbosity == pytest.approx(0.55)
        assert report.tiers["Hobby"].n == 2
        assert report.tiers["Major"].n == 2
        assert report.tiers["Hobby"].mean_erosion == pytest.approx(0.15)
        assert report.n_era_eligible == 0
        assert report.median_era_shift_erosion is None

    def test_median_slope(self):
        entries = [
            entry("a", 10, 0.2, 0.2, slope_erosion=0.01),
            entry("b", 10, 0.2, 0.2, slope_erosion=0.05),
            entry("c", 10, 0.2, 0.2, slope_erosion=0.09),
        ]
        assert panel_aggregate(entries).median_slope_erosion == pytest.approx(0.05)

    def test_failed_repos_carried_through(self):
        zzz, bad = {"repo_id": "zzz", "reason": "gone"}, {"repo_id": "bad", "reason": "not a git repository"}
        report = panel_aggregate([entry("ok", 10, 0.2, 0.2)], failed=(zzz, bad))
        assert report.failed == (bad, zzz)

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError):
            panel_aggregate([])

"""Trajectory analytics: phase bins, slopes, rising flags, era splits."""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

# The C module defines the three classes ``datetime`` re-exports, without
# loading ``datetime.py``; ``history``, ``report`` and ``cli`` import them
# from here.
try:
    from _datetime import date, datetime, timezone
except ImportError:  # a Python built without it
    from datetime import date, datetime, timezone

from .erosion import ErosionReport
from .verbosity import VerbosityBreakdown

PHASES = ("Start", "Early", "Mid", "Late", "Final")
DEFAULT_ERA_CUTOFF = date(2024, 1, 1)


class CheckpointMetrics(NamedTuple):
    index: int
    label: str
    erosion: ErosionReport
    verbosity: VerbosityBreakdown
    phase: str
    timestamp: datetime
    skipped: tuple[tuple[str, str], ...] = ()  # (path, reason) of each file not measured


class TrajectorySummary(NamedTuple):
    n_checkpoints: int
    first_erosion: float
    last_erosion: float
    first_verbosity: float
    last_verbosity: float
    rising_erosion: bool
    rising_verbosity: bool
    slope_erosion: float
    slope_verbosity: float
    growth_pct_erosion: float | None
    growth_pct_verbosity: float | None
    missing_checkpoints: tuple[int, ...]


class EraShift(NamedTuple):
    cutoff_date: date
    eligible: bool
    pre_median_erosion: float | None = None
    post_median_erosion: float | None = None
    pre_median_verbosity: float | None = None
    post_median_verbosity: float | None = None
    shift_erosion: float | None = None
    shift_verbosity: float | None = None


def bin_phases(n: int) -> list[str]:
    """Assign Start/Early/Mid/Late/Final phases to n checkpoint positions.

    The first checkpoint is always Start and the last Final; the interior
    splits into nondecreasing terciles. A single interior checkpoint maps
    to Mid.
    """
    if n < 1:
        raise ValueError("need at least one checkpoint")
    start, early, mid, late, final = PHASES
    if n == 1:
        return [start]
    m = n - 2
    interior = [mid] if m == 1 else [(early, mid, late)[min(2, 3 * j // m)] for j in range(m)]
    return [start, *interior, final]


def _ols_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of value against checkpoint index."""
    n = len(points)
    if n < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0:
        return 0.0
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx


def _growth_pct(first: float, last: float) -> float | None:
    if first > 0:
        return (last - first) / first * 100.0
    return None


def trajectory_summary(series: list[CheckpointMetrics]) -> TrajectorySummary:
    """Endpoint flags and per-checkpoint velocities over present checkpoints.

    Missing checkpoints (gaps in the index sequence) are excluded from the
    fits, never imputed.
    """
    if not series:
        raise ValueError("need at least one checkpoint")
    ordered = sorted(series, key=lambda c: c.index)
    present = {c.index for c in ordered}
    missing = tuple(i for i in range(ordered[0].index, ordered[-1].index + 1) if i not in present)

    erosion_pts = [(c.index, c.erosion.score) for c in ordered]
    verbosity_pts = [(c.index, c.verbosity.score) for c in ordered]
    first, last = ordered[0], ordered[-1]
    single = len(ordered) == 1
    return TrajectorySummary(
        n_checkpoints=len(ordered),
        first_erosion=first.erosion.score,
        last_erosion=last.erosion.score,
        first_verbosity=first.verbosity.score,
        last_verbosity=last.verbosity.score,
        rising_erosion=not single and last.erosion.score > first.erosion.score,
        rising_verbosity=not single and last.verbosity.score > first.verbosity.score,
        slope_erosion=_ols_slope(erosion_pts),
        slope_verbosity=_ols_slope(verbosity_pts),
        growth_pct_erosion=0.0 if single else _growth_pct(first.erosion.score, last.erosion.score),
        growth_pct_verbosity=0.0 if single else _growth_pct(first.verbosity.score, last.verbosity.score),
        missing_checkpoints=missing,
    )


def median(values: Iterable[float]) -> float:
    """The median of a non-empty series, as ``statistics.median`` computes
    it (the middle value, or the mean of the two middle values) without
    loading ``statistics``, which loads ``decimal`` and ``fractions``."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def era_split(series: list[CheckpointMetrics], cutoff: date = DEFAULT_ERA_CUTOFF) -> EraShift:
    """Within-trajectory median shift across a calendar cutoff.

    Eligible only with at least three checkpoints strictly before the
    cutoff and three at or after it.
    """
    boundary = datetime(cutoff.year, cutoff.month, cutoff.day, tzinfo=timezone.utc)
    pre = [c for c in series if c.timestamp < boundary]
    post = [c for c in series if c.timestamp >= boundary]
    if len(pre) < 3 or len(post) < 3:
        return EraShift(cutoff_date=cutoff, eligible=False)
    pre_e = median(c.erosion.score for c in pre)
    post_e = median(c.erosion.score for c in post)
    pre_v = median(c.verbosity.score for c in pre)
    post_v = median(c.verbosity.score for c in post)
    return EraShift(
        cutoff_date=cutoff,
        eligible=True,
        pre_median_erosion=pre_e,
        post_median_erosion=post_e,
        pre_median_verbosity=pre_v,
        post_median_verbosity=post_v,
        shift_erosion=post_e - pre_e,
        shift_verbosity=post_v - pre_v,
    )

"""Repository panel: star tiers, HEAD snapshots, cross-sectional aggregates."""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .history import DEFAULT_MAX_COMMITS, HistoryResult, measure_history
from .scan import ScanConfig, ScanError, read_record, read_yaml
from .trajectory import CheckpointMetrics, EraShift, TrajectorySummary, median

TIERS = ("Hobby", "Niche", "Established", "Major")


def star_tier(stars: int) -> str:
    """Tier cut points: <100, 100-1k, 1k-10k, >=10k stars."""
    if stars < 100:
        return "Hobby"
    if stars < 1_000:
        return "Niche"
    if stars < 10_000:
        return "Established"
    return "Major"


class RepoSpec(NamedTuple):
    """One panel repository."""

    repo_path: str
    repo_id: str
    stars: int = 0
    max_commits: int = DEFAULT_MAX_COMMITS
    seed: int = 0


class RepoPanelEntry(NamedTuple):
    repo_id: str
    star_tier: str
    head_metrics: CheckpointMetrics
    trajectory: TrajectorySummary
    era: EraShift


class TierStats(NamedTuple):
    n: int
    mean_verbosity: float
    std_verbosity: float
    mean_erosion: float
    std_erosion: float


class PanelReport(NamedTuple):
    overall: TierStats
    tiers: dict[str, TierStats]
    rising_fraction_erosion: float
    rising_fraction_verbosity: float
    median_slope_erosion: float
    median_slope_verbosity: float
    n_era_eligible: int
    median_era_shift_erosion: float | None
    median_era_shift_verbosity: float | None
    exceed_reference_verbosity: float | None = None
    exceed_reference_erosion: float | None = None
    failed: tuple[dict[str, str], ...] = ()  # {repo_id, reason} of each repository that could not be measured


def load_panel_config(path: str | Path) -> list[RepoSpec]:
    """Panel config: a YAML/JSON list of ``RepoSpec`` mappings. An entry
    without a ``repo_id`` is named by its ``repo_path``.

    Raises ValueError if the file is not such a list, names no repository
    (an empty file, ``[]`` or ``{}``), holds an entry ``read_record``
    refuses or one whose ``repo_path`` is empty (which would name the
    working directory), or if two entries share a ``repo_id``: a
    repository must enter the aggregates once.
    """
    raw = read_yaml(path, ValueError) or []
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a list of repository mappings")
    if not raw:
        raise ValueError(f"{path}: no repositories")
    kinds = {"repo_path": str, "repo_id": str, "stars": 0, "max_commits": 1, "seed": int}
    raw = [{**e, "repo_id": e.get("repo_id", e.get("repo_path"))} if isinstance(e, dict) else e for e in raw]
    specs = [read_record(RepoSpec, entry, kinds, f"{path}: entry {i}", ValueError) for i, entry in enumerate(raw)]
    for i, spec in enumerate(specs):
        if not spec.repo_path:
            raise ValueError(f"{path}: entry {i}: repo_path must not be empty")
    repeated = sorted(repo_id for repo_id, n in Counter(spec.repo_id for spec in specs).items() if n > 1)
    if repeated:
        raise ValueError(f"{path}: repo_id used more than once: {repeated}")
    return specs


def build_panel_entry(spec: RepoSpec, config: ScanConfig = ScanConfig()) -> RepoPanelEntry:
    result: HistoryResult = measure_history(spec.repo_path, max_commits=spec.max_commits, seed=spec.seed, config=config)
    if not result.checkpoints:
        raise ScanError("no measurable checkpoints")
    return RepoPanelEntry(
        repo_id=spec.repo_id,
        star_tier=star_tier(spec.stars),
        head_metrics=result.checkpoints[-1],
        trajectory=result.summary,  # type: ignore[arg-type]
        era=result.era,  # type: ignore[arg-type]
    )


def _tier_stats(entries: list[RepoPanelEntry]) -> TierStats:
    verbosities = [e.head_metrics.verbosity.score for e in entries]
    erosions = [e.head_metrics.erosion.score for e in entries]
    return TierStats(
        n=len(entries),
        mean_verbosity=statistics.fmean(verbosities),
        std_verbosity=statistics.pstdev(verbosities),
        mean_erosion=statistics.fmean(erosions),
        std_erosion=statistics.pstdev(erosions),
    )


def panel_aggregate(
    entries: list[RepoPanelEntry],
    reference_mean_verbosity: float | None = None,
    reference_mean_erosion: float | None = None,
    failed: tuple[dict[str, str], ...] = (),
) -> PanelReport:
    """Cross-sectional and trajectory aggregates; permutation-invariant."""
    if not entries:
        raise ValueError("need at least one panel entry")
    ordered = sorted(entries, key=lambda e: e.repo_id)

    tiers = {
        tier: _tier_stats(group)
        for tier in TIERS
        if (group := [e for e in ordered if e.star_tier == tier])
    }
    eligible = [e for e in ordered if e.era.eligible]
    return PanelReport(
        overall=_tier_stats(ordered),
        tiers=tiers,
        rising_fraction_erosion=sum(e.trajectory.rising_erosion for e in ordered) / len(ordered),
        rising_fraction_verbosity=sum(e.trajectory.rising_verbosity for e in ordered) / len(ordered),
        median_slope_erosion=median(e.trajectory.slope_erosion for e in ordered),
        median_slope_verbosity=median(e.trajectory.slope_verbosity for e in ordered),
        n_era_eligible=len(eligible),
        median_era_shift_erosion=(
            median(e.era.shift_erosion for e in eligible) if eligible else None
        ),
        median_era_shift_verbosity=(
            median(e.era.shift_verbosity for e in eligible) if eligible else None
        ),
        exceed_reference_verbosity=(
            sum(e.head_metrics.verbosity.score > reference_mean_verbosity for e in ordered) / len(ordered)
            if reference_mean_verbosity is not None
            else None
        ),
        exceed_reference_erosion=(
            sum(e.head_metrics.erosion.score > reference_mean_erosion for e in ordered) / len(ordered)
            if reference_mean_erosion is not None
            else None
        ),
        failed=tuple(sorted(failed, key=lambda f: f["repo_id"])),
    )

"""Git history mining: commit sampling, snapshot measurement, trajectories."""

from __future__ import annotations

import io
import os
import random
import subprocess
import tarfile
import tempfile
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path

from .adapters import PythonAdapter
from .clones import DEFAULT_MIN_WINDOW, detect_clones
from .erosion import erosion_score
from .rules import RuleSet, match_rules
from .scan import ScanConfig, scan_tree_with_sources
from .trajectory import (
    DEFAULT_ERA_CUTOFF,
    CheckpointMetrics,
    EraShift,
    TrajectorySummary,
    bin_phases,
    era_split,
    trajectory_summary,
)

TEST_PATH_GLOBS = ("test_*.py", "*_test.py", "tests/*", "*/tests/*", "test/*", "*/test/*")


class GitError(Exception):
    """Raised when a path is not a usable git repository."""


@dataclass(frozen=True)
class CommitRef:
    sha: str
    committed_at: datetime  # committer date, UTC


def _git(repo: str | Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=False,
        check=False,
    )
    if proc.returncode != 0:
        raise GitError(proc.stderr.decode("utf-8", "replace").strip() or f"git {' '.join(args)} failed")
    return proc.stdout.decode("utf-8", "replace")


def _is_test_path(path: str) -> bool:
    import fnmatch

    return any(fnmatch.fnmatch(path, g) for g in TEST_PATH_GLOBS)


def list_source_commits(repo: str | Path, exclude_tests: bool = False) -> list[CommitRef]:
    """All commits that modify at least one Python file, oldest first.

    Merge commits carry no file list in plain ``git log`` output and are
    therefore never counted as source-modifying.
    """
    try:
        raw = _git(repo, "log", "--pretty=format:\x01%H\x09%ct", "--name-only")
    except GitError as err:
        if "does not have any commits" in str(err):
            return []
        raise
    commits: list[CommitRef] = []
    for block in raw.split("\x01"):
        if not block.strip():
            continue
        header, _, body = block.partition("\n")
        sha, _, epoch = header.partition("\t")
        paths = [p for p in body.splitlines() if p.strip()]
        if exclude_tests:
            paths = [p for p in paths if not _is_test_path(p)]
        if not any(os.path.splitext(p)[1] in PythonAdapter.extensions for p in paths):
            continue
        commits.append(
            CommitRef(sha=sha, committed_at=datetime.fromtimestamp(int(epoch), tz=timezone.utc))
        )
    commits.reverse()  # git log is newest-first
    return commits


def sample_commits(
    repo: str | Path,
    max_commits: int = 30,
    seed: int = 0,
    exclude_tests: bool = False,
) -> list[CommitRef]:
    """Uniform sample without replacement of source-modifying commits.

    Deterministic for a fixed seed; output is chronological. If fewer than
    ``max_commits`` commits qualify, all of them are returned.
    """
    commits = list_source_commits(repo, exclude_tests)
    if len(commits) > max_commits:
        commits = random.Random(seed).sample(commits, max_commits)
        commits.sort(key=lambda c: (c.committed_at, c.sha))
    return commits


def materialize_commit(repo: str | Path, sha: str, dest: str | Path) -> None:
    """Extract one commit's tree into ``dest`` via git archive."""
    proc = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", sha],
        capture_output=True,
        check=False,
    )
    if proc.returncode != 0:
        raise GitError(proc.stderr.decode("utf-8", "replace").strip())
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest)


@dataclass(frozen=True)
class CheckpointAnalysis:
    """Full measurement of one workspace snapshot."""

    metrics: CheckpointMetrics
    inventory: object
    matches: list
    clones: list
    source_lines: dict[str, frozenset[int]]  # per file, the lines that count toward LOC


def measure_checkpoint(
    workspace: str | Path,
    config: ScanConfig | None = None,
    rules: RuleSet | None = None,
    min_window: int = DEFAULT_MIN_WINDOW,
    label: str = "",
    index: int = 0,
    timestamp: datetime | None = None,
) -> CheckpointAnalysis:
    """Scan a snapshot and compute the full metric bundle."""
    inventory, sources = scan_tree_with_sources(workspace, config)
    erosion = erosion_score(inventory)

    matches = []
    for path in sorted(sources):
        src = sources[path]
        if rules is not None:
            matches.extend(match_rules(path, src.source, src.tree, src.language, rules))
    clones = detect_clones({p: s.source.text for p, s in sources.items()}, min_window)

    from .verbosity import verbosity_score

    source_lines = {path: src.source.source_lines for path, src in sources.items()}
    verbosity = verbosity_score(
        inventory.file_loc(),
        matches,
        clones,
        file_line_count={f.path: f.line_count for f in inventory.files},
        source_lines=source_lines,
    )
    metrics = CheckpointMetrics(
        index=index,
        label=label or str(workspace),
        erosion=erosion,
        verbosity=verbosity,
        loc=inventory.total_loc,
        high_cc_count=erosion.high_cc_count,
        max_cc=erosion.max_cc,
        timestamp=timestamp,
    )
    return CheckpointAnalysis(
        metrics=metrics, inventory=inventory, matches=matches, clones=clones, source_lines=source_lines
    )


@dataclass(frozen=True)
class HistoryResult:
    checkpoints: list[CheckpointMetrics]
    summary: TrajectorySummary | None
    era: EraShift | None


def measure_history(
    repo: str | Path,
    max_commits: int = 30,
    seed: int = 0,
    cutoff: date = DEFAULT_ERA_CUTOFF,
    config: ScanConfig | None = None,
    rules: RuleSet | None = None,
    min_window: int = DEFAULT_MIN_WINDOW,
    exclude_tests: bool = False,
) -> HistoryResult:
    """Sample a repository's commits and measure each snapshot."""
    if not (Path(repo) / ".git").exists() and not (Path(repo) / "HEAD").exists():
        raise GitError(f"not a git repository: {repo}")
    commits = sample_commits(repo, max_commits, seed, exclude_tests=exclude_tests)
    if not commits:
        return HistoryResult(checkpoints=[], summary=None, era=None)

    phases = bin_phases(len(commits))
    checkpoints: list[CheckpointMetrics] = []
    for i, commit in enumerate(commits):
        with tempfile.TemporaryDirectory(prefix="slopscope-") as tmp:
            try:
                materialize_commit(repo, commit.sha, tmp)
            except GitError:
                continue  # unreadable commit: excluded, not imputed
            analysis = measure_checkpoint(
                tmp,
                config,
                rules,
                min_window,
                label=commit.sha,
                index=i,
                timestamp=commit.committed_at,
            )
        checkpoints.append(
            CheckpointMetrics(
                **{**analysis.metrics.__dict__, "phase": phases[i]},
            )
        )

    if not checkpoints:
        return HistoryResult(checkpoints=[], summary=None, era=None)
    summary = trajectory_summary(checkpoints)
    return HistoryResult(checkpoints=checkpoints, summary=summary, era=era_split(checkpoints, cutoff))

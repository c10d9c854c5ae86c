"""Git history mining: sampling the commits, listing each sampled commit's
files and measuring each snapshot into a trajectory, the layers that
perfbench hooks by their names in this module.

The snapshot pipeline (``analyse_file`` to ``measure_checkpoint``) is the
one ``scan`` runs too, which is why ``scan`` loads this module. Everything
that knows git (its processes, the commit listing, the tree format and its
errors) is in ``git.py``, which this module imports only inside
``sample_commits`` and ``measure_history``, so ``scan`` loads none of it.
"""

from __future__ import annotations

import codecs
import re
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import clones, verbosity
from .adapters import ADAPTERS, SourceText, TreeIndex
from .clones import CloneRegion, NormalizedFile, detect_clones
from .erosion import ErosionReport, erosion_score
from .rules import RuleMatch, match_rules
from .scan import MAX_FILE_BYTES, FileRecord, ScanConfig, SourceInventory, read_tree
from .trajectory import (
    DEFAULT_ERA_CUTOFF,
    CheckpointMetrics,
    EraShift,
    TrajectorySummary,
    bin_phases,
    date,
    era_split,
    trajectory_summary,
)
from .verbosity import VerbosityBreakdown

if TYPE_CHECKING:
    from .git import CommitRef, ObjectStore, TreeListing

DEFAULT_MAX_COMMITS = 30

# A PEP 263 coding comment, a line that may come before one, and the parser's line breaks.
_CODING_COOKIE = re.compile(rb"[ \t\f]*#.*?coding[:=][ \t]*([-\w.]+)", re.ASCII)
_BLANK_LINE = re.compile(rb"[ \t\f]*(?:#|$)")
_LINE_BREAK = re.compile(rb"\r\n|\r|\n")


def sample_commits(
    repo: str | Path,
    max_commits: int = DEFAULT_MAX_COMMITS,
    seed: int = 0,
    exclude_tests: bool = False,
) -> list[CommitRef]:
    """Uniform sample without replacement of source-modifying commits.

    Deterministic for a fixed seed. The sample keeps the listing's order
    (oldest first, the reverse of ``git log``'s default order), also for
    commits that share a committer second. If no more than ``max_commits``
    commits qualify, all of them are returned.
    """
    import random

    from .git import list_source_commits  # here, not with the module: ``scan`` runs no git

    commits = list_source_commits(repo, exclude_tests)
    if len(commits) > max_commits:
        picked = random.Random(seed).sample(range(len(commits)), max_commits)
        commits = [commits[i] for i in sorted(picked)]
    return commits


def materialize_commit(
    store: ObjectStore, sha: str, config: ScanConfig, previous: Mapping[tuple[str, str], TreeListing] = {}
) -> dict[tuple[str, str], TreeListing]:
    """List one commit's eligible files from its tree objects, read through
    the store's ``cat-file --batch`` process: the listing of every tree of
    the commit under (path prefix, the name it was read by), the root's
    being ("", ``<sha>^{tree}``) and each subtree's its tree id. A subtree
    that ``previous`` (the listings of the commit listed before) holds
    under the same path and id is taken from there and not read again;
    ``ObjectStore.read_tree`` lists the rest. A missing or malformed commit
    or tree raises GitError.
    """
    trees: dict[tuple[str, str], TreeListing] = {}
    pending = [("", f"{sha}^{{tree}}")]
    while pending:
        prefix, tree = key = pending.pop()
        trees[key] = listing = previous[key] if key in previous else store.read_tree(tree, prefix, config)
        pending.extend(listing.subtrees)
    return trees


class FileAnalysis(NamedTuple):
    """Everything one file adds to a checkpoint, without its syntax tree:
    its record and callables (or its skip), rule matches, source lines and
    clone-normalized lines."""

    inventory: SourceInventory
    matches: tuple[RuleMatch, ...] = ()
    source_lines: frozenset[int] = frozenset()
    normalized: NormalizedFile | None = None


def measured_lines(files: Mapping[str, FileAnalysis]) -> dict[str, tuple[int, frozenset[int]]]:
    """Each measured file's line count and source lines, the input of
    ``verbosity.counted_lines`` and ``verbosity.verbosity_score``."""
    return {record.path: (record.line_count, f.source_lines) for f in files.values() for record in f.inventory.files}


def _skipped(path: str, reason: str) -> FileAnalysis:
    return FileAnalysis(SourceInventory(skipped=((path, reason),)))


def _normal_encoding_name(name: str) -> str:
    folded = name[:12].lower().replace("_", "-")
    if folded == "utf-8" or folded.startswith("utf-8-"):
        return "utf-8"
    if folded in ("latin-1", "iso-8859-1", "iso-latin-1") or folded.startswith(
        ("latin-1-", "iso-8859-1-", "iso-latin-1-")
    ):
        return "iso-8859-1"
    return name


def _source_encoding(data: bytes) -> str:
    """The codec Python decodes a source file's bytes with.

    A UTF-8 BOM gives ``utf-8-sig``; else a PEP 263 coding comment on line
    1, or on line 2 after a blank or comment line, names the codec; else
    it is UTF-8. This is ``tokenize.detect_encoding``'s rule, read from the
    raw bytes of those lines, as CPython's compiler reads them, without
    first decoding them as UTF-8. A BOM with a cookie other than UTF-8
    raises ``LookupError``; an unknown cookie is returned as written, and
    decoding with it raises ``LookupError``.
    """
    bom = data.startswith(codecs.BOM_UTF8)
    for line in _LINE_BREAK.split(data[len(codecs.BOM_UTF8) if bom else 0 :], 2)[:2]:
        cookie = _CODING_COOKIE.match(line)
        if cookie:
            name = _normal_encoding_name(cookie[1].decode("ascii"))
            if bom and name != "utf-8":
                raise LookupError(f"encoding {name} after a UTF-8 BOM")
            return "utf-8-sig" if bom else name
        if not _BLANK_LINE.match(line):
            break
    return "utf-8-sig" if bom else "utf-8"


def analyse_file(relpath: str, data: bytes, config: ScanConfig) -> FileAnalysis:
    """Measure the bytes of one Python file.

    A file of more than ``scan.MAX_FILE_BYTES`` is a ``large`` skip, before
    anything else is done with it. The text is decoded as Python decodes a
    source file (``_source_encoding``). A cookie that names no text
    encoding, a BOM with a cookie other than UTF-8, or bytes the encoding
    cannot decode make it a ``decode`` skip. The text is then split into lines, checked for
    minification and parsed; one walk of the tree gives its callables and
    the index every pattern rule reads. A file that cannot be measured comes
    back as a skip with its reason (nesting too deep for the parser raises
    MemoryError: a ``parse`` skip). The tree and its index die on return.
    """
    if len(data) > MAX_FILE_BYTES:
        return _skipped(relpath, "large")
    adapter = ADAPTERS["python"]
    try:
        text = data.decode(_source_encoding(data))
    except (UnicodeError, LookupError):
        return _skipped(relpath, "decode")
    source = SourceText.from_text(text)
    if source.line_count and len(text) / source.line_count > config.minified_line_threshold:
        return _skipped(relpath, "minified")
    try:
        index = TreeIndex.from_tree(adapter.parse(text))
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        return _skipped(relpath, "parse")

    record = FileRecord(relpath, loc=len(source.source_lines), line_count=source.line_count)
    callables = adapter.enumerate_callables(relpath, source, index)
    return FileAnalysis(
        inventory=SourceInventory(files=(record,), callables=tuple(callables)),
        matches=tuple(match_rules(relpath, source, index, config.rules)),
        source_lines=source.source_lines,
        normalized=clones.normalize_file(relpath, text),
    )


def scan_tree_with_sources(
    files: Iterable[tuple[str, bytes | str | FileAnalysis]], config: ScanConfig
) -> tuple[SourceInventory, dict[str, FileAnalysis]]:
    """Analyse one snapshot, one file at a time.

    ``files`` gives each eligible path, in any order, with the bytes to
    analyse, the reason it was skipped unread, or an analysis kept from an
    earlier snapshot. Returns the snapshot's inventory and every path's
    analysis, sorted by path: the one sort a snapshot gets. Each file's
    records are sorted already, so the inventory is theirs joined in order.
    """
    analyses: dict[str, FileAnalysis] = {}
    for path, item in files:
        if isinstance(item, bytes):
            analyses[path] = analyse_file(path, item, config)
        elif isinstance(item, str):
            analyses[path] = _skipped(path, item)
        else:
            analyses[path] = item
    analyses = dict(sorted(analyses.items()))
    parts = [f.inventory for f in analyses.values()]
    inventory = SourceInventory(
        files=tuple(record for part in parts for record in part.files),
        callables=tuple(record for part in parts for record in part.callables),
        skipped=tuple(skip for part in parts for skip in part.skipped),
    )
    return inventory, analyses


def _read_commit(store: ObjectStore, trees: Iterable[TreeListing], reuse: Mapping[tuple[str, str], FileAnalysis]):
    """Each file of a commit's tree listings: ``symlink`` for a link, the
    analysis ``reuse`` holds for its (path, blob), or else the blob's bytes
    (or ``large``), read on demand."""
    for listing in trees:
        for path, blob in listing.files:
            if blob is None:
                yield path, "symlink"
            else:
                yield path, reuse[(path, blob)] if (path, blob) in reuse else store.read(blob)


class CheckpointAnalysis(NamedTuple):
    """Full measurement of one workspace snapshot."""

    erosion: ErosionReport
    verbosity: VerbosityBreakdown
    inventory: SourceInventory
    matches: list[RuleMatch]
    clones: list[CloneRegion]
    files: dict[str, FileAnalysis]  # every eligible path, sorted


def measure_checkpoint(
    workspace: str | Path | Iterable[tuple[str, bytes | str | FileAnalysis]], config: ScanConfig = ScanConfig()
) -> CheckpointAnalysis:
    """Measure a snapshot: a directory, or the files of one as
    ``scan_tree_with_sources`` takes them. Either streams through one loop,
    one file at a time.

    The default config's rule set is empty and flags no line. Clones,
    erosion and verbosity are always computed over every file, verbosity
    from each measured file's line count and source lines. A snapshot's
    place in a history (index, commit, time and phase) is not its own:
    ``measure_history`` adds it when it builds the ``CheckpointMetrics``.
    """
    if isinstance(workspace, (str, Path)):
        workspace = read_tree(workspace, config)
    inventory, files = scan_tree_with_sources(workspace, config)
    erosion = erosion_score(inventory)
    matches = [m for f in files.values() for m in f.matches]
    regions = detect_clones([f.normalized for f in files.values() if f.normalized is not None], config.min_window)
    breakdown = verbosity.verbosity_score(measured_lines(files), matches, regions)
    return CheckpointAnalysis(
        erosion=erosion, verbosity=breakdown, inventory=inventory, matches=matches, clones=regions, files=files
    )


class HistoryResult(NamedTuple):
    checkpoints: list[CheckpointMetrics]
    summary: TrajectorySummary | None
    era: EraShift | None
    skipped_commits: tuple[tuple[str, str], ...] = ()  # (sha, reason) of each commit that could not be read


def measure_history(
    repo: str | Path,
    max_commits: int = DEFAULT_MAX_COMMITS,
    seed: int = 0,
    cutoff: date = DEFAULT_ERA_CUTOFF,
    config: ScanConfig = ScanConfig(),
    exclude_tests: bool = False,
) -> HistoryResult:
    """Sample a repository's commits and measure each snapshot.

    Trees and files are read from git's object store: a directory whose
    path and tree the previous checkpoint also held is not read again, and
    a file whose path and blob it held is not analysed again. A commit that
    cannot be dated, listed or read is reported in ``skipped_commits``, not
    measured; a ``cat-file`` process that ends mid-run raises GitExited.
    """
    from .git import GitError, GitExited, ObjectStore  # here, not with the module: ``scan`` runs no git

    commits = sample_commits(repo, max_commits, seed, exclude_tests=exclude_tests)
    if not commits:
        return HistoryResult(checkpoints=[], summary=None, era=None)

    phases = bin_phases(len(commits))
    checkpoints: list[CheckpointMetrics] = []
    skipped: list[tuple[str, str]] = []
    # Only the last measured checkpoint's files and trees are kept for
    # reuse: a file or directory unchanged since an earlier sampled commit
    # is nearly always unchanged since the last one too, and memory stays
    # bounded by two snapshots.
    reuse: dict[tuple[str, str], FileAnalysis] = {}
    previous: dict[tuple[str, str], TreeListing] = {}
    with ObjectStore(repo) as store:
        for i, commit in enumerate(commits):
            if commit.committed_at is None:
                skipped.append((commit.sha, "committer date unreadable"))
                continue
            try:
                trees = materialize_commit(store, commit.sha, config, previous)
                analysis = measure_checkpoint(_read_commit(store, trees.values(), reuse), config)
            except GitExited:
                raise  # no later commit can be read either
            except GitError as err:
                skipped.append((commit.sha, str(err)))
                continue  # unreadable commit: reported, not imputed
            reuse = {(path, blob): analysis.files[path] for t in trees.values() for path, blob in t.files if blob}
            previous = trees
            checkpoints.append(
                CheckpointMetrics(index=i, label=commit.sha, erosion=analysis.erosion, verbosity=analysis.verbosity,
                                  phase=phases[i], timestamp=commit.committed_at,
                                  skipped=analysis.inventory.skipped)
            )

    return HistoryResult(
        checkpoints=checkpoints,
        summary=trajectory_summary(checkpoints) if checkpoints else None,
        era=era_split(checkpoints, cutoff) if checkpoints else None,
        skipped_commits=tuple(skipped),
    )

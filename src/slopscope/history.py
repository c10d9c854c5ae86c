"""Git history mining: commit sampling, snapshot measurement, trajectories."""

from __future__ import annotations

import codecs
import fnmatch
import re
import stat
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import NamedTuple

from . import clones, verbosity
from .adapters import ADAPTERS, SourceText, TreeIndex
from .clones import DEFAULT_MIN_WINDOW, CloneRegion, NormalizedFile, detect_clones
from .erosion import ErosionReport, erosion_score
from .model import FileRecord, SourceInventory
from .rules import RuleMatch, RuleSet, match_rules
from .scan import ALWAYS_SKIP_DIRS, ScanConfig, decode_path, is_eligible, is_python, read_tree
from .trajectory import (
    DEFAULT_ERA_CUTOFF,
    CheckpointMetrics,
    EraShift,
    TrajectorySummary,
    bin_phases,
    era_split,
    trajectory_summary,
)
from .verbosity import VerbosityBreakdown

DEFAULT_MAX_COMMITS = 30
TEST_PATH_GLOBS = ("test_*.py", "*_test.py", "tests/*", "*/tests/*", "test/*", "*/test/*")

# One entry of a tree object, up to its raw object id: octal mode, name.
_TREE_ENTRY = re.compile(rb"([0-7]+) ([^\0]+)\0")
_S_IFGITLINK = 0o160000  # the mode git gives a submodule's commit
# A PEP 263 coding comment, and a line that may come before one.
_CODING_COOKIE = re.compile(rb"[ \t\f]*#.*?coding[:=][ \t]*([-\w.]+)", re.ASCII)
_BLANK_LINE = re.compile(rb"[ \t\f]*(?:[#\r]|$)")


class GitError(Exception):
    """Raised when a path is not a usable git repository."""


@dataclass(frozen=True)
class CommitRef:
    sha: str
    committed_at: datetime  # committer date, UTC


def _git(repo: str | Path, *args: str) -> bytes:
    import subprocess  # here, not with the module: ``scan`` starts no process

    try:
        proc = subprocess.run(["git", "-C", str(repo), *args], capture_output=True, check=False)
    except OSError as exc:  # no git on PATH, say
        raise GitError(f"cannot run git: {exc.strerror or exc}") from exc
    if proc.returncode != 0:
        raise GitError(proc.stderr.decode("utf-8", "replace").strip() or f"git {' '.join(args)} failed")
    return proc.stdout


def _is_test_path(path: str) -> bool:
    return any(fnmatch.fnmatch(path, g) for g in TEST_PATH_GLOBS)


def list_source_commits(repo: str | Path, exclude_tests: bool = False) -> list[CommitRef]:
    """All commits that modify at least one Python file, oldest first.

    The log is read NUL-separated, so git never quotes a path. A commit's
    header ends in a newline when file names follow it, and its file list
    ends in an empty name. Merge commits carry no file list in plain
    ``git log`` output and are therefore never counted as source-modifying.
    """
    try:
        raw = _git(repo, "log", "-z", "--pretty=format:%H %ct", "--name-only")
    except GitError as err:
        if "does not have any commits" in str(err):
            return []
        raise
    logged: list[tuple[str, str, list[str]]] = []  # newest first
    in_header = True
    for token in raw.split(b"\0"):
        if in_header:
            if token:
                header, newline, first = token.partition(b"\n")
                sha, epoch = header.decode().split()
                logged.append((sha, epoch, [decode_path(first)] if newline else []))
                in_header = not newline
        elif token:
            logged[-1][2].append(decode_path(token))
        else:
            in_header = True
    commits: list[CommitRef] = []
    for sha, epoch, paths in reversed(logged):
        if exclude_tests:
            paths = [p for p in paths if not _is_test_path(p)]
        if any(is_python(p) for p in paths):
            commits.append(CommitRef(sha, datetime.fromtimestamp(int(epoch), tz=timezone.utc)))
    return commits


def sample_commits(
    repo: str | Path,
    max_commits: int = DEFAULT_MAX_COMMITS,
    seed: int = 0,
    exclude_tests: bool = False,
) -> list[CommitRef]:
    """Uniform sample without replacement of source-modifying commits.

    Deterministic for a fixed seed; output is chronological. If fewer than
    ``max_commits`` commits qualify, all of them are returned.
    """
    import random

    commits = list_source_commits(repo, exclude_tests)
    if len(commits) > max_commits:
        commits = random.Random(seed).sample(commits, max_commits)
        commits.sort(key=lambda c: (c.committed_at, c.sha))
    return commits


class ObjectStore:
    """Reads the objects of one repository through one long-lived
    ``git cat-file --batch`` process.

    Requests go one at a time: one object is named and its whole reply read
    before the next, so neither side can block on a full pipe. ``close``
    (or leaving a ``with`` block) ends the process.
    """

    def __init__(self, repo: str | Path) -> None:
        import subprocess

        self._proc = subprocess.Popen(
            ["git", "-C", str(repo), "cat-file", "--batch"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )

    def _read(self, kind: str, name: str) -> tuple[str, bytes]:
        """The id and content of the object ``name`` names (an id, or any
        revision git resolves); GitError if it is missing or not a ``kind``."""
        stdin, stdout = self._proc.stdin, self._proc.stdout
        try:
            stdin.write(name.encode() + b"\n")
            stdin.flush()
            header = stdout.readline().split()
            if len(header) != 3:  # "<name> missing", or the process died
                raise GitError(f"{kind} {name} {header[-1].decode(errors='replace') if header else 'unreadable'}")
            size = int(header[2])
            data = stdout.read(size + 1)  # the content and a newline
        except OSError as exc:
            raise GitError(f"{kind} {name} unreadable: {exc}") from exc
        if len(data) != size + 1:
            raise GitError(f"{kind} {name} unreadable: reply cut short")
        if header[1] != kind.encode():
            raise GitError(f"{kind} {name} is a {header[1].decode(errors='replace')}")
        return header[0].decode(), data[:size]

    def read(self, blob: str) -> bytes:
        """The bytes of one blob; GitError if the repository lacks it."""
        return self._read("blob", blob)[1]

    def read_tree(self, name: str) -> tuple[str, list[tuple[int, bytes, str]]]:
        """The id of the tree ``name`` names and its entries, in git's order:
        each one's mode, raw name and object id. GitError if the tree is
        missing or malformed.

        A tree object is a run of ``<octal mode> <name>\\0<raw id>``
        entries. A raw id is as long as the id in the reply header: 20
        bytes in a SHA-1 repository, 32 in a SHA-256 one.
        """
        tree, data = self._read("tree", name)
        size = len(tree) // 2
        entries: list[tuple[int, bytes, str]] = []
        pos = 0
        while pos < len(data):
            entry = _TREE_ENTRY.match(data, pos)
            if entry is None or entry.end() + size > len(data):
                raise GitError(f"tree {tree} malformed")
            pos = entry.end() + size
            entries.append((int(entry[1], 8), entry[2], data[entry.end() : pos].hex()))
        return tree, entries

    def close(self) -> None:
        self._proc.communicate()  # closes stdin, which ends the process

    def __enter__(self) -> ObjectStore:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TreeListing(NamedTuple):
    """What one tree object adds to a commit's files: its eligible blobs
    and links, and the subtrees below it that a scan would enter, as
    (path prefix, tree id)."""

    blobs: tuple[tuple[str, str], ...]
    links: tuple[str, ...]
    subtrees: tuple[tuple[str, str], ...]


def _list_tree(prefix: str, entries: list[tuple[int, bytes, str]], config: ScanConfig) -> TreeListing:
    blobs: list[tuple[str, str]] = []
    links: list[str] = []
    subtrees: list[tuple[str, str]] = []
    for mode, raw, oid in entries:
        name = decode_path(raw)
        path = prefix + name
        kind = mode & 0o170000  # stat.S_IFMT, for a mode of any size
        if kind == stat.S_IFDIR:
            if name not in ALWAYS_SKIP_DIRS:  # never source: a scan does not enter it either
                subtrees.append((path + "/", oid))
        elif kind == _S_IFGITLINK or not is_eligible(path, config):
            continue
        elif kind == stat.S_IFLNK:
            links.append(path)
        else:
            blobs.append((path, oid))
    return TreeListing(tuple(blobs), tuple(links), tuple(subtrees))


@dataclass(frozen=True)
class CommitTree:
    """The files of one commit that a scan of its checkout would measure,
    as git stores them: each path's blob id, and the paths of symbolic
    links, which are skipped unread. ``trees`` holds the listing of every
    tree of the commit under its (path prefix, tree id)."""

    blobs: dict[str, str]
    links: tuple[str, ...]
    store: ObjectStore
    trees: dict[tuple[str, str], TreeListing]


def materialize_commit(
    store: ObjectStore, sha: str, config: ScanConfig, previous: CommitTree | None = None
) -> CommitTree:
    """List one commit's eligible files from its tree objects.

    The root tree (``<sha>^{tree}``) and the subtrees below it are read
    through the store's ``cat-file --batch`` process. A subtree that
    ``previous`` (the commit listed before) held under the same path and id
    is taken from its listing and not read again. Eligibility is a scan's
    (``scan.is_eligible``) and names are reported as a scan reports them
    (``scan.decode_path``). Gitlinks (submodules) are passed by: a checkout
    holds no file of theirs. A missing or malformed commit or tree raises
    GitError.
    """
    known = previous.trees if previous is not None else {}
    root, root_entries = store.read_tree(f"{sha}^{{tree}}")
    trees: dict[tuple[str, str], TreeListing] = {}
    blobs: dict[str, str] = {}
    links: list[str] = []
    pending = [("", root)]
    while pending:
        prefix, tree = key = pending.pop()
        listing = known.get(key)
        if listing is None:
            listing = _list_tree(prefix, store.read_tree(tree)[1] if prefix else root_entries, config)
        trees[key] = listing
        blobs.update(listing.blobs)
        links.extend(listing.links)
        pending.extend(listing.subtrees)
    return CommitTree(blobs, tuple(links), store, trees)


@dataclass(frozen=True)
class FileAnalysis:
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
    for line in data[len(codecs.BOM_UTF8) if bom else 0 :].split(b"\n", 2)[:2]:
        cookie = _CODING_COOKIE.match(line)
        if cookie:
            name = _normal_encoding_name(cookie[1].decode("ascii"))
            if bom and name != "utf-8":
                raise LookupError(f"encoding {name} after a UTF-8 BOM")
            return "utf-8-sig" if bom else name
        if not _BLANK_LINE.match(line):
            break
    return "utf-8-sig" if bom else "utf-8"


def analyse_file(relpath: str, data: bytes, config: ScanConfig, rules: RuleSet) -> FileAnalysis:
    """Measure the bytes of one Python file.

    The text is decoded as Python decodes a source file
    (``_source_encoding``). A cookie that names no text encoding, a BOM with
    a cookie other than UTF-8, or bytes the encoding cannot decode make it a
    ``decode`` skip. The text is then split into lines, checked for
    minification and parsed; one walk of the tree gives its callables and
    the index every pattern rule reads. A file that cannot be measured comes
    back as a skip with its reason. The tree and its index die on return.
    """
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
    except (SyntaxError, ValueError, RecursionError):
        return _skipped(relpath, "parse")

    record = FileRecord(relpath, loc=len(source.source_lines), line_count=source.line_count)
    callables = adapter.enumerate_callables(relpath, source, index)
    return FileAnalysis(
        inventory=SourceInventory(files=(record,), callables=tuple(callables)),
        matches=tuple(match_rules(relpath, source, index, rules)),
        source_lines=source.source_lines,
        normalized=clones.normalize_file(relpath, text),
    )


def scan_tree_with_sources(
    files: Iterable[tuple[str, bytes | str | FileAnalysis]], config: ScanConfig, rules: RuleSet
) -> tuple[SourceInventory, dict[str, FileAnalysis]]:
    """Analyse one snapshot, one file at a time.

    ``files`` gives each eligible path with the bytes to analyse, the
    reason it was skipped unread, or an analysis kept from an earlier
    snapshot. Returns the snapshot's inventory and every path's analysis,
    sorted by path. Each file's records are sorted already, so the
    snapshot's inventory is theirs joined in path order.
    """
    analyses: dict[str, FileAnalysis] = {}
    for path, item in files:
        if isinstance(item, bytes):
            analyses[path] = analyse_file(path, item, config, rules)
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


def _read_commit(tree: CommitTree, reuse: Mapping[tuple[str, str], FileAnalysis]):
    """Each file of a commit: a link's skip reason, the analysis ``reuse``
    holds for its (path, blob), or else the blob's bytes, read on demand."""
    for path in tree.links:
        yield path, "symlink"
    for path, blob in tree.blobs.items():
        yield path, reuse[(path, blob)] if (path, blob) in reuse else tree.store.read(blob)


@dataclass(frozen=True)
class CheckpointAnalysis:
    """Full measurement of one workspace snapshot."""

    erosion: ErosionReport
    verbosity: VerbosityBreakdown
    inventory: SourceInventory
    matches: list[RuleMatch]
    clones: list[CloneRegion]
    files: dict[str, FileAnalysis]  # every eligible path, sorted


def measure_checkpoint(
    workspace: str | Path | CommitTree,
    config: ScanConfig = ScanConfig(),
    rules: RuleSet = RuleSet(()),
    min_window: int = DEFAULT_MIN_WINDOW,
    reuse: Mapping[tuple[str, str], FileAnalysis] | None = None,
) -> CheckpointAnalysis:
    """Measure a snapshot: a directory, or a commit ``materialize_commit``
    listed. Both stream through one loop, one file at a time.

    ``rules`` defaults to an empty rule set, which flags no line. A commit's
    file whose (path, blob id) is a key of ``reuse`` takes that analysis;
    only the other files are read and analysed. Clones, erosion and
    verbosity are always computed over every file, verbosity from each
    measured file's line count and source lines. A snapshot's place
    in a history (index, commit, time and phase) is not its own:
    ``measure_history`` adds it when it builds the ``CheckpointMetrics``.
    """
    if isinstance(workspace, CommitTree):
        snapshot = _read_commit(workspace, reuse or {})
    else:
        snapshot = read_tree(workspace, config)
    inventory, files = scan_tree_with_sources(snapshot, config, rules)
    erosion = erosion_score(inventory)
    matches = [m for f in files.values() for m in f.matches]
    regions = detect_clones([f.normalized for f in files.values() if f.normalized is not None], min_window)
    breakdown = verbosity.verbosity_score(measured_lines(files), matches, regions)
    return CheckpointAnalysis(
        erosion=erosion, verbosity=breakdown, inventory=inventory, matches=matches, clones=regions, files=files
    )


@dataclass(frozen=True)
class HistoryResult:
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
    rules: RuleSet = RuleSet(()),
    min_window: int = DEFAULT_MIN_WINDOW,
    exclude_tests: bool = False,
) -> HistoryResult:
    """Sample a repository's commits and measure each snapshot.

    Trees and files are read from git's object store: a directory whose
    path and tree the previous checkpoint also held is not read again, and
    a file whose path and blob it held is not analysed again. A commit that
    cannot be listed or read is reported in ``skipped_commits``, not
    measured.
    """
    if not (Path(repo) / ".git").exists() and not (Path(repo) / "HEAD").exists():
        raise GitError(f"not a git repository: {repo}")
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
    previous: CommitTree | None = None
    with ObjectStore(repo) as store:
        for i, commit in enumerate(commits):
            try:
                tree = materialize_commit(store, commit.sha, config, previous)
                analysis = measure_checkpoint(tree, config, rules, min_window, reuse)
            except GitError as err:
                skipped.append((commit.sha, str(err)))
                continue  # unreadable commit: reported, not imputed
            reuse = {(path, blob): analysis.files[path] for path, blob in tree.blobs.items()}
            previous = tree
            checkpoints.append(
                CheckpointMetrics(index=i, label=commit.sha, erosion=analysis.erosion, verbosity=analysis.verbosity,
                                  phase=phases[i], timestamp=commit.committed_at)
            )

    if not checkpoints:
        return HistoryResult(checkpoints=[], summary=None, era=None, skipped_commits=tuple(skipped))
    return HistoryResult(
        checkpoints=checkpoints,
        summary=trajectory_summary(checkpoints),
        era=era_split(checkpoints, cutoff),
        skipped_commits=tuple(skipped),
    )

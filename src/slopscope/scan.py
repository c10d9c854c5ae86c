"""Snapshot records, input files, the tree walk and ``ScanConfig``, the one
record of what a snapshot is measured with, rule set and clone window included.

Records throughout the package are ``typing.NamedTuple`` classes, which
cost next to nothing to define at import. A record that checks its values
does so in the ``__new__`` of a thin subclass, refusing a bad one when built.
"""

from __future__ import annotations

import fnmatch
import os
import stat
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # annotations only: ``rules`` imports this module
    from .rules import QualityRule


class ScanError(Exception):
    """Raised when a scan cannot proceed at all (e.g. missing root)."""


def read_yaml(path: str | Path, error: type[Exception] = ScanError):
    """Parse a YAML (or JSON) file.

    Any failure to read, decode or parse it, nesting too deep for the
    parser included, is raised as ``error`` with a one-line message.
    ``yaml`` is imported here, not with the module: only a command given a
    rule, config or panel file needs a YAML parser.
    """
    import yaml

    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except RecursionError as exc:
        raise error(f"{path}: nested too deeply to parse") from exc
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise error(f"{path}: {' '.join(str(exc).split())}") from exc


_KIND_NAMES = {str: "a string", int: "an integer", list: "a list of strings"}


def read_record(cls, entry, kinds: dict, where: str, error: type[Exception] = ScanError):
    """One mapping read from an input file, as the record class ``cls`` (a
    ``typing.NamedTuple``); an absent key takes the class's default. ``kinds`` maps each key the
    mapping may hold to what its value must be: ``str``, ``int`` (a bool is
    not one), an integer ``n`` for an integer of at least ``n``, or ``list``
    for a list of strings (stored as a tuple). Anything else is raised as
    ``error`` with a one-line message that starts with ``where``.
    """
    if not isinstance(entry, dict):
        raise error(f"{where}: expected a mapping")
    unknown = set(entry) - set(kinds)
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown, key=str)}")
    missing = [name for name in cls._fields if name not in entry and name not in cls._field_defaults]
    if missing:
        raise error(f"{where}: missing keys {missing}")
    for key, value in entry.items():
        kind = kinds[key]
        if kind is list:
            ok = isinstance(value, list) and all(isinstance(item, str) for item in value)
        elif isinstance(kind, type):  # str or int; a bool is not an int
            ok = type(value) is kind
        else:  # the least integer allowed
            ok = type(value) is int and value >= kind
        if not ok:
            name = _KIND_NAMES.get(kind, f"an integer of at least {kind}")
            raise error(f"{where}: {key} must be {name}, got {value!r}")
    return cls(**{key: tuple(value) if kinds[key] is list else value for key, value in entry.items()})


class _FileFields(NamedTuple):
    path: str
    loc: int
    line_count: int


class FileRecord(_FileFields):
    """One analyzed source file.

    ``loc`` counts non-blank, non-comment physical lines and is the
    denominator used by the verbosity score. ``path`` is always relative
    to the scanned root, with '/' separators.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.loc > self.line_count:
            raise ValueError(f"{self.path}: loc {self.loc} > line_count {self.line_count}")
        if self.path.startswith("/") or ".." in self.path.split("/"):
            raise ValueError(f"path must be workspace-relative: {self.path}")
        return self


class _CallableFields(NamedTuple):
    qualified_name: str
    file: str
    start_line: int
    end_line: int
    cc: int
    sloc: int


class CallableRecord(_CallableFields):
    """One function or method, with its cyclomatic complexity and SLOC.

    Lines are 1-based and ``end_line`` is inclusive. Lambdas are not
    recorded on their own; their decision points fold into the nearest
    enclosing named callable.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        start, end = self.start_line, self.end_line
        if self.cc < 1 or self.sloc < 1:
            raise ValueError(f"{self.qualified_name}: cc and sloc must be >= 1")
        if start > end:
            raise ValueError(f"{self.qualified_name}: lines {start}-{end} inverted")
        if self.sloc > end - start + 1:
            raise ValueError(f"{self.qualified_name}: sloc {self.sloc} exceeds lines {start}-{end}")
        return self


class SourceInventory(NamedTuple):
    """Everything measured in one workspace snapshot.

    ``callables`` is sorted by (file, start_line) so serialized inventories
    are byte-stable across scans.
    """

    files: tuple[FileRecord, ...] = ()
    callables: tuple[CallableRecord, ...] = ()
    skipped: tuple[tuple[str, str], ...] = ()

    @property
    def total_loc(self) -> int:
        return sum(f.loc for f in self.files)


# Directories that are never source, regardless of config.
ALWAYS_SKIP_DIRS = {".git", ".hg", ".svn", "__pycache__"}

# The most bytes a measured file may hold; a larger one is a ``large`` skip.
# Parsing holds about 220 MiB per MB of dense code, so this bounds a file's
# memory. No score of a smaller file depends on it.
MAX_FILE_BYTES = 1 << 20

# The clone window in normalized lines, unless ``--min-window`` sets it.
DEFAULT_MIN_WINDOW = 6


class RuleSet:
    """Rules in file order, each with its compiled pattern or regex.
    Iterating a rule set gives its rules."""

    __slots__ = ("rules", "_compiled")

    def __init__(self, rules: tuple[QualityRule, ...], compiled: dict[str, object] | None = None) -> None:
        self.rules = rules
        self._compiled = {} if compiled is None else compiled

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def compiled(self, rule: QualityRule):
        return self._compiled[rule.id]

    def subset(self, rule_ids: set[str]) -> RuleSet:
        kept = tuple(r for r in self.rules if r.id in rule_ids)
        return RuleSet(kept, {r.id: self._compiled[r.id] for r in kept})


class ScanConfig(NamedTuple):
    """Everything a snapshot is measured with, each field in the config
    digest. A config file sets the first two; the command line the rest."""

    exclude: tuple[str, ...] = ()
    minified_line_threshold: int = 500
    min_window: int = DEFAULT_MIN_WINDOW
    rules: RuleSet = RuleSet(())


def load_scan_config(path: str | Path) -> ScanConfig:
    """Read a ScanConfig from a JSON or YAML file (JSON is a YAML subset).

    Raises ScanError if the file cannot be read or parsed, or if
    ``read_record`` refuses it: a minified-line threshold below 1 would
    skip every file of a tree.
    """
    kinds = {"exclude": list, "minified_line_threshold": 1}
    return read_record(ScanConfig, read_yaml(path) or {}, kinds, str(path))


def _excluded(relpath: str, patterns: tuple[str, ...]) -> bool:
    return any(
        fnmatch.fnmatch(relpath, pat) or fnmatch.fnmatch(os.path.basename(relpath), pat)
        for pat in patterns
    )


def decode_path(raw: bytes) -> str:
    """A file name or path as reports show it: its bytes read as UTF-8, each
    backslash doubled, and each byte that is not part of a UTF-8 character
    written as ``\\xNN``. The name ``caf`` + byte 0xE9 + ``.py`` is
    reported as ``caf\\xe9.py`` and the name ``caf\\xe9.py`` (with a
    backslash) as ``caf\\\\xe9.py``, so no two names share a path. A
    report stays valid UTF-8 whatever names the file system or git holds,
    and a scan of a checkout reports the paths ``history`` reports."""
    return raw.replace(b"\\", b"\\\\").decode("utf-8", "backslashreplace")


def is_python(name: str) -> bool:
    """Whether a file name or path is a Python source file's: it ends in
    ``.py`` after a stem (a file named ``.py`` is not one)."""
    return os.path.splitext(name)[1] == ".py"


def is_eligible(relpath: str, config: ScanConfig) -> bool:
    """Whether a scan measures the file at ``relpath`` ('/'-separated,
    relative to the root): no ``exclude`` glob matches it, and it is a
    Python file. No walk enters an ``ALWAYS_SKIP_DIRS`` directory."""
    return not _excluded(relpath, config.exclude) and is_python(relpath)


def read_file(root: Path, relpath: str) -> bytes | str:
    """The bytes of one file, or the reason it is skipped unread.

    Symbolic links are never followed: they may point out of the tree, or
    at a device that never ends. Nothing but a regular file is opened: a
    FIFO or a device may block a read forever. A file of more than
    ``MAX_FILE_BYTES`` is not read either.
    """
    full = root / relpath
    try:
        info = full.lstat()
        if stat.S_ISLNK(info.st_mode):
            return "symlink"
        if not stat.S_ISREG(info.st_mode):
            return "special"
        if info.st_size > MAX_FILE_BYTES:
            return "large"
        return full.read_bytes()
    except OSError:
        return "unreadable"


def read_tree(root: str | Path, config: ScanConfig) -> Iterator[tuple[str, bytes | str]]:
    """Each eligible file of a directory, in walk order, with its bytes or
    the reason it is skipped unread, read as the caller asks for it. A link
    to a directory is offered as a file, as git lists it, and so skipped.
    A directory below the root that cannot be listed comes last, as an
    ``unreadable`` skip; a root that cannot be listed raises ScanError."""
    root = Path(root)
    if not root.is_dir():
        raise ScanError(f"root does not exist or is not a directory: {root}")
    unlistable: list[OSError] = []
    for dirpath, dirnames, filenames in os.walk(root, onerror=unlistable.append):
        filenames += [d for d in dirnames if os.path.islink(os.path.join(dirpath, d))]
        dirnames[:] = [d for d in dirnames if d not in ALWAYS_SKIP_DIRS]
        for name in filenames:
            real = os.path.relpath(os.path.join(dirpath, name), root)
            rel = decode_path(os.fsencode(real.replace(os.sep, "/")))
            if is_eligible(rel, config):
                yield rel, read_file(root, real)
    for err in unlistable:
        real = os.path.relpath(err.filename, root)
        if real == os.curdir:
            raise ScanError(f"cannot list root {root}: {err.strerror or err}")
        yield decode_path(os.fsencode(real.replace(os.sep, "/"))), "unreadable"

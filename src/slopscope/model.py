"""Core data model: files, callables, and the per-snapshot inventory."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from pathlib import Path


class ScanError(Exception):
    """Raised when a scan cannot proceed at all (e.g. missing root)."""


class ConsistencyError(Exception):
    """Raised when inputs contradict each other (e.g. line past end of file)."""


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
    """One mapping read from an input file, as the frozen dataclass ``cls``;
    an absent key takes the class's default. ``kinds`` maps each key the
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
    missing = [f.name for f in fields(cls) if f.name not in entry and f.default is MISSING]
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


@dataclass(frozen=True)
class FileRecord:
    """One analyzed source file.

    ``loc`` counts non-blank, non-comment physical lines and is the
    denominator used by the verbosity score. ``path`` is always relative
    to the scanned root, with '/' separators.
    """

    path: str
    loc: int
    line_count: int

    def __post_init__(self) -> None:
        if self.loc > self.line_count:
            raise ValueError(f"{self.path}: loc {self.loc} > line_count {self.line_count}")
        if self.path.startswith("/") or ".." in self.path.split("/"):
            raise ValueError(f"path must be workspace-relative: {self.path}")


@dataclass(frozen=True)
class CallableRecord:
    """One function or method, with its cyclomatic complexity and SLOC.

    ``span`` is (start_line, end_line), 1-based inclusive. Lambdas are not
    recorded on their own; their decision points fold into the nearest
    enclosing named callable.
    """

    qualified_name: str
    file: str
    span: tuple[int, int]
    cc: int
    sloc: int

    def __post_init__(self) -> None:
        start, end = self.span
        if self.cc < 1 or self.sloc < 1:
            raise ValueError(f"{self.qualified_name}: cc and sloc must be >= 1")
        if start > end:
            raise ValueError(f"{self.qualified_name}: span {self.span} inverted")
        if self.sloc > end - start + 1:
            raise ValueError(f"{self.qualified_name}: sloc {self.sloc} exceeds span {self.span}")


@dataclass(frozen=True)
class SourceInventory:
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

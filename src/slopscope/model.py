"""Core data model: files, callables, and the per-snapshot inventory.

Records throughout the package are ``typing.NamedTuple`` classes, which
cost next to nothing to define at import. A record that checks its values
does so in the ``__new__`` of a thin subclass, so a bad value is refused
when the record is built.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple


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

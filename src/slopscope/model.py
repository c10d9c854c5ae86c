"""Core data model: files, callables, and the per-snapshot inventory."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml


class ScanError(Exception):
    """Raised when a scan cannot proceed at all (e.g. missing root)."""


class ConsistencyError(Exception):
    """Raised when inputs contradict each other (e.g. line past end of file)."""


def read_yaml(path: str | Path, error: type[Exception] = ScanError):
    """Parse a YAML (or JSON) file.

    Any failure to read, decode or parse it, nesting too deep for the
    parser included, is raised as ``error`` with a one-line message.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except RecursionError as exc:
        raise error(f"{path}: nested too deeply to parse") from exc
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise error(f"{path}: {' '.join(str(exc).split())}") from exc


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

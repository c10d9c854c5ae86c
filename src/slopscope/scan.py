"""Scan configuration, file eligibility, and reading a directory tree."""

from __future__ import annotations

import fnmatch
import os
import stat
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

from .model import ScanError, read_record, read_yaml

# Directories that are never source, regardless of config.
ALWAYS_SKIP_DIRS = {".git", ".hg", ".svn", "__pycache__"}


class ScanConfig(NamedTuple):
    exclude: tuple[str, ...] = ()
    minified_line_threshold: int = 500


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
    relative to the root): no directory on its way is one that is never
    source, no ``exclude`` glob matches it, and it is a Python file."""
    *dirs, name = relpath.split("/")
    return ALWAYS_SKIP_DIRS.isdisjoint(dirs) and not _excluded(relpath, config.exclude) and is_python(name)


def read_file(root: Path, relpath: str) -> bytes | str:
    """The bytes of one file, or the reason it is skipped unread.

    Symbolic links are never followed: they may point out of the tree, or
    at a device that never ends. Nothing but a regular file is opened: a
    FIFO or a device may block a read forever.
    """
    full = root / relpath
    try:
        mode = full.lstat().st_mode
        if stat.S_ISLNK(mode):
            return "symlink"
        if not stat.S_ISREG(mode):
            return "special"
        return full.read_bytes()
    except OSError:
        return "unreadable"


def _eligible_paths(root: Path, config: ScanConfig) -> list[tuple[str, str]]:
    """Each eligible file under ``root``: its reported path and its path on disk."""
    paths: list[tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in ALWAYS_SKIP_DIRS)
        for name in sorted(filenames):
            real = os.path.relpath(os.path.join(dirpath, name), root)
            rel = decode_path(os.fsencode(real.replace(os.sep, "/")))
            if is_eligible(rel, config):
                paths.append((rel, real))
    return sorted(paths)


def read_tree(root: str | Path, config: ScanConfig) -> Iterator[tuple[str, bytes | str]]:
    """Each eligible file of a directory, in path order, with its bytes or
    the reason it is skipped unread. Files are read one at a time, as the
    caller asks for them."""
    root = Path(root)
    if not root.is_dir():
        raise ScanError(f"root does not exist or is not a directory: {root}")
    return ((rel, read_file(root, real)) for rel, real in _eligible_paths(root, config))

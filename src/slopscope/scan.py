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

# The most bytes a measured file may hold; a larger one is a ``large`` skip.
# Parsing holds about 220 MiB per MB of dense code, so this bounds a file's
# memory. No score of a smaller file depends on it.
MAX_FILE_BYTES = 1 << 20


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
    to a directory is offered as a file, as git lists it, and so skipped."""
    root = Path(root)
    if not root.is_dir():
        raise ScanError(f"root does not exist or is not a directory: {root}")
    for dirpath, dirnames, filenames in os.walk(root):
        filenames += [d for d in dirnames if os.path.islink(os.path.join(dirpath, d))]
        dirnames[:] = [d for d in dirnames if d not in ALWAYS_SKIP_DIRS]
        for name in filenames:
            real = os.path.relpath(os.path.join(dirpath, name), root)
            rel = decode_path(os.fsencode(real.replace(os.sep, "/")))
            if is_eligible(rel, config):
                yield rel, read_file(root, real)

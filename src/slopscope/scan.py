"""Directory scanning: walk a tree, parse eligible files, build the inventory."""

from __future__ import annotations

import fnmatch
import os
import stat
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .adapters import SourceText, adapter_for_extension
from .model import FileRecord, ScanError, SourceInventory, merge_inventories, read_yaml

# Directories that are never source, regardless of config.
_ALWAYS_SKIP_DIRS = {".git", ".hg", ".svn", "__pycache__"}


@dataclass(frozen=True)
class ScanConfig:
    languages: tuple[str, ...] = ("python",)
    encoding: str = "utf-8"
    exclude: tuple[str, ...] = ()
    minified_line_threshold: int = 500


# The type each config key's value must have; lists hold strings.
_CONFIG_TYPES = {"languages": list, "encoding": str, "exclude": list, "minified_line_threshold": int}


def _has_type(value, kind: type) -> bool:
    if kind is list:
        return isinstance(value, list) and all(isinstance(item, str) for item in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def load_scan_config(path: str | Path) -> ScanConfig:
    """Read a ScanConfig from a JSON or YAML file (JSON is a YAML subset).

    Raises ScanError if the file cannot be read or parsed, holds an unknown
    key, or holds a value of the wrong type or out of range: a name that is
    not a text encoding Python knows (``rot13`` and ``base64`` are codecs
    but not text encodings), or a minified-line threshold below 1 (either
    would skip every file of a tree).
    """
    raw = read_yaml(path) or {}
    if not isinstance(raw, dict):
        raise ScanError(f"{path}: expected a mapping")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise ScanError(f"{path}: unknown keys {sorted(unknown)}")
    for key, value in raw.items():
        if not _has_type(value, _CONFIG_TYPES[key]):
            raise ScanError(f"{path}: {key} has the wrong type: {value!r}")
    if raw.get("minified_line_threshold", 1) < 1:
        raise ScanError(f"{path}: minified_line_threshold must be at least 1: {raw['minified_line_threshold']!r}")
    try:
        "".encode(raw.get("encoding", "utf-8"))
    except (LookupError, ValueError):
        raise ScanError(f"{path}: not a text encoding: {raw['encoding']!r}") from None
    return ScanConfig(**{key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()})


@dataclass
class ParsedSource:
    """Line table, syntax tree and inventory (record and callables) of one
    scanned file."""

    path: str
    language: str
    source: SourceText
    tree: object
    inventory: SourceInventory


def _excluded(relpath: str, patterns: tuple[str, ...]) -> bool:
    return any(
        fnmatch.fnmatch(relpath, pat) or fnmatch.fnmatch(os.path.basename(relpath), pat)
        for pat in patterns
    )


def is_eligible(relpath: str, config: ScanConfig) -> bool:
    """Whether a scan measures the file at ``relpath`` ('/'-separated,
    relative to the root): no directory on its way is one that is never
    source, no ``exclude`` glob matches it, and an adapter claims its
    extension."""
    *dirs, name = relpath.split("/")
    return (
        _ALWAYS_SKIP_DIRS.isdisjoint(dirs)
        and not _excluded(relpath, config.exclude)
        and adapter_for_extension(os.path.splitext(name)[1], list(config.languages)) is not None
    )


def _skip(relpath: str, reason: str) -> tuple[SourceInventory, None]:
    return SourceInventory(skipped=((relpath, reason),)), None


def scan_bytes(relpath: str, data: bytes, config: ScanConfig) -> tuple[SourceInventory, ParsedSource | None]:
    """Decode and parse the bytes of one file whose extension an adapter
    claims. A file that cannot be measured comes back as a skip with its
    reason and no ParsedSource."""
    adapter = adapter_for_extension(os.path.splitext(relpath)[1], list(config.languages))
    assert adapter is not None  # caller filtered by extension
    try:
        text = data.decode(config.encoding)
    except (UnicodeDecodeError, LookupError):
        return _skip(relpath, "decode")

    source = SourceText.from_text(text)
    if source.line_count and len(text) / source.line_count > config.minified_line_threshold:
        return _skip(relpath, "minified")

    try:
        tree = adapter.parse(text)
    except (SyntaxError, ValueError, RecursionError):
        return _skip(relpath, "parse")

    record = FileRecord(
        path=relpath,
        language=adapter.language,
        loc=len(source.source_lines),
        line_count=source.line_count,
    )
    callables = adapter.enumerate_callables(relpath, source, tree)
    inventory = SourceInventory(files=(record,), callables=tuple(callables))
    return inventory, ParsedSource(relpath, adapter.language, source, tree, inventory)


def scan_file(root: Path, relpath: str, config: ScanConfig) -> tuple[SourceInventory, ParsedSource | None]:
    """Read one file whose extension an adapter claims, then ``scan_bytes``.

    Symbolic links are never followed: they may point out of the tree, or
    at a device that never ends. Nothing but a regular file is opened: a
    FIFO or a device may block a read forever.
    """
    full = root / relpath
    try:
        mode = full.lstat().st_mode
        if stat.S_ISLNK(mode):
            return _skip(relpath, "symlink")
        if not stat.S_ISREG(mode):
            return _skip(relpath, "special")
        data = full.read_bytes()
    except OSError:
        return _skip(relpath, "unreadable")
    return scan_bytes(relpath, data, config)


def _eligible_paths(root: Path, config: ScanConfig) -> list[str]:
    paths: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _ALWAYS_SKIP_DIRS)
        for name in sorted(filenames):
            rel = os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
            if is_eligible(rel, config):
                paths.append(rel)
    return sorted(paths)


def scan_tree_with_sources(
    root: str | Path | Mapping[str, bytes], config: ScanConfig | None = None
) -> tuple[SourceInventory, dict[str, ParsedSource]]:
    """Scan a tree, keeping line tables and trees for downstream matching.

    ``root`` is a directory, or the eligible files of a tree already read:
    a mapping from each path to its bytes.
    """
    config = config or ScanConfig()
    if isinstance(root, Mapping):
        results = [scan_bytes(path, data, config) for path, data in sorted(root.items())]
    else:
        root = Path(root)
        if not root.is_dir():
            raise ScanError(f"root does not exist or is not a directory: {root}")
        results = [scan_file(root, p, config) for p in _eligible_paths(root, config)]
    inventory = merge_inventories([inv for inv, _ in results])
    sources = {src.path: src for _, src in results if src is not None}
    return inventory, sources


def scan_tree(root: str | Path, config: ScanConfig | None = None) -> SourceInventory:
    """Scan a tree into a SourceInventory. Deterministic for a fixed tree."""
    inventory, _ = scan_tree_with_sources(root, config)
    return inventory

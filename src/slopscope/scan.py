"""Directory scanning: walk a tree, parse eligible files, build the inventory."""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass
from pathlib import Path

import yaml

from .adapters import SourceText, adapter_for_extension
from .model import FileRecord, ScanError, SourceInventory, merge_inventories

# Directories that are never source, regardless of config.
_ALWAYS_SKIP_DIRS = {".git", ".hg", ".svn", "__pycache__"}


@dataclass(frozen=True)
class ScanConfig:
    languages: tuple[str, ...] = ("python",)
    encoding: str = "utf-8"
    exclude: tuple[str, ...] = ()
    minified_line_threshold: int = 500

    def to_dict(self) -> dict:
        return {
            "languages": list(self.languages),
            "encoding": self.encoding,
            "exclude": list(self.exclude),
            "minified_line_threshold": self.minified_line_threshold,
        }


def load_scan_config(path: str | Path) -> ScanConfig:
    """Read a ScanConfig from a JSON or YAML file (JSON is a YAML subset)."""
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ScanError(f"config {path}: expected a mapping")
    known = {"languages", "encoding", "exclude", "minified_line_threshold"}
    unknown = set(raw) - known
    if unknown:
        raise ScanError(f"config {path}: unknown keys {sorted(unknown)}")
    return ScanConfig(
        languages=tuple(raw.get("languages", ["python"])),
        encoding=raw.get("encoding", "utf-8"),
        exclude=tuple(raw.get("exclude", [])),
        minified_line_threshold=int(raw.get("minified_line_threshold", 500)),
    )


@dataclass
class ParsedSource:
    """Line table plus syntax tree for one scanned file."""

    path: str
    language: str
    source: SourceText
    tree: object


def _excluded(relpath: str, patterns: tuple[str, ...]) -> bool:
    return any(
        fnmatch.fnmatch(relpath, pat) or fnmatch.fnmatch(os.path.basename(relpath), pat)
        for pat in patterns
    )


def _scan_one(root: Path, relpath: str, config: ScanConfig) -> tuple[SourceInventory, ParsedSource | None]:
    adapter = adapter_for_extension(os.path.splitext(relpath)[1], list(config.languages))
    assert adapter is not None  # caller filtered by extension
    full = root / relpath
    try:
        data = full.read_bytes()
    except OSError:
        return SourceInventory(skipped=((relpath, "unreadable"),)), None
    try:
        text = data.decode(config.encoding)
    except (UnicodeDecodeError, LookupError):
        return SourceInventory(skipped=((relpath, "decode"),)), None

    source = SourceText.from_text(text)
    if source.line_count and len(text) / source.line_count > config.minified_line_threshold:
        return SourceInventory(skipped=((relpath, "minified"),)), None

    try:
        tree = adapter.parse(text)
    except (SyntaxError, ValueError, RecursionError):
        return SourceInventory(skipped=((relpath, "parse"),)), None

    record = FileRecord(
        path=relpath,
        language=adapter.language,
        loc=len(source.source_lines),
        line_count=source.line_count,
    )
    callables = adapter.enumerate_callables(relpath, source, tree)
    inventory = SourceInventory(files=(record,), callables=tuple(callables))
    return inventory, ParsedSource(relpath, adapter.language, source, tree)


def _eligible_paths(root: Path, config: ScanConfig) -> list[str]:
    paths: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _ALWAYS_SKIP_DIRS)
        for name in sorted(filenames):
            rel = os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
            if _excluded(rel, config.exclude):
                continue
            if adapter_for_extension(os.path.splitext(name)[1], list(config.languages)):
                paths.append(rel)
    return sorted(paths)


def scan_tree_with_sources(
    root: str | Path, config: ScanConfig | None = None
) -> tuple[SourceInventory, dict[str, ParsedSource]]:
    """Scan a tree, keeping line tables and trees for downstream matching."""
    config = config or ScanConfig()
    root = Path(root)
    if not root.is_dir():
        raise ScanError(f"root does not exist or is not a directory: {root}")
    results = [_scan_one(root, p, config) for p in _eligible_paths(root, config)]
    inventory = merge_inventories([inv for inv, _ in results])
    sources = {src.path: src for _, src in results if src is not None}
    return inventory, sources


def scan_tree(root: str | Path, config: ScanConfig | None = None) -> SourceInventory:
    """Scan a tree into a SourceInventory. Deterministic for a fixed tree."""
    inventory, _ = scan_tree_with_sources(root, config)
    return inventory

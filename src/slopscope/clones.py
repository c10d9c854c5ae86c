"""Type-2 clone detection over normalized token lines.

Identifiers, numbers, and strings are normalized to placeholder classes so
that renamed duplicates still collide. Comment and blank lines are dropped.
Fixed-size windows of normalized lines are fingerprinted; any window that
occurs at two or more distinct positions marks its lines as clone lines,
and overlapping matched windows are merged into maximal regions. Regions
linked through a shared window fingerprint form one clone class.
"""

from __future__ import annotations

import hashlib
import io
import keyword
import token
import tokenize
from dataclasses import dataclass

DEFAULT_MIN_WINDOW = 6


@dataclass(frozen=True)
class CloneRegion:
    clone_class_id: int
    file: str
    span: tuple[int, int]  # physical lines, 1-based inclusive
    fingerprint: str  # hash of the region's normalized content
    lines: tuple[int, ...]  # the physical source lines the region covers


@dataclass(frozen=True)
class NormalizedFile:
    """A file's clone-relevant content, as ``normalize_file`` gives it."""

    path: str
    # One entry per normalized line: (normalized token text, physical line).
    lines: tuple[str, ...]
    physical: tuple[int, ...]


def _normalize_token(tok: tokenize.TokenInfo) -> str | None:
    if tok.type == token.NAME:
        return tok.string if keyword.iskeyword(tok.string) else "ID"
    if tok.type == token.NUMBER:
        return "NUM"
    if tok.type == token.STRING:
        return "STR"
    if tok.type == token.OP:
        return tok.string
    return None


def normalize_file(path: str, text: str) -> NormalizedFile:
    """Token-normalize a file into per-line fingerprint strings.

    Multi-line tokens (e.g. triple-quoted strings) are attributed to their
    start line. Lines break only at CR LF, CR and LF, as the parser's do.
    Falls back to an empty stream if the file cannot be tokenized at all.
    """
    per_line: dict[int, list[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text, newline=None).readline):
            normalized = _normalize_token(tok)
            if normalized is not None:
                per_line.setdefault(tok.start[0], []).append(normalized)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    lines: list[str] = []
    physical: list[int] = []
    for lineno in sorted(per_line):
        lines.append(" ".join(per_line[lineno]))
        physical.append(lineno)
    return NormalizedFile(path, tuple(lines), tuple(physical))


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        while self.parent.setdefault(x, x) != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def detect_clones_normalized(
    files: list[NormalizedFile], min_window: int = DEFAULT_MIN_WINDOW
) -> list[CloneRegion]:
    if min_window < 1:
        raise ValueError("min_window must be positive")

    # Window fingerprint -> positions (file index, start normalized line).
    index: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    for fi, nf in enumerate(files):
        for start in range(len(nf.lines) - min_window + 1):
            key = nf.lines[start : start + min_window]
            index.setdefault(key, []).append((fi, start))

    matched: dict[int, set[int]] = {}  # file index -> matched window starts
    shared = [(key, positions) for key, positions in index.items() if len(positions) >= 2]
    for _, positions in shared:
        for fi, start in positions:
            matched.setdefault(fi, set()).add(start)

    # Merge overlapping matched windows into maximal regions per file.
    regions: list[tuple[int, int, int]] = []  # (file index, norm start, norm end)
    window_region: dict[tuple[int, int], int] = {}  # (file, window start) -> region id
    for fi in sorted(matched):
        starts = sorted(matched[fi])
        run_start = starts[0]
        prev = starts[0]
        runs: list[tuple[int, int]] = []
        for s in starts[1:]:
            if s <= prev + min_window:  # windows overlap or touch
                prev = s
            else:
                runs.append((run_start, prev))
                run_start = prev = s
        runs.append((run_start, prev))
        for first, last in runs:
            region_id = len(regions)
            regions.append((fi, first, last + min_window - 1))
            for s in range(first, last + 1):
                window_region[(fi, s)] = region_id

    # Regions that share any window fingerprint belong to one clone class.
    uf = _UnionFind()
    for _, positions in shared:
        ids = [window_region[pos] for pos in positions if pos in window_region]
        for other in ids[1:]:
            uf.union(ids[0], other)

    out: list[CloneRegion] = []
    class_numbers: dict[int, int] = {}
    order = sorted(
        range(len(regions)),
        key=lambda rid: (files[regions[rid][0]].path, regions[rid][1]),
    )
    for rid in order:
        fi, first, last = regions[rid]
        nf = files[fi]
        root = uf.find(rid)
        class_id = class_numbers.setdefault(root, len(class_numbers))
        phys = nf.physical[first : last + 1]
        content = "\n".join(nf.lines[first : last + 1])
        out.append(
            CloneRegion(
                clone_class_id=class_id,
                file=nf.path,
                span=(phys[0], phys[-1]),
                fingerprint=hashlib.sha1(content.encode()).hexdigest(),
                lines=phys,
            )
        )
    return out


def detect_clones(
    texts: dict[str, str | NormalizedFile], min_window: int = DEFAULT_MIN_WINDOW
) -> list[CloneRegion]:
    """Detect type-2 clones across a set of files: path -> source text, or
    the file already normalized by ``normalize_file``."""
    files = [
        text if isinstance(text, NormalizedFile) else normalize_file(path, text)
        for path, text in sorted(texts.items())
    ]
    return detect_clones_normalized(files, min_window)


def clone_lines(regions: list[CloneRegion]) -> set[tuple[str, int]]:
    """Every (file, physical line) covered by any clone region."""
    out: set[tuple[str, int]] = set()
    for region in regions:
        out.update((region.file, line) for line in region.lines)
    return out

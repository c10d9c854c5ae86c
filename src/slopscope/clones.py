"""Type-2 clone detection over normalized token lines.

Each file is cut into tokens by one compiled scanner, the same on every
Python version: a name is ``ID`` unless it is a hard keyword
(``keyword.kwlist``), which stays as written (soft keywords such as
``match`` are names); a number is ``NUM``; a string, with any prefix and
an f-string whole, is ``STR``; an operator stays as written. Whitespace,
backslash continuations, comments and characters of no token are dropped,
so comment and blank lines have no normalized line. A token counts on the
physical line where it starts, and lines break at CR LF, CR and LF, as the
parser's do. Fixed-size windows of normalized lines are fingerprinted; any
window that occurs at two or more distinct positions marks its lines as
clone lines. Matched windows of one file that overlap or touch (one starts
at most ``min_window`` normalized lines after another) are merged into
maximal regions. Regions linked through a shared window fingerprint form
one clone class.

This module imports only the standard library.
"""

from __future__ import annotations

import functools
import hashlib
import keyword
import re
from collections.abc import Iterable
from typing import NamedTuple

DEFAULT_MIN_WINDOW = 6


class CloneRegion(NamedTuple):
    clone_class_id: int
    file: str
    start_line: int  # physical lines, 1-based inclusive
    end_line: int
    fingerprint: str  # hash of the region's normalized content
    lines: tuple[int, ...]  # the physical source lines the region covers


class NormalizedFile(NamedTuple):
    """A file's clone-relevant content, as ``normalize_file`` gives it."""

    path: str
    # One entry per normalized line: (normalized token text, physical line).
    lines: tuple[str, ...]
    physical: tuple[int, ...]


_KEYWORDS = frozenset(keyword.kwlist)
_OPERATORS = (
    "!= % %= & &= ( ) * ** **= *= + += , - -= -> . ... / // //= /= : := ; "
    "< << <<= <= = == > >= >> >>= @ @= [ ] ^ ^= { | |= } ~"
).split()
_STRING_PREFIX = r"(?:[bB][rR]?|[rR][bBfF]?|[uU]|[fF][rR]?)?"
_DIGITS = r"[0-9](?:_?[0-9])*"
_EXPONENT = rf"[eE][-+]?{_DIGITS}"
_FLOAT = rf"(?:(?:{_DIGITS}\.(?:{_DIGITS})?|\.{_DIGITS})(?:{_EXPONENT})?|{_DIGITS}{_EXPONENT})"
_INTEGER = r"(?:0[xX](?:_?[0-9a-fA-F])+|0[bB](?:_?[01])+|0[oO](?:_?[0-7])+|0(?:_?0)*|[1-9](?:_?[0-9])*)"
# The alternatives follow tokenize's order where two can start alike: a
# string before a name (its prefix), a number before an operator (``.5``).
# A string's closing quote is optional, so once its opening matches the
# alternative cannot fail: text that does not tokenize is one linear pass.
_TOKEN = (
    r"[ \f\t]*(?:"
    r"(?P<newline>\\?\n)"  # a line break, or a backslash continuation
    r"|#[^\n]*"
    rf"|(?P<string>{_STRING_PREFIX}(?:"
    r"'''[^'\\]*(?:(?:\\[\s\S]|'(?!''))[^'\\]*)*(?:'''|\\?\Z)"
    r'|"""[^"\\]*(?:(?:\\[\s\S]|"(?!""))[^"\\]*)*(?:"""|\\?\Z)'
    r"|'[^\n'\\]*(?:\\[\s\S][^\n'\\]*)*'?"
    r'|"[^\n"\\]*(?:\\[\s\S][^\n"\\]*)*"?'
    "))"
    rf"|(?P<number>{_DIGITS}[jJ]|{_FLOAT}[jJ]?|{_INTEGER})"
    # Reverse order tries each operator before its prefixes: ``**=``, ``**``, ``*``.
    rf"|(?P<operator>{'|'.join(map(re.escape, sorted(_OPERATORS, reverse=True)))})"
    r"|(?P<name>\w+)"
    r"|[\s\S]"  # a character of no token
    ")"
)


@functools.cache
def _token_scanner() -> re.Pattern[str]:
    # Compiled on first use (a few ms), so commands that normalize nothing
    # do not pay for it at start-up.
    return re.compile(_TOKEN)


def normalize_file(path: str, text: str) -> NormalizedFile:
    """Token-normalize a file into per-line fingerprint strings.

    Any text is accepted: a string left open runs to the end of its line (a
    triple-quoted one to the end of the text), and a character that starts
    no token is dropped.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lineno = 1
    tokens: list[str] = []
    per_line = {lineno: tokens}
    for match in _token_scanner().finditer(text):
        kind = match.lastgroup
        if kind == "name":
            word = match["name"]
            tokens.append(word if word in _KEYWORDS else "ID")
        elif kind == "operator":
            tokens.append(match["operator"])
        elif kind == "number":
            tokens.append("NUM")
        elif kind == "string":
            tokens.append("STR")
            breaks = match["string"].count("\n")
            if breaks:
                lineno += breaks
                tokens = per_line[lineno] = []
        elif kind == "newline":
            lineno += 1
            tokens = per_line[lineno] = []
    kept = [(n, line) for n, line in per_line.items() if line]
    return NormalizedFile(path, tuple(" ".join(line) for _, line in kept), tuple(n for n, _ in kept))


def detect_clones_normalized(
    files: list[NormalizedFile], min_window: int = DEFAULT_MIN_WINDOW
) -> list[CloneRegion]:
    if min_window < 1:
        raise ValueError("min_window must be positive")

    # Window content -> its positions, each ``file index << 32 | start``.
    index: dict[tuple[str, ...], list[int]] = {}
    for fi, nf in enumerate(files):
        for start in range(len(nf.lines) - min_window + 1):
            index.setdefault(nf.lines[start : start + min_window], []).append(fi << 32 | start)
    shared = [positions for positions in index.values() if len(positions) >= 2]

    # One pass over the matched positions in (file, start) order: a window
    # that starts no more than ``min_window`` after the region's last start
    # (it overlaps or touches it) extends the region. No file has 2**32
    # lines, so a window of the next file always starts further off.
    regions: list[list[int]] = []  # [first position, last position]
    region_of: dict[int, int] = {}
    for pos in sorted({pos for positions in shared for pos in positions}):
        if regions and pos - regions[-1][1] <= min_window:
            regions[-1][1] = pos
        else:
            regions.append([pos, pos])
        region_of[pos] = len(regions) - 1

    # Regions that share any window belong to one clone class.
    parent = list(range(len(regions)))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for positions in shared:
        root = find(region_of[positions[0]])
        for pos in positions[1:]:
            parent[find(region_of[pos])] = root

    # Files come sorted by path, so class numbers follow the regions'
    # (path, start) order.
    out: list[CloneRegion] = []
    class_numbers: dict[int, int] = {}
    for rid, (first, last) in enumerate(regions):
        nf, lo = files[first >> 32], first & 0xFFFFFFFF
        span = slice(lo, lo + last - first + min_window)
        phys = nf.physical[span]
        fingerprint = hashlib.sha1("\n".join(nf.lines[span]).encode()).hexdigest()
        class_id = class_numbers.setdefault(find(rid), len(class_numbers))
        out.append(CloneRegion(class_id, nf.path, phys[0], phys[-1], fingerprint, phys))
    return out


def detect_clones(files: Iterable[NormalizedFile], min_window: int = DEFAULT_MIN_WINDOW) -> list[CloneRegion]:
    """Detect type-2 clones across a set of files, each as ``normalize_file``
    gives it, taken in path order."""
    return detect_clones_normalized(sorted(files, key=lambda nf: nf.path), min_window)

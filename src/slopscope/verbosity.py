"""Verbosity: deduplicated union of rule-flagged lines and clone lines over LOC."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import NamedTuple

from .clones import CloneRegion
from .model import ConsistencyError
from .rules import RuleMatch


class VerbosityBreakdown(NamedTuple):
    score: float
    flagged_lines: int
    clone_lines: int
    union_lines: int
    loc: int
    violation_density: float
    clone_ratio: float


def counted_lines(
    files: Mapping[str, tuple[int, frozenset[int]]],
    matches: Iterable[RuleMatch],
    clones: Iterable[CloneRegion],
) -> dict[str, tuple[set[int], set[int]]]:
    """Each measured file's flagged lines and clone lines that count.

    ``files`` maps each measured file to its line count and its source
    lines (neither blank nor comment). Only source lines count, so blank
    lines inside a multi-line match cannot push a score past 1. A match or
    clone region in a file not in ``files``, or covering a line outside its
    file, raises ConsistencyError.
    """
    counted: dict[str, tuple[set[int], set[int]]] = {path: (set(), set()) for path in files}
    for slot, items, what in ((0, matches, "match"), (1, clones, "clone region")):
        for item in items:
            if item.file not in files:
                raise ConsistencyError(f"{what} in unknown file {item.file}")
            line_count, source_lines = files[item.file]
            outside = [line for line in item.lines if not 1 <= line <= line_count]
            if outside:
                raise ConsistencyError(f"{item.file}:{outside[0]} outside file bounds")
            counted[item.file][slot].update(source_lines.intersection(item.lines))
    return counted


def verbosity_score(
    files: Mapping[str, tuple[int, frozenset[int]]],
    matches: Iterable[RuleMatch],
    clones: Iterable[CloneRegion],
) -> VerbosityBreakdown:
    """Union score: |flagged lines ∪ clone lines| / total LOC, over the
    lines ``counted_lines`` keeps; a file's LOC is its number of source
    lines. A line hit by several rules and a clone still counts once."""
    counted = counted_lines(files, matches, clones).values()
    flagged = sum(len(f) for f, _ in counted)
    cloned = sum(len(c) for _, c in counted)
    union = sum(len(f | c) for f, c in counted)
    loc = sum(len(source_lines) for _, source_lines in files.values())
    return VerbosityBreakdown(
        score=union / loc if loc > 0 else 0.0,
        flagged_lines=flagged,
        clone_lines=cloned,
        union_lines=union,
        loc=loc,
        violation_density=flagged / loc if loc > 0 else 0.0,
        clone_ratio=cloned / loc if loc > 0 else 0.0,
    )

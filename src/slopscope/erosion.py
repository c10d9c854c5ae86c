"""Structural erosion: complexity mass, erosion score, and the sensitivity sweep."""

from __future__ import annotations

from typing import NamedTuple

from .model import CallableRecord, SourceInventory

SWEEP_CUTOFFS = (8, 10, 12)
SWEEP_EXPONENTS = (0.0, 0.5, 1.0)
HOTSPOT_LIMIT = 20  # heaviest callables a report keeps: by mass, then file, then line


class _ErosionFields(NamedTuple):
    cc_cutoff: int = 10
    size_exponent: float = 0.5


class ErosionParams(_ErosionFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.cc_cutoff < 1:
            raise ValueError("cc_cutoff must be positive")
        if self.size_exponent not in (0.0, 0.5, 1.0):
            raise ValueError("size_exponent must be one of 0, 0.5, 1")
        return self


class ErosionReport(NamedTuple):
    score: float
    total_mass: float
    high_cc_mass: float
    high_cc_count: int
    max_cc: int
    hotspots: tuple[tuple[CallableRecord, float], ...]


def complexity_mass(cc: int, sloc: int, size_exponent: float = 0.5) -> float:
    """Size-weighted complexity of one callable: cc * sloc**size_exponent."""
    if cc < 1 or sloc < 1:
        raise ValueError("cc and sloc must be >= 1")
    return cc * sloc**size_exponent


def erosion_score(inventory: SourceInventory, params: ErosionParams | None = None) -> ErosionReport:
    """Share of total complexity mass held by callables with cc above the cutoff.

    Strict inequality: a callable with cc exactly at the cutoff contributes
    to the denominator only. Empty inventories score 0 by convention so the
    first checkpoint of a trajectory is always well-defined.
    """
    params = params or ErosionParams()
    total = 0.0
    high = 0.0
    high_count = 0
    max_cc = 0
    masses: list[tuple[CallableRecord, float]] = []
    for c in inventory.callables:
        mass = complexity_mass(c.cc, c.sloc, params.size_exponent)
        total += mass
        masses.append((c, mass))
        max_cc = max(max_cc, c.cc)
        if c.cc > params.cc_cutoff:
            high += mass
            high_count += 1
    masses.sort(key=lambda pair: (-pair[1], pair[0].file, pair[0].span[0]))
    score = high / total if total > 0 else 0.0
    return ErosionReport(
        score=score,
        total_mass=total,
        high_cc_mass=high,
        high_cc_count=high_count,
        max_cc=max_cc,
        hotspots=tuple(masses[:HOTSPOT_LIMIT]),
    )


def erosion_sensitivity(inventory: SourceInventory) -> list[tuple[int, float, float]]:
    """Fixed 3x3 sweep over cutoffs {8, 10, 12} and size exponents {0, 0.5, 1}.

    The (10, 0.5) row is computed through the exact same path as the default
    score, so the two agree bit-for-bit.
    """
    rows = []
    for cutoff in SWEEP_CUTOFFS:
        for exponent in SWEEP_EXPONENTS:
            report = erosion_score(inventory, ErosionParams(cutoff, exponent))
            rows.append((cutoff, exponent, report.score))
    return rows

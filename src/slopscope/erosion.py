"""Structural erosion: complexity mass, erosion score, and the sensitivity sweep."""

from __future__ import annotations

from typing import NamedTuple

from .scan import CallableRecord, SourceInventory

CC_CUTOFF = 10  # a callable counts as high-complexity above this cc
SIZE_EXPONENT = 0.5  # a callable's mass is cc * sloc**SIZE_EXPONENT
SWEEP_CUTOFFS = (8, 10, 12)
SWEEP_EXPONENTS = (0.0, 0.5, 1.0)
HOTSPOT_LIMIT = 20  # heaviest callables a report keeps: by mass, then file, then line


class ErosionReport(NamedTuple):
    score: float
    total_mass: float
    high_cc_mass: float
    high_cc_count: int
    max_cc: int
    hotspots: tuple[tuple[CallableRecord, float], ...]


def complexity_mass(cc: int, sloc: int, size_exponent: float = SIZE_EXPONENT) -> float:
    """Size-weighted complexity of one callable: cc * sloc**size_exponent."""
    if cc < 1 or sloc < 1:
        raise ValueError("cc and sloc must be >= 1")
    return cc * sloc**size_exponent


def _weigh(callables: tuple[CallableRecord, ...], cc_cutoff: int,
           size_exponent: float) -> tuple[float, float, float, int, list[float]]:
    """(score, total mass, mass above the cutoff, count above the cutoff,
    each callable's mass in inventory order): the one loop that both the
    score and the sweep run, so their (10, 0.5) cells agree bit-for-bit."""
    total = 0.0
    high = 0.0
    high_count = 0
    masses = []
    for c in callables:
        mass = complexity_mass(c.cc, c.sloc, size_exponent)
        total += mass
        masses.append(mass)
        if c.cc > cc_cutoff:
            high += mass
            high_count += 1
    score = high / total if total > 0 else 0.0
    return score, total, high, high_count, masses


def erosion_score(inventory: SourceInventory) -> ErosionReport:
    """Share of total complexity mass held by callables with cc above
    ``CC_CUTOFF``, each weighed at ``SIZE_EXPONENT``.

    Strict inequality: a callable with cc exactly at the cutoff contributes
    to the denominator only. Empty inventories score 0 by convention so the
    first checkpoint of a trajectory is always well-defined.
    """
    callables = inventory.callables
    score, total, high, high_count, masses = _weigh(callables, CC_CUTOFF, SIZE_EXPONENT)
    pairs = zip(callables, masses)
    if len(masses) > HOTSPOT_LIMIT:
        # Only callables at least as heavy as the HOTSPOT_LIMIT-th mass can
        # rank that high. The sort below is stable and ranks by mass first,
        # so sorting just those gives the full ranking's head. (heapq would
        # load its C module into every scan: +0.12 MiB peak RSS.)
        cut = sorted(masses, reverse=True)[HOTSPOT_LIMIT - 1]
        pairs = [pair for pair in pairs if pair[1] >= cut]
    hotspots = sorted(pairs, key=lambda pair: (-pair[1], pair[0].file, pair[0].start_line))[:HOTSPOT_LIMIT]
    return ErosionReport(
        score=score,
        total_mass=total,
        high_cc_mass=high,
        high_cc_count=high_count,
        max_cc=max((c.cc for c in callables), default=0),
        hotspots=tuple(hotspots),
    )


def erosion_sensitivity(inventory: SourceInventory) -> list[tuple[int, float, float]]:
    """Fixed 3x3 sweep over cutoffs {8, 10, 12} and size exponents {0, 0.5, 1}.

    Each cell runs ``erosion_score``'s own loop (``_weigh``) and ranks no
    hotspots, so the (10, 0.5) row agrees with the score bit-for-bit.
    """
    return [
        (cutoff, exponent, _weigh(inventory.callables, cutoff, exponent)[0])
        for cutoff in SWEEP_CUTOFFS
        for exponent in SWEEP_EXPONENTS
    ]

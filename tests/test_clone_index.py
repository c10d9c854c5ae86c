"""The clone index against the indexer it replaced, kept here as the oracle.

``detect_clones_normalized`` below is the earlier implementation, unchanged:
tuple positions, per-file sets and runs, a map from every start inside a run
to its region, and a dictionary union-find. The index in ``slopscope.clones``
must give the same regions, in the same order, with the same class ids,
fingerprints, spans and lines.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from slopscope import clones
from slopscope.clones import DEFAULT_MIN_WINDOW, CloneRegion, NormalizedFile, normalize_file

from conftest import CORPORA

WINDOWS = (1, 2, 3, 6)


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
    # Each position of a shared window is a matched start, so lies in a region.
    uf = _UnionFind()
    for _, positions in shared:
        ids = [window_region[pos] for pos in positions]
        for other in ids[1:]:
            uf.union(ids[0], other)

    out: list[CloneRegion] = []
    class_numbers: dict[int, int] = {}
    # Regions were made in file order, then by start, and files come sorted
    # by path, so class numbers follow the regions' (path, start) order.
    for rid, (fi, first, last) in enumerate(regions):
        nf = files[fi]
        root = uf.find(rid)
        class_id = class_numbers.setdefault(root, len(class_numbers))
        phys = nf.physical[first : last + 1]
        content = "\n".join(nf.lines[first : last + 1])
        out.append(
            CloneRegion(
                clone_class_id=class_id,
                file=nf.path,
                start_line=phys[0],
                end_line=phys[-1],
                fingerprint=hashlib.sha1(content.encode()).hexdigest(),
                lines=phys,
            )
        )
    return out


def random_corpus(rng: random.Random) -> list[NormalizedFile]:
    """One to five files, in path order, of up to 40 normalized lines drawn
    from a few distinct lines, so that windows recur, overlap and touch;
    some files also take a copied run of another's lines."""
    alphabet = [f"ID = ID + {k}" for k in range(rng.randint(1, 8))]
    bodies: list[list[str]] = []
    for _ in range(rng.randint(1, 5)):
        body = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
        if bodies and rng.random() < 0.5:
            donor = rng.choice(bodies)
            cut = rng.randint(0, len(donor))
            at = rng.randint(0, len(body))
            body[at:at] = donor[cut : cut + rng.randint(1, 12)]
        bodies.append(body)
    return [
        NormalizedFile(f"f{fi}.py", tuple(body), tuple(itertools.accumulate(rng.randint(1, 3) for _ in body)))
        for fi, body in enumerate(bodies)
    ]


def test_random_corpora_match_the_reference():
    rng = random.Random(22)
    compared = classes = 0
    for trial in range(1000):
        files = random_corpus(rng)
        for window in WINDOWS:
            want = detect_clones_normalized(files, window)
            assert clones.detect_clones_normalized(files, window) == want, (trial, window)
            compared += len(want)
            classes += len({r.clone_class_id for r in want})
    # The corpora exercise the index: many regions, in many classes.
    assert compared > 10_000 and classes > 3_000


@pytest.mark.parametrize("corpus", ["golden_tree", "cc_corpus", "stdlib"])
def test_corpora_match_the_reference(corpus):
    files = [normalize_file(str(path), path.read_bytes().decode("utf-8", "replace")) for path in CORPORA[corpus]]
    for window in WINDOWS:
        want = detect_clones_normalized(sorted(files, key=lambda nf: nf.path), window)
        assert clones.detect_clones(files, window) == want, window
        assert want or window > 1  # every corpus repeats some line

from __future__ import annotations

import random

from slopscope.clones import DEFAULT_MIN_WINDOW, NormalizedFile, detect_clones, normalize_file

from conftest import SLOP, covered_lines, handler_source, normalized

VERBATIM_BLOCK = """\
def transform(rows):
    out = []
    for row in rows:
        key = row[0].strip().lower()
        value = int(row[1]) * 100
        flags = [f for f in row[2:] if f]
        out.append((key, value, flags))
    return out
"""

RENAMED_BLOCK = """\
def convert(items):
    result = []
    for item in items:
        name = item[0].strip().lower()
        amount = int(item[1]) * 100
        marks = [m for m in item[2:] if m]
        result.append((name, amount, marks))
    return result
"""


def brute_force_clone_lines(
    texts: dict[str, str], min_window: int = DEFAULT_MIN_WINDOW
) -> set[tuple[str, int]]:
    """All-pairs oracle: a physical line is a clone line when it sits inside
    some window of normalized lines that appears at two distinct positions."""
    normalized = {path: normalize_file(path, texts[path]) for path in texts}
    windows: dict[tuple[str, ...], list[tuple[str, int]]] = {}
    for path, nf in normalized.items():
        for start in range(len(nf.lines) - min_window + 1):
            key = nf.lines[start : start + min_window]
            windows.setdefault(key, []).append((path, start))
    flagged: set[tuple[str, int]] = set()
    for positions in windows.values():
        if len(positions) < 2:
            continue
        for path, start in positions:
            nf = normalized[path]
            flagged.update((path, nf.physical[i]) for i in range(start, start + min_window))
    return flagged


def random_source(rng: random.Random, n_lines: int) -> str:
    stmts = [
        "x{i} = compute({a}, {b})",
        "y{i} = x{i} + {a}",
        "items{i} = [v * {b} for v in data]",
        "total{i} = sum(items{i})",
        "print(total{i})",
    ]
    lines = [
        rng.choice(stmts).format(i=i, a=rng.randint(0, 9), b=rng.randint(0, 9))
        for i in range(n_lines)
    ]
    return "\n".join(lines) + "\n"


class TestDetection:
    def test_verbatim_duplicate_across_files(self):
        regions = detect_clones(normalized({"a.py": VERBATIM_BLOCK, "b.py": VERBATIM_BLOCK}))
        assert {r.file for r in regions} == {"a.py", "b.py"}
        assert len({r.clone_class_id for r in regions}) == 1

    def test_renamed_duplicate_is_type2_clone(self):
        regions = detect_clones(normalized({"a.py": VERBATIM_BLOCK, "b.py": RENAMED_BLOCK}))
        assert {r.file for r in regions} == {"a.py", "b.py"}
        spans = {r.file: (r.start_line, r.end_line) for r in regions}
        assert spans["a.py"] == (1, 8)
        assert spans["b.py"] == (1, 8)

    def test_below_window_not_flagged(self):
        short = "a = 1\nb = 2\nc = 3\n"
        assert detect_clones(normalized({"a.py": short, "b.py": short})) == []

    def test_distinct_files_not_flagged(self):
        other = "def solo():\n    return {'k': 1, 'j': 2}\n"
        assert detect_clones(normalized({"a.py": VERBATIM_BLOCK, "b.py": other})) == []

    def test_intra_file_duplicate_handlers(self):
        regions = detect_clones(normalized({"slop.py": SLOP}))
        covered = covered_lines(regions)
        # Both handler bodies are renamed copies of each other; every
        # normalized line of the file belongs to the clone.
        nf = normalize_file("slop.py", SLOP)
        assert covered == {("slop.py", n) for n in nf.physical}

    def test_window_threshold_is_respected(self):
        texts = {"a.py": VERBATIM_BLOCK, "b.py": RENAMED_BLOCK}
        assert detect_clones(normalized(texts), min_window=8) and not detect_clones(normalized(texts), min_window=9)

    def test_windows_that_touch_merge_and_a_gap_splits(self):
        # Window 2: a.py's matched windows start at 0 and 2 and touch, so
        # they make one region; b.py's start at 0 and 3, one line apart.
        a = NormalizedFile("a.py", ("A", "B", "C", "D"), (1, 2, 3, 4))
        b = NormalizedFile("b.py", ("A", "B", "Q", "C", "D"), (1, 2, 3, 4, 5))
        spans = [(r.clone_class_id, r.file, r.lines) for r in detect_clones([b, a], min_window=2)]
        assert spans == [(0, "a.py", (1, 2, 3, 4)), (0, "b.py", (1, 2)), (0, "b.py", (4, 5))]

    def test_comments_and_blanks_ignored(self):
        spaced = VERBATIM_BLOCK.replace("    out = []\n", "    # gather\n\n    out = []\n")
        regions = detect_clones(normalized({"a.py": VERBATIM_BLOCK, "b.py": spaced}))
        assert {r.file for r in regions} == {"a.py", "b.py"}


class TestOracle:
    def test_handlers_match_brute_force(self):
        texts = {
            "one.py": handler_source("process_rows", "acc"),
            "two.py": handler_source("reduce_batch", "val"),
        }
        regions = detect_clones(normalized(texts))
        assert covered_lines(regions) == brute_force_clone_lines(texts)

    def test_random_files_match_brute_force(self):
        rng = random.Random(20)
        for trial in range(40):
            texts = {}
            for fi in range(rng.randint(1, 4)):
                body = random_source(rng, rng.randint(0, 60))
                if rng.random() < 0.5 and texts:
                    donor = rng.choice(sorted(texts))
                    donor_lines = texts[donor].splitlines()
                    if len(donor_lines) >= DEFAULT_MIN_WINDOW:
                        cut = rng.randrange(len(donor_lines) - DEFAULT_MIN_WINDOW + 1)
                        chunk = donor_lines[cut : cut + DEFAULT_MIN_WINDOW + 3]
                        body = body + "\n".join(chunk) + "\n"
                texts[f"f{fi}.py"] = body
            got = covered_lines(detect_clones(normalized(texts)))
            want = brute_force_clone_lines(texts)
            assert got == want, f"trial {trial}: {got ^ want}"


class TestNormalization:
    def test_identifiers_numbers_strings_collapse(self):
        left = normalize_file("a.py", "total = price * 3 + len('x')\n")
        right = normalize_file("b.py", "amount = cost * 99 + len(\"hello\")\n")
        assert left.lines == right.lines

    def test_keywords_and_operators_preserved(self):
        a = normalize_file("a.py", "for v in vals:\n    pass\n")
        b = normalize_file("b.py", "for v in vals:\n    v += 1\n")
        assert a.lines[0] == b.lines[0]
        assert a.lines[1] != b.lines[1]

    def test_untokenizable_file_yields_empty(self):
        nf = normalize_file("a.py", "x = 'unterminated\n")
        assert nf.lines == () or all(isinstance(s, str) for s in nf.lines)


class TestInvariants:
    def test_symmetry_under_file_renaming(self):
        base = detect_clones(normalized({"a.py": VERBATIM_BLOCK, "b.py": RENAMED_BLOCK}))
        flipped = detect_clones(normalized({"b.py": VERBATIM_BLOCK, "a.py": RENAMED_BLOCK}))
        assert {(r.start_line, r.end_line) for r in base} == {(r.start_line, r.end_line) for r in flipped}

    def test_clone_lines_subset_of_normalized_lines(self):
        texts = {"a.py": SLOP, "b.py": VERBATIM_BLOCK, "c.py": VERBATIM_BLOCK}
        all_normalized = set()
        for path, text in texts.items():
            nf = normalize_file(path, text)
            all_normalized.update((path, n) for n in nf.physical)
        assert covered_lines(detect_clones(normalized(texts))) <= all_normalized

    def test_region_lines_match_span(self):
        for region in detect_clones(normalized({"a.py": VERBATIM_BLOCK, "b.py": VERBATIM_BLOCK})):
            assert region.lines[0] == region.start_line
            assert region.lines[-1] == region.end_line
            assert list(region.lines) == sorted(region.lines)

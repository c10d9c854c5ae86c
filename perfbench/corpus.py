"""Seeded, offline corpora for the benchmark workloads.

Every generator is a pure function of its seed (and, for ``stdlib_tree``,
of the local CPython stdlib), so the same seed always yields the same
bytes. Generated code is built from a small random grammar that avoids
every idiom of the starter rule set; rule idioms are then planted in known
counts, so the benchmark knows exactly which matches a correct scan must
report. Each planted idiom occupies its own lines.
"""

from __future__ import annotations

import ast
import hashlib
import keyword
import os
import random
import re
import statistics
import subprocess
import sysconfig
from dataclasses import dataclass, field
from datetime import datetime, timezone

SYLLABLES = (
    "ka", "lo", "mi", "ren", "tas", "vo", "zul", "pri", "dex", "nor", "quil", "bam",
    "sif", "tor", "gel", "hux", "jen", "wat", "fyr", "cob", "dru", "melk", "pav", "yos",
    "bri", "cal", "dun", "eth", "fal", "gor", "hap", "ish", "jor", "kel", "lum", "mox",
)
WORDS = (
    "buffer", "cursor", "ledger", "packet", "window", "record", "offset", "weight",
    "signal", "bucket", "sample", "anchor", "margin", "stride", "marker", "vector",
)
ARITH = ("+", "-", "*", "//", "%", "<<", ">>", "|", "&", "^")
COMPARE = ("<", ">", "<=", ">=")
ERRORS = ("KeyError", "ValueError", "IndexError", "LookupError", "TypeError")
METHODS = ("append", "extend", "update", "add", "discard", "insert", "push", "feed")


class Namer:
    """Seeded identifiers made of syllables, never repeated."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self) -> str:
        while True:
            name = "".join(self.rng.choice(SYLLABLES) for _ in range(self.rng.choice((2, 3, 3))))
            if name not in self.used:
                self.used.add(name)
                return name


@dataclass
class Unit:
    """A top-level block of generated code and the rule matches it plants."""

    text: str
    planted: dict[str, int] = field(default_factory=dict)
    flagged_lines: int = 0  # distinct source lines the planted matches cover


class CodeGen:
    """Random Python that matches no starter rule and rarely repeats itself
    at the normalised-token level, so clone lines come only from planted
    families (or from chance, which the clone oracle accounts for)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.name = Namer(rng)

    def atom(self, names: list[str]) -> str:
        rng = self.rng
        pick = rng.randrange(7)
        name = rng.choice(names)
        if pick == 0:
            return str(rng.randrange(1, 999))
        if pick == 1:
            return f"{name}.{self.name()}"
        if pick == 2:
            return f"{name}[{rng.randrange(8)}]"
        if pick == 3:
            return f"{self.name()}({name})"
        if pick == 4:
            return f"{self.name()}({name}, {rng.randrange(1, 99)})"
        return name

    def expr(self, names: list[str], terms: int | None = None) -> str:
        terms = terms or self.rng.randint(1, 3)
        out = self.atom(names)
        for _ in range(terms - 1):
            out += f" {self.rng.choice(ARITH)} {self.atom(names)}"
        return out

    def condition(self, names: list[str]) -> str:
        return f"{self.expr(names, 1)} {self.rng.choice(COMPARE)} {self.expr(names, self.rng.randint(1, 2))}"

    def simple(self, names: list[str], pad: str) -> list[str]:
        rng = self.rng
        pick = rng.randrange(5)
        if pick == 0:
            target = self.name()
            line = f"{pad}{target} = {self.expr(names)}"
            names.append(target)
            return [line]
        if pick == 1:
            return [f"{pad}{rng.choice(names)} {rng.choice(ARITH)}= {self.expr(names)}"]
        if pick == 2:
            return [f"{pad}{rng.choice(names)}.{rng.choice(METHODS)}({self.expr(names)})"]
        if pick == 3:
            return [f"{pad}# {' '.join(rng.sample(WORDS, 3))}"]
        target = self.name()
        items = ", ".join(self.atom(names) for _ in range(rng.randint(2, 3)))
        names.append(target)
        return [f"{pad}{target} = ({items})"]

    def statement(self, names: list[str], pad: str, depth: int) -> list[str]:
        rng = self.rng
        pick = rng.randrange(9) if depth < 2 else 0
        inner = pad + "    "
        if pick <= 4:
            return self.simple(names, pad)
        if pick == 5:
            lines = [f"{pad}if {self.condition(names)}:"]
            lines += self.block(names, inner, depth + 1)
            if rng.random() < 0.5:
                lines += [f"{pad}else:"] + self.block(names, inner, depth + 1)
            return lines
        if pick == 6:
            var = self.name()
            source = rng.choice(names) if rng.random() < 0.5 else f"range({self.expr(names, 1)})"
            names.append(var)
            return [f"{pad}for {var} in {source}:"] + self.block(names, inner, depth + 1, at_least=2)
        if pick == 7:
            counter = rng.choice(names)
            return [
                f"{pad}while {counter} < {self.expr(names, 2)}:",
                f"{inner}{counter} += {rng.randrange(1, 9)}",
            ] + self.block(names, inner, depth + 1)
        return (
            [f"{pad}try:"]
            + self.block(names, inner, depth + 1, at_least=2)
            + [f"{pad}except {rng.choice(ERRORS)} as {self.name()}:"]
            + self.block(names, inner, depth + 1)
        )

    def block(self, names: list[str], pad: str, depth: int, at_least: int = 1) -> list[str]:
        lines: list[str] = []
        for _ in range(self.rng.randint(at_least, 2)):
            lines += self.statement(names, pad, depth)
        if all(line.lstrip().startswith("#") for line in lines):
            lines.append(f"{pad}{self.name()} = {self.expr(names)}")
        return lines

    def function(self, pad: str = "", size: int = 6, params: list[str] | None = None,
                 extra: list[str] | None = None, tail: list[str] | None = None) -> list[str]:
        """A function with about ``size`` body lines that never matches a
        starter rule unless ``extra`` or ``tail`` plant one. It always ends
        in a compound ``return``."""
        params = params if params is not None else [self.name() for _ in range(self.rng.randint(1, 3))]
        names = list(params)
        inner = pad + "    "
        lines = [f"{pad}def {self.name()}({', '.join(params)}):"]
        if self.rng.random() < 0.3:
            lines.append(f'{inner}"""{self.rng.choice(WORDS).capitalize()} of the {self.rng.choice(WORDS)}."""')
        body: list[str] = []
        while len(body) < size:  # only simple statements near the end, to keep the size
            body += self.statement(names, inner, 0 if size - len(body) > 8 else 2)
        lines += body
        lines += [inner + line if line else line for line in (extra or [])]
        if tail is not None:
            lines += [inner + line for line in tail]
        else:
            lines.append(f"{inner}return {self.expr(names, 2)}, {self.atom(names)}")
        return lines

    def branchy(self) -> list[str]:
        """A function with cyclomatic complexity well above 10."""
        params = [self.name() for _ in range(3)]
        names = list(params)
        lines = [f"def {self.name()}({', '.join(params)}):"]
        for _ in range(4):
            a, b, c = (self.atom(names) for _ in range(3))
            lines.append(f"    if {a} < {self.rng.randrange(9)} and {b} > {c} or {self.atom(names)}:")
            lines.append(f"        {self.name()} = {self.expr(names)}")
        lines.append(f"    return {self.expr(names, 2)}, {self.atom(names)}")
        return lines

    def klass(self) -> list[str]:
        lines = [f"class {self.name().capitalize()}:"]
        for _ in range(self.rng.randint(1, 2)):
            lines.append("")
            lines += self.function(pad="    ", size=4, params=["self", self.name()])
        return lines

    # -- planted idioms -------------------------------------------------

    def plant(self, rule_id: str) -> Unit:
        """One function carrying exactly one match of ``rule_id``."""
        n = self.name
        p = [n(), n()]
        a, b = p
        v, w, attr = n(), n(), n()
        idx = self.rng.randrange(9)
        one_line = {
            "identity-comprehension": f"{v} = [{w} for {w} in {a}]",
            "identity-generator-list": f"{v} = list({w} for {w} in {b})",
            "self-equality": f"{v} = {a}.{attr} == {a}.{attr}",
            "self-inequality": f"{v} = {b}[{idx}] != {b}[{idx}]",
            "compare-true": f"{v} = {a} == True",
            "compare-false": f"{v} = {b} == False",
            "compare-none-eq": f"{v} = {a} == None",
            "compare-empty-list": f"{v} = {b} == []",
            "double-negation": f"{v} = not not {a}",
            "len-eq-zero": f"{v} = len({a}) == 0",
            "len-gt-zero": f"{v} = len({b}) > 0",
            "ternary-bool": f"{v} = True if {a} else False",
            "dict-get-none": f"{v} = {a}.get({b}, None)",
        }
        cond = f"{a} > {self.rng.randrange(1, 99)}"
        multi: dict[str, tuple[list[str], int, list[str] | None]] = {
            # rule id -> (lines inside the body, flagged lines, tail or None)
            "if-return-bool": ([], 4, [f"if {cond}:", "    return True", "else:", "    return False"]),
            "if-return-bool-fallthrough": ([], 3, [f"if {cond}:", "    return True", "return False"]),
            "single-use-return": ([], 2, [f"{v} = {self.expr(p, 2)}", f"return {v}"]),
            "elif-ladder": (
                [
                    f"if {a} < {self.rng.randrange(1, 9)}:",
                    f"    {v} = {self.expr(p, 1)}",
                    f"elif {b} > {self.rng.randrange(1, 9)}:",
                    f"    {v} = {self.expr(p, 2)}",
                    f"elif {a} <= {b}:",
                    f"    {v} = {self.expr(p, 3)}",
                    "else:",
                    f"    {v} = {self.rng.randrange(1, 99)}",
                ],
                8,
                None,
            ),
            "except-pass": (
                ["try:", f"    {a}.{self.rng.choice(METHODS)}({b})", f"except {self.rng.choice(ERRORS)}:", "    pass"],
                4,
                None,
            ),
            "empty-check-continue": (
                [f"for {w} in {a}:", f"    if not {w}:", "        continue", f"    {b}.append({w})"],
                2,
                None,
            ),
            "range-len-loop": ([f"for {w} in range(len({a})):", f"    {b}.append({w})"], 2, None),
            "keys-iteration": ([f"for {w} in {a}.keys():", f"    {b}.append({w})"], 2, None),
            "broad-except": (
                ["try:", f"    {b} = {self.expr(p, 2)}", f"    {a}.append({b})",
                 f"except Exception as {w}:", f"    {b} = {self.expr(p, 1)}"],
                1,
                None,
            ),
            "bare-except": (
                ["try:", f"    {b} = {self.expr(p, 2)}", f"    {a}.append({b})",
                 "except:", f"    {b} = {self.expr(p, 1)}"],
                1,
                None,
            ),
            "deep-nesting": (
                [
                    f"if {a} > {self.rng.randrange(9)}:",
                    f"    for {w} in {b}:",
                    f"        if {w} < {self.rng.randrange(9)}:",
                    f"            while {a} < {w} * {self.rng.randrange(2, 9)}:",
                    f"                {a} += {self.rng.randrange(1, 9)}",
                    f"                if {a} > {self.rng.randrange(9)}:",
                    f"                    {b}.append({w} + {a})",
                ],
                1,
                None,
            ),
        }
        if rule_id in ("trivial-wrapper", "trivial-wrapper-noargs"):
            arg = a if rule_id == "trivial-wrapper" else ""
            text = f"def {n()}({arg}):\n    return {n()}({arg})\n"
            return Unit(text, {rule_id: 1}, 2)
        if rule_id in multi:
            extra, flagged, tail = multi[rule_id]
        else:
            extra, flagged, tail = [one_line[rule_id]], 1, None
        lines = self.function(params=p, size=max(1, 7 - len(extra) - len(tail or ())), extra=extra, tail=tail)
        return Unit("\n".join(lines) + "\n", {rule_id: 1}, flagged)


PLANTABLE = (
    "identity-comprehension", "identity-generator-list", "self-equality", "self-inequality",
    "compare-true", "compare-false", "compare-none-eq", "compare-empty-list", "double-negation",
    "len-eq-zero", "len-gt-zero", "ternary-bool", "dict-get-none", "if-return-bool",
    "if-return-bool-fallthrough", "elif-ladder", "single-use-return", "except-pass",
    "empty-check-continue", "trivial-wrapper", "trivial-wrapper-noargs", "range-len-loop",
    "keys-iteration", "broad-except", "bare-except", "deep-nesting",
)


def rename(text: str, rng: random.Random, namer: Namer) -> str:
    """A type-2 copy of generated code: every identifier except keywords,
    ``range`` and ``self`` gets a fresh name, and every integer a new value."""
    mapping: dict[str, str] = {}

    def name(m: re.Match) -> str:
        word = m.group(0)
        if keyword.iskeyword(word) or word in ("range", "self"):
            return word
        if word not in mapping:
            mapping[word] = namer()
        return mapping[word]

    text = re.sub(r"\b\d+\b", lambda m: str(rng.randrange(1, 999)), text)
    return re.sub(r"\b[A-Za-z_]\w*\b", name, text)


# -- workload corpora ----------------------------------------------------------


@dataclass
class Tree:
    """A generated source tree: relative path -> text, plus what was planted."""

    files: dict[str, str]
    planted: dict[str, int]
    flagged_lines: int
    families: list[list[tuple[str, str]]] = field(default_factory=list)  # (path, block text)

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.files):
            data = self.files[path].encode("utf-8")
            h.update(f"{path}\0{len(data)}\0".encode())
            h.update(data)
        return h.hexdigest()

    def write(self, root: str) -> None:
        for path, text in self.files.items():
            full = os.path.join(root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)


def _loc(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip() and not line.strip().startswith("#"))


def _assemble(units: list[Unit]) -> tuple[str, dict[str, int], int]:
    planted: dict[str, int] = {}
    flagged = 0
    for u in units:
        for rule, count in u.planted.items():
            planted[rule] = planted.get(rule, 0) + count
        flagged += u.flagged_lines
    return "\n\n".join(u.text.rstrip("\n") for u in units) + "\n", planted, flagged


def bind_cost(files: dict[str, str], cache: dict[str, float] | None = None) -> float:
    """Binds times file characters, summed over files: each bind the starter
    patterns attempt copies text from its whole file (see ``bind_weight``)."""
    cache = {} if cache is None else cache
    for text in files.values():
        if text not in cache:
            cache[text] = float(bind_weight(ast.parse(text)) * len(text))
    return sum(cache[text] for text in files.values())


def _typical(make, kind: str, seed: int, cost, target_cost=None, n: int = 8):
    """Of ``n`` candidates made for ``seed``, the one whose costs (a tuple)
    lie closest to the median costs of ``n`` fixed reference candidates,
    measured with ``target_cost`` if given: the seed then changes the code
    but hardly the amount of work a run measures."""
    references = [(target_cost or cost)(make(f"{kind}/target/{k}")) for k in range(n)]
    targets = [statistics.median(column) for column in zip(*references)]
    return min((make(f"{kind}/{seed}/{k}") for k in range(n)),
               key=lambda c: sum(abs(x / t - 1) for x, t in zip(cost(c), targets)))


def wide_tree(seed: int, n_files: int = 80, n_families: int = 4, loc: int = 900) -> Tree:
    """Many tiny files (about 6-20 lines each) in nested packages, with one
    match of every starter rule and clone families of 2-3 renamed copies
    each.

    Of 8 candidate trees, the one with the most typical bind cost is used
    (see ``_typical``).
    """
    def make(key: str) -> Tree:
        return _wide_candidate(random.Random(key), n_files, n_families, loc)

    return _typical(make, "wide", seed, lambda tree: (bind_cost(tree.files),))


def _wide_candidate(rng: random.Random, n_files: int, n_families: int, loc: int) -> Tree:
    gen = CodeGen(rng)
    paths = []
    for i in range(n_files):
        depth = rng.randint(0, 2)
        parts = [f"pkg{rng.randrange(6)}"] + [f"sub{rng.randrange(4)}" for _ in range(depth)]
        paths.append("/".join(parts + [f"m{i:03d}_{gen.name()}.py"]))
    units: dict[str, list[Unit]] = {p: [] for p in paths}
    # Family copies and planted idioms go to distinct files while there are
    # enough files, so that no file grows much larger than the others.
    slots = rng.sample(paths, len(paths)) * (1 + (3 * n_families + len(PLANTABLE)) // n_files)
    families = []
    for _ in range(n_families):
        block = "\n".join(gen.function(size=10)) + "\n"
        copies = []
        for _ in range(rng.randint(2, 3)):
            path, text = slots.pop(), rename(block, rng, gen.name)
            units[path].append(Unit(text))
            copies.append((path, text))
        families.append(copies)
    for rule in PLANTABLE:
        units[slots.pop()].append(gen.plant(rule))
    # Background fills the tree up to a fixed number of source lines, so
    # that every seed costs about the same: first one unit per file, then
    # units in the smallest file until ``loc`` is reached. Even file sizes
    # keep the per-file quadratic part of rule matching even too.
    def background() -> Unit:
        roll = rng.random()
        made = gen.branchy() if roll < 0.1 else gen.klass() if roll < 0.3 else gen.function(size=4)
        return Unit("\n".join(made) + "\n")

    for path in paths:
        units[path].append(background())
    size = {path: sum(_loc(u.text) for u in units[path]) for path in paths}
    while sum(size.values()) < loc:
        unit = background()
        smallest = min(paths, key=size.__getitem__)
        units[smallest].append(unit)
        size[smallest] += _loc(unit.text)
    for path in paths:
        rng.shuffle(units[path])
    files, planted, flagged = {}, {}, 0
    for path in paths:
        header = Unit(f'"""{" ".join(rng.sample(WORDS, 4)).capitalize()}."""\n')
        text, p, f = _assemble([header] + units[path])
        files[path] = text
        flagged += f
        for rule, count in p.items():
            planted[rule] = planted.get(rule, 0) + count
    return Tree(files, planted, flagged, families)


STDLIB_BAND = (150, 600)  # physical lines of a top-level stdlib module


def bind_weight(tree: ast.AST) -> int:
    """How many metavariable binds the starter patterns attempt on ``tree``:
    each bind copies source text, so this counts the per-file quadratic part
    of pattern matching (every Compare is tried by six comparison rules,
    every If by three statement rules, and so on)."""
    weight = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            weight += 6
        elif isinstance(node, ast.If):
            weight += 3
        elif isinstance(node, (ast.For, ast.Assign)):
            weight += 2
        elif isinstance(node, (ast.ListComp, ast.IfExp, ast.Try)):
            weight += 1
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            weight += 1
    return weight


def _stdlib_units(stdlib: str) -> list[tuple[str, str, int]]:
    """(module, source text, bind weight) of every top-level function or
    class of 8-80 lines in the band's modules, in a fixed order."""
    units = []
    for name in sorted(os.listdir(stdlib)):
        path = os.path.join(stdlib, name)
        if not name.endswith(".py") or not os.path.isfile(path) or os.path.islink(path):
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            tree = ast.parse(text)
        except (OSError, UnicodeDecodeError, SyntaxError, ValueError):
            continue
        lines = text.splitlines()
        if not STDLIB_BAND[0] <= len(lines) <= STDLIB_BAND[1]:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if 8 <= node.end_lineno - start + 1 <= 80:
                units.append((name, "\n".join(lines[start - 1 : node.end_lineno]) + "\n", bind_weight(node)))
    return units


def _pack(drawn: list[tuple[str, str, int]], n_files: int) -> tuple[list[list], float]:
    """Deal units, longest first, to the file with the fewest characters.
    Returns the files and their bind cost: binds times file characters,
    summed over files, since each bind copies text from the whole file."""
    bins: list[list] = [[0, i, 0, []] for i in range(n_files)]  # [chars, index, binds, units]
    for unit in sorted(drawn, key=lambda u: (-len(u[1]), u[1])):
        target = min(bins)
        target[0] += len(unit[1])
        target[2] += unit[2]
        target[3].append(unit)
    return bins, float(sum(chars * binds for chars, _, binds, _ in bins))


def stdlib_tree(seed: int, n_files: int = 3, units_per_file: int = 5) -> Tree:
    """Real code: top-level functions and classes drawn from the band's stdlib
    modules and packed verbatim into ``n_files`` mid-sized files.

    Whole modules in the band differ in rule-matching cost by a factor of
    more than 50, so a plain draw would make a run's cost depend mostly on
    the seed. Instead the seed makes 64 candidate draws, and the one whose
    source line count and bind cost (see ``_pack``) lie closest to fixed
    targets is used: the units differ from seed to seed, the amount of work
    hardly.
    """
    pool = _stdlib_units(sysconfig.get_paths()["stdlib"])
    n_units = n_files * units_per_file

    def candidates(rng: random.Random):
        for _ in range(64):
            drawn = rng.sample(pool, n_units)
            bins, cost = _pack(drawn, n_files)
            yield cost, sum(_loc(u[1]) for u in drawn), bins

    reference = sorted(candidates(random.Random("stdlib/target")), key=lambda c: c[:2])
    cost_t, lines_t = statistics.median(c[0] for c in reference), statistics.median(c[1] for c in reference)
    _, _, bins = min(
        candidates(random.Random(f"stdlib/{seed}")),
        key=lambda c: abs(c[0] / cost_t - 1) + abs(c[1] / lines_t - 1),
    )
    files = {
        f"stdlib_{i}.py": "\n\n".join(f"# from {module}\n{text}" for module, text, _ in units)
        for _, i, _, units in bins
    }
    return Tree(files, {}, 0)


# -- history repository ------------------------------------------------------------

ERA_START = datetime(2023, 1, 1, tzinfo=timezone.utc)
ERA_END = datetime(2025, 12, 31, tzinfo=timezone.utc)


@dataclass
class Commit:
    when: int  # epoch seconds, author = committer date
    files: dict[str, str]  # full tree after the commit
    planted: dict[str, int]
    flagged_lines: int
    sha: str = ""


def sampled_indices(seed, n_commits: int, max_commits: int) -> list[int]:
    """Which commits, oldest first, ``slopscope history --max-commits
    <max_commits> --seed <seed>`` measures when every commit changes source
    files: a uniform draw without replacement by ``random.Random(seed)``."""
    if n_commits <= max_commits:
        return list(range(n_commits))
    return sorted(random.Random(seed).sample(range(n_commits), max_commits))


def history_commits(seed: int, n_commits: int = 36, start_files: int = 8, max_commits: int = 12) -> list[Commit]:
    """A linear history. The first commit adds ``start_files`` files of two
    functions each, the middle commit adds one more file, and every
    other commit replaces one function in one or two files, a quarter of
    the time with a planted idiom.

    Of 16 candidate histories, the one whose ``max_commits`` commits that
    ``history --seed <seed>`` samples lie closest to fixed targets of bind
    cost and source lines is used (see ``_typical``): the seed changes which
    commits are measured but hardly the work they hold."""
    cache: dict[str, float] = {}

    def work(picks: list[int]):
        return lambda commits: (
            sum(bind_cost(commits[i].files, cache) for i in picks),
            sum(_loc(text) for i in picks for text in commits[i].files.values()),
        )

    return _typical(
        lambda key: _history_candidate(random.Random(key), n_commits, start_files),
        "history", seed, work(sampled_indices(seed, n_commits, max_commits)),
        work(sampled_indices("target", n_commits, max_commits)), n=16,
    )


def _history_candidate(rng: random.Random, n_commits: int, start_files: int) -> list[Commit]:
    gen = CodeGen(rng)
    tree: dict[str, list[Unit]] = {}

    def new_unit() -> Unit:
        roll = rng.random()
        if roll < 0.25:
            return gen.plant(rng.choice(PLANTABLE))
        lines = gen.branchy() if roll < 0.35 else gen.function(size=7)
        return Unit("\n".join(lines) + "\n")

    def new_file() -> None:
        tree[f"{rng.choice(('core', 'io', 'util'))}/{gen.name()}.py"] = [new_unit(), new_unit()]

    for _ in range(start_files):
        new_file()
    span = (ERA_END - ERA_START).total_seconds()
    commits = []
    for i in range(n_commits):
        if i == n_commits // 2:
            new_file()
        elif i:
            for path in rng.sample(sorted(tree), rng.randint(1, 2)):
                tree[path][rng.randrange(2)] = new_unit()
        files, planted, flagged = {}, {}, 0
        for path in sorted(tree):
            text, p, f = _assemble(tree[path])
            files[path] = text
            flagged += f
            for rule, count in p.items():
                planted[rule] = planted.get(rule, 0) + count
        when = int(ERA_START.timestamp() + span * (i + rng.random() * 0.5) / n_commits)
        commits.append(Commit(when, files, planted, flagged))
    return commits


def git_env() -> dict[str, str]:
    """The environment with git reading no user or system configuration."""
    env = dict(os.environ)
    env.update(
        GIT_CONFIG_NOSYSTEM="1",
        GIT_CONFIG_GLOBAL=os.devnull,
        GIT_AUTHOR_NAME="bench",
        GIT_AUTHOR_EMAIL="bench@example.invalid",
        GIT_COMMITTER_NAME="bench",
        GIT_COMMITTER_EMAIL="bench@example.invalid",
    )
    return env


def build_repo(commits: list[Commit], repo: str) -> str:
    """Write ``commits`` into a new git repository with one ``git
    fast-import``; fills in each commit's SHA and returns the HEAD SHA."""
    env = git_env()
    subprocess.run(["git", "init", "-q", "--template=", "-b", "main", repo], check=True, env=env)
    stream = []
    previous: dict[str, str] = {}
    for mark, c in enumerate(commits, start=1):
        stream.append(f"commit refs/heads/main\nmark :{mark}\n")
        ident = f"bench <bench@example.invalid> {c.when} +0000"
        msg = f"change {mark}\n".encode()
        stream.append(f"author {ident}\ncommitter {ident}\ndata {len(msg)}\n")
        stream.append(msg.decode())
        for path in sorted(set(previous) - set(c.files)):
            stream.append(f"D {path}\n")
        for path, text in sorted(c.files.items()):
            if previous.get(path) != text:
                data = text.encode("utf-8")
                stream.append(f"M 100644 inline {path}\ndata {len(data)}\n")
                stream.append(text)
                stream.append("\n")
        previous = c.files
    payload = "".join(stream).encode("utf-8")
    subprocess.run(["git", "-C", repo, "fast-import", "--quiet"], input=payload, check=True, env=env)
    log = subprocess.run(
        ["git", "-C", repo, "log", "--reverse", "--format=%H", "main"],
        check=True, capture_output=True, text=True, env=env,
    ).stdout.split()
    for c, sha in zip(commits, log):
        c.sha = sha
    return log[-1]

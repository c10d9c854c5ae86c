"""Indexed pattern matching against the per-variant walk it replaced.

``find_matches_by_walk`` below is ``patterns.find_matches`` as it was before
files were indexed: every variant walks the whole tree again and tries every
expression node or every statement window, with the recursive ``_Matcher``
that read each metavariable's text as soon as it met it. The indexed path,
which checks a candidate's structure through match plans before it reads
any text, must return the same matches, captures included, in the same
order, on the bundled fixtures, on this package and its tests, on a fixed
sample of the local standard library, and for patterns whose root is a
metavariable or whose optional metavariables give variants of different
root types.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import slopscope.rules
from slopscope.adapters import SourceText
from slopscope.patterns import (
    _IGNORED_FIELDS,
    _PLACEHOLDER_PREFIX,
    CompiledPattern,
    TreeIndex,
    _placeholder_name,
    _position,
    _stmt_placeholder_name,
    compile_pattern,
    find_matches,
)
from slopscope.rules import load_starter_rules, match_rules

from conftest import CORPORA


def _statement_lists(tree: ast.AST):
    for node in ast.walk(tree):
        for fname in node._fields:
            value = getattr(node, fname, None)
            if isinstance(value, list) and value and all(isinstance(v, ast.stmt) for v in value):
                yield value


class _Matcher:
    """The recursive matcher ``find_matches`` used before match plans: it
    reads each metavariable's text as soon as it meets it."""

    def __init__(self, source: SourceText) -> None:
        self.node_text = source.segment
        self.bindings: dict[str, str] = {}

    def bind(self, name: str, text: str | None) -> bool:
        if text is None:
            return False
        if name in self.bindings:
            return self.bindings[name] == text
        self.bindings[name] = text
        return True

    def match_node(self, pat: ast.AST, src: ast.AST, stmt_position: bool = False) -> bool:
        name = _placeholder_name(pat)
        if name is not None:
            if not isinstance(src, ast.expr):
                return False
            return self.bind(name, self.node_text(src))
        if stmt_position:
            stmt_name = _stmt_placeholder_name(pat)
            if stmt_name is not None and isinstance(src, ast.stmt):
                return self.bind(stmt_name, self.node_text(src))
        if type(pat) is not type(src):
            return False
        for fname in pat._fields:
            if fname in _IGNORED_FIELDS:
                continue
            if not self.match_value(getattr(pat, fname, None), getattr(src, fname, None)):
                return False
        return True

    def match_value(self, pv: object, sv: object) -> bool:
        if isinstance(pv, ast.AST):
            return isinstance(sv, ast.AST) and self.match_node(pv, sv, stmt_position=isinstance(pv, ast.stmt))
        if isinstance(pv, list):
            if not isinstance(sv, list) or len(pv) != len(sv):
                return False
            return all(self.match_value(p, s) for p, s in zip(pv, sv))
        if isinstance(pv, str) and pv.startswith(_PLACEHOLDER_PREFIX):
            return isinstance(sv, str) and self.bind(pv[len(_PLACEHOLDER_PREFIX) :], sv)
        return type(pv) is type(sv) and pv == sv


def find_matches_by_walk(compiled: CompiledPattern, tree: ast.AST, source: SourceText) -> list[tuple]:
    """All matches of a compiled pattern in one parsed file, as
    (start, end, captures)."""
    matches: dict[tuple[tuple[int, int], tuple[int, int]], dict[str, str]] = {}
    for variant in compiled.variants:
        if variant.kind == "expr":
            pat = variant.nodes[0]
            for node in ast.walk(tree):
                if not isinstance(node, ast.expr):
                    continue
                m = _Matcher(source)
                if m.match_node(pat, node):
                    matches.setdefault(_position(node), dict(m.bindings))
        else:
            width = len(variant.nodes)
            for stmts in _statement_lists(tree):
                for i in range(len(stmts) - width + 1):
                    window = stmts[i : i + width]
                    m = _Matcher(source)
                    if all(
                        m.match_node(p, s, stmt_position=True)
                        for p, s in zip(variant.nodes, window)
                    ):
                        start, _ = _position(window[0])
                        _, end = _position(window[-1])
                        matches.setdefault((start, end), dict(m.bindings))
    return [(start, end, captures) for (start, end), captures in sorted(matches.items())]


def match_rules_by_walk(monkeypatch, path, source, tree, rules):
    """``match_rules`` with the per-variant walk of ``tree`` in place of the index."""
    with monkeypatch.context() as patch:
        patch.setattr(slopscope.rules, "find_matches", find_matches_by_walk)
        return match_rules(path, source, tree, rules)


# Patterns whose root is a metavariable, and patterns whose optional
# metavariables give variants with different root types: "($A?, $B)" is a
# Tuple or, with $A left out, the bare metavariable $B; "$A?\nreturn $B" is a
# window led by a bare statement or a lone Return.
PATTERNS = (
    "$X",
    "$F($X)",
    "$S\nreturn $V",
    "$S\n$T",
    "($A?, $B)",
    "$A?\nreturn $B",
    "$F($A, $B?)",
    "$V = $E\nreturn $V",
    "f'{$X}'",
    "$X == $X",
    "if $C:\n    $S",
    "return",
)

# Same-span nesting: an expression statement and its value, and (before
# Python 3.12) an f-string and the constant pieces that share its span.
NESTED = "def f(x):\n    g(x)\n    return f'{x}a' + f'b{x!r:>4}'\n"


def _parsed(path: Path) -> tuple[SourceText, ast.AST]:
    text = path.read_text(encoding="utf-8")
    return SourceText.from_text(text), ast.parse(text)


def _texts(source: SourceText, found) -> set[str]:
    """The text each match spans; for an ASCII file, columns count characters."""
    def offset(line, col):
        return source.starts[line - 1] + col - 1

    return {source.text[offset(*start) : offset(*end)] for start, end, _ in found}


def test_stdlib_sample_is_large_enough():
    assert len(CORPORA["stdlib"]) >= 50


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_starter_rules_match_as_by_walk(corpus, monkeypatch):
    rules = load_starter_rules()
    total = 0
    for path in CORPORA[corpus]:
        source, tree = _parsed(path)
        found = match_rules(path.name, source, TreeIndex.from_tree(tree), rules)
        by_walk = match_rules_by_walk(monkeypatch, path.name, source, tree, rules)
        assert found == by_walk, path
        total += len(found)
    assert total > 0


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_hand_written_patterns_match_as_by_walk(corpus):
    compiled = {p: compile_pattern(p) for p in PATTERNS}
    hits = 0
    for path in CORPORA[corpus]:
        source, tree = _parsed(path)
        index = TreeIndex.from_tree(tree)
        for text, pattern in compiled.items():
            found = find_matches(pattern, index, source)
            assert found == find_matches_by_walk(pattern, tree, source), text
            hits += bool(found)
    assert hits > 0


def test_variants_of_different_root_types():
    roots = {p: {type(v.nodes[0]) for v in compile_pattern(p).variants} for p in ("($A?, $B)", "$A?\nreturn $B")}
    assert roots == {"($A?, $B)": {ast.Tuple, ast.Name}, "$A?\nreturn $B": {ast.Expr, ast.Return}}
    source = SourceText.from_text("def f(a, b):\n    a = (a, b)\n    return a\n")
    tree = ast.parse(source.text)
    for pattern, texts in (("($A?, $B)", {"(a, b)", "a"}), ("$A?\nreturn $B", {"a = (a, b)\n    return a", "return a"})):
        compiled = compile_pattern(pattern)
        found = find_matches(compiled, TreeIndex.from_tree(tree), source)
        assert texts <= _texts(source, found)  # both variants matched
        assert found == find_matches_by_walk(compiled, tree, source)


def test_nested_same_span_nodes_keep_the_first_match():
    source = SourceText.from_text(NESTED)
    tree = ast.parse(NESTED)
    spans = [_position(n) for n in ast.walk(tree) if isinstance(n, (ast.expr, ast.stmt))]
    assert len(spans) > len(set(spans))  # the case under test occurs
    index = TreeIndex.from_tree(tree)
    for text in PATTERNS:
        pattern = compile_pattern(text)
        found = find_matches(pattern, index, source)
        assert found == find_matches_by_walk(pattern, tree, source), text


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="f-string pieces carry their own spans from 3.12")
def test_stdlib_sample_has_nested_same_span_expressions():
    def has_same_span_child(tree):
        return any(
            isinstance(child, ast.expr) and _position(child) == _position(node)
            for node in ast.walk(tree) if isinstance(node, ast.expr)
            for child in ast.iter_child_nodes(node)
        )

    assert any(has_same_span_child(_parsed(path)[1]) for path in CORPORA["stdlib"])


def _walk_reference(tree: ast.AST):
    """Every expression node and every statement window, as ``ast.walk`` and
    ``_statement_lists`` give them."""
    exprs = [n for n in ast.walk(tree) if isinstance(n, ast.expr)]
    windows = [(stmts, i) for stmts in _statement_lists(tree) for i in range(len(stmts))]
    return exprs, windows


def _ids(windows):
    return [(id(stmts), i) for stmts, i in windows]


def test_index_keeps_walk_order():
    paths = [path for corpus in sorted(CORPORA) for path in CORPORA[corpus]]
    for tree in [ast.parse(NESTED), *(_parsed(path)[1] for path in paths)]:
        index = TreeIndex.from_tree(tree)
        exprs, windows = _walk_reference(tree)
        for kind, nodes in index.exprs_by_type.items():
            assert list(map(id, nodes)) == [id(n) for n in exprs if type(n) is kind]
        assert set(index.exprs_by_type) == {type(n) for n in exprs}
        for kind, entries in index.windows_by_type.items():
            assert _ids(entries) == _ids(w for w in windows if type(w[0][w[1]]) is kind)
        assert set(index.windows_by_type) == {type(stmts[i]) for stmts, i in windows}


def test_a_structural_mismatch_reads_no_text(monkeypatch):
    text = "".join(f"v{i} = d.get(k{i}, 1)\n" for i in range(200))
    source, tree = SourceText.from_text(text), ast.parse(text)
    index = TreeIndex.from_tree(tree)
    read = []  # every node whose text ``SourceText.segment`` reads
    segment = SourceText.segment
    monkeypatch.setattr(SourceText, "segment", lambda self, node: read.append(node) or segment(self, node))
    assert find_matches(compile_pattern("$D.get($K, None)"), index, source) == []
    assert read == []
    found = find_matches(compile_pattern("$D.get($K, 1)"), index, source)
    assert len(found) == 200 and found[7][2] == {"D": "d", "K": "k7"}
    assert len(read) == 400  # the binds of full matches only


def test_a_repeated_name_binds_one_text():
    source = SourceText.from_text("a == b\nc == c\n")
    index = TreeIndex.from_tree(ast.parse(source.text))
    found = find_matches(compile_pattern("$X == $X"), index, source)
    assert found == [((2, 1), (2, 7), {"X": "c"})]

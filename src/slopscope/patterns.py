"""Metavariable pattern matching over Python syntax trees.

A pattern is a code-like string in which ``$NAME`` tokens are
metavariables. A metavariable binds one code element at its position; if
the same name appears more than once, every occurrence must match the same
source text. ``$NAME?`` marks an optional metavariable (the pattern still
matches when the element is absent), and ``$$`` stands for a literal ``$``.

A pattern that parses as a single expression is matched against expression
nodes of the target tree, and a pattern that parses as one or more
statements against contiguous statement windows of that length. Each file's
tree is walked once into an ``adapters.TreeIndex``; candidates are then
looked up by the type of the pattern's root (an expression root, or the
first statement of a window), since no node of another type can match it.
A root that is a metavariable (``$X``, or a bare ``$S`` statement) matches
any node, so it falls back to every expression or every window.
"""

from __future__ import annotations

import ast
import itertools
import re
from typing import NamedTuple

from .adapters import SourceText, TreeIndex

_PLACEHOLDER_PREFIX = "_slopscope_mv_"
# A pattern's tokens: ``$$``, a metavariable (name, "?" if optional), or a
# run of literal text (a ``$`` that starts neither is literal too).
_MV_TOKEN = re.compile(r"\$\$|\$([A-Za-z_][A-Za-z0-9_]*)(\??)|[^$]+|\$")

# AST fields that never take part in structural comparison.
_IGNORED_FIELDS = {"ctx", "type_comment", "type_ignores"}


class PatternError(ValueError):
    """Raised when a pattern cannot be compiled."""


def _render(pattern: str, omit: frozenset[str]) -> str:
    """Render pattern text with placeholders, omitting the given optionals.

    When an optional metavariable is omitted, one adjacent comma (before it,
    else the first one after it, past nothing but whitespace and other
    metavariables) is removed with it so argument lists stay parseable.
    """
    out = ""
    eat_comma = False  # an omitted metavariable found no comma before it
    for m in _MV_TOKEN.finditer(pattern):
        name = m[1]
        if name is None:  # literal text; "$$" is a literal "$"
            text = "$" if m[0] == "$$" else m[0]
            if eat_comma:
                stripped = text.lstrip()
                if stripped.startswith(","):
                    text = stripped[1:]
                eat_comma = False
            out += text
        elif name not in omit:
            out += _PLACEHOLDER_PREFIX + name
        elif out.rstrip().endswith(","):
            out = out.rstrip()[:-1]
        else:
            eat_comma = True
    return out


class _Variant(NamedTuple):
    kind: str  # "expr" or "stmts"
    nodes: tuple[ast.AST, ...]


class CompiledPattern(NamedTuple):
    source: str
    variants: tuple[_Variant, ...]


def compile_pattern(pattern: str) -> CompiledPattern:
    """Compile a metavariable pattern, expanding optional-metavariable
    variants: the full form first, then each set of optionals left out."""
    optional = sorted({m[1] for m in _MV_TOKEN.finditer(pattern) if m[2]})
    variants: list[_Variant] = []
    errors: list[str] = []
    full_error = ""  # the full form must itself be valid code
    for r in range(len(optional) + 1):
        for omit in itertools.combinations(optional, r):
            text = _render(pattern, frozenset(omit))
            try:
                module = ast.parse(text)
            except SyntaxError as exc:
                errors.append(f"{text!r}: {exc.msg}")
                if not omit:
                    full_error = f"{pattern!r} does not parse: {exc.msg}"
                continue
            if not module.body:
                errors.append(f"{text!r}: empty pattern")
                continue
            if len(module.body) == 1 and isinstance(module.body[0], ast.Expr):
                variants.append(_Variant("expr", (module.body[0].value,)))
            else:
                variants.append(_Variant("stmts", tuple(module.body)))

    if not variants:
        raise PatternError("; ".join(errors))
    if full_error:
        raise PatternError(full_error)
    return CompiledPattern(pattern, tuple(variants))


def _placeholder_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name) and node.id.startswith(_PLACEHOLDER_PREFIX):
        return node.id[len(_PLACEHOLDER_PREFIX) :]
    return None


def _stmt_placeholder_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Expr):
        return _placeholder_name(node.value)
    return None


class _Matcher:
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


def _position(node: ast.AST) -> tuple[tuple[int, int], tuple[int, int]]:
    return (
        (node.lineno, node.col_offset + 1),
        (node.end_lineno or node.lineno, (node.end_col_offset or node.col_offset) + 1),
    )


def find_matches(
    compiled: CompiledPattern, index: TreeIndex, source: SourceText
) -> list[tuple[tuple[int, int], tuple[int, int], dict[str, str]]]:
    """All matches of a compiled pattern in one indexed file, in span order,
    as (start, end, captures): the first (line, col), 1-based, the position
    after the match, and the metavariable bindings. The first match found
    of each span is kept."""
    matches: dict[tuple[tuple[int, int], tuple[int, int]], dict[str, str]] = {}
    for variant in compiled.variants:
        root = variant.nodes[0]
        if variant.kind == "expr":
            if _placeholder_name(root) is None:
                candidates = index.exprs_by_type.get(type(root), [])
            else:
                candidates = index.exprs
            for node in candidates:
                m = _Matcher(source)
                if m.match_node(root, node):
                    matches.setdefault(_position(node), m.bindings)
        else:
            if _stmt_placeholder_name(root) is None:
                windows = index.windows_by_type.get(type(root), [])
            else:
                windows = index.windows
            width = len(variant.nodes)
            for stmts, i in windows:
                if i + width > len(stmts):
                    continue
                window = stmts[i : i + width]
                m = _Matcher(source)
                if all(
                    m.match_node(p, s, stmt_position=True)
                    for p, s in zip(variant.nodes, window)
                ):
                    matches.setdefault((_position(window[0])[0], _position(window[-1])[1]), m.bindings)
    return [(start, end, captures) for (start, end), captures in sorted(matches.items())]

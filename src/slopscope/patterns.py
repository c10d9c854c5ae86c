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
any node, so it reads every type's list; nodes that share a span share its
text, and no two windows start at one statement, so no match changes.

Each variant is compared through match plans, built from its pattern tree
when the pattern is compiled: one small tuple per pattern node. A candidate's
structure is checked first, collecting each metavariable's node; their
source text is read only once the whole candidate (every statement of a
window) matches, and a repeated name whose texts differ rejects it then.
Binds are a conjunction of equality checks, so reading them last changes
no match or capture.
"""

from __future__ import annotations

import _ast
import itertools
import re
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # annotations only: compiling a rule loads no file index
    from .adapters import SourceText, TreeIndex

_PLACEHOLDER_PREFIX = "_slopscope_mv_"
# A pattern's tokens: ``$$``, a metavariable (name, "?" if optional), or a
# run of literal text (a ``$`` that starts neither is literal too).
_MV_TOKEN = re.compile(r"\$\$|\$([A-Za-z_][A-Za-z0-9_]*)(\??)|[^$]+|\$")

# AST fields that never take part in structural comparison.
_IGNORED_FIELDS = {"ctx", "type_comment", "type_ignores"}


class PatternError(ValueError):
    """Raised when a pattern cannot be compiled."""


def parse(text: str) -> _ast.Module:
    """Parse source text; raises SyntaxError on failure. This is the call
    ``ast.parse(text)`` makes; ``dont_inherit`` keeps this module's
    ``__future__`` imports out of it, as ``ast.py`` has none."""
    return compile(text, "<unknown>", "exec", _ast.PyCF_ONLY_AST, dont_inherit=True)


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


class Variant(NamedTuple):
    """One form of a pattern: an ``expr`` node, or the ``stmts`` of a
    window, and the match plan of each node."""

    kind: str  # "expr" or "stmts"
    nodes: tuple[_ast.AST, ...]
    plans: tuple[tuple, ...]


def compile_pattern(pattern: str) -> tuple[Variant, ...]:
    """Compile a metavariable pattern into its variants, expanding optional
    metavariables: the full form first, then each set of optionals left out. A
    pattern nested too deeply to parse or to plan raises MemoryError or
    RecursionError."""
    optional = sorted({m[1] for m in _MV_TOKEN.finditer(pattern) if m[2]})
    variants: list[Variant] = []
    errors: list[str] = []
    full_error = ""  # the full form must itself be valid code
    for r in range(len(optional) + 1):
        for omit in itertools.combinations(optional, r):
            text = _render(pattern, frozenset(omit))
            try:
                module = parse(text)
            except SyntaxError as exc:
                errors.append(f"{text!r}: {exc.msg}")
                if not omit:
                    full_error = f"{pattern!r} does not parse: {exc.msg}"
                continue
            if not module.body:
                errors.append(f"{text!r}: empty pattern")
                continue
            if len(module.body) == 1 and isinstance(module.body[0], _ast.Expr):
                kind, nodes = "expr", (module.body[0].value,)
            else:
                kind, nodes = "stmts", tuple(module.body)
            variants.append(Variant(kind, nodes, tuple(map(_plan, nodes))))

    if not variants:
        raise PatternError("; ".join(errors))
    if full_error:
        raise PatternError(full_error)
    return tuple(variants)


def _placeholder_name(node: _ast.AST) -> str | None:
    if isinstance(node, _ast.Name) and node.id.startswith(_PLACEHOLDER_PREFIX):
        return node.id[len(_PLACEHOLDER_PREFIX) :]
    return None


def _stmt_placeholder_name(node: _ast.AST) -> str | None:
    if isinstance(node, _ast.Expr):
        return _placeholder_name(node.value)
    return None


# Match plan tags. A plan is a tuple led by its tag:
#   (_NODE, type, ((field, plan), ...))  a node of that type whose compared
#                                        fields match their plans
#   (_LIST, (plan, ...))                 a list of that length, item by item
#   (_BIND, class, name)                 a metavariable: any expression,
#                                        statement or identifier string
#                                        (``isinstance`` of the class),
#                                        bound to ``name``
#   (_VALUE, type, value)                an equal value of the same type
_NODE, _LIST, _BIND, _VALUE = range(4)

# The most node and list plans one plan may nest. ``_match`` recurses once
# a level, so no pattern that compiles can exhaust the stack when matched.
_MAX_PLAN_DEPTH = 100


def _plan(pat: object, depth: int = 1) -> tuple:
    """The match plan of one pattern value at ``depth`` (a root's is 1),
    built once per variant."""
    if depth > _MAX_PLAN_DEPTH:
        raise RecursionError(f"pattern nested more than {_MAX_PLAN_DEPTH} levels deep")
    if isinstance(pat, _ast.AST):
        name = _placeholder_name(pat)
        if name is not None:
            return (_BIND, _ast.expr, name)
        name = _stmt_placeholder_name(pat)
        if name is not None:
            return (_BIND, _ast.stmt, name)
        fields = tuple((f, _plan(getattr(pat, f, None), depth + 1)) for f in pat._fields if f not in _IGNORED_FIELDS)
        return (_NODE, type(pat), fields)
    if isinstance(pat, list):
        return (_LIST, tuple(_plan(item, depth + 1) for item in pat))
    if isinstance(pat, str) and pat.startswith(_PLACEHOLDER_PREFIX):
        return (_BIND, str, pat[len(_PLACEHOLDER_PREFIX) :])
    return (_VALUE, type(pat), pat)


def _match(plan: tuple, src: object, binds: list) -> bool:
    """Whether ``src`` has the structure of ``plan``. Each metavariable
    adds a (name, node or string) pair to ``binds``; no text is read."""
    tag = plan[0]
    if tag is _NODE:
        if type(src) is not plan[1]:
            return False
        for fname, sub in plan[2]:
            value = getattr(src, fname, None)
            tag = sub[0]
            if tag is _VALUE:  # the leaf cases inline, the rest by recursion
                if type(value) is not sub[1] or value != sub[2]:
                    return False
            elif tag is _BIND:
                if not isinstance(value, sub[1]):
                    return False
                binds.append((sub[2], value))
            elif not _match(sub, value, binds):
                return False
        return True
    if tag is _BIND:
        if not isinstance(src, plan[1]):
            return False
        binds.append((plan[2], src))
        return True
    if tag is _VALUE:
        return type(src) is plan[1] and src == plan[2]
    subs = plan[1]  # _LIST
    if not isinstance(src, list) or len(src) != len(subs):
        return False
    for sub, item in zip(subs, src):
        if not _match(sub, item, binds):
            return False
    return True


def _keep(matches: dict, span: tuple, binds: list, segment) -> None:
    """Keep a structural match under ``span`` unless a match already holds
    that span: read the text of each bind, and drop the match if a node has
    no text or a repeated name binds different texts."""
    if span in matches:
        return
    captures: dict[str, str] = {}
    for name, value in binds:
        text = value if type(value) is str else segment(value)
        if text is None or captures.setdefault(name, text) != text:
            return
    matches[span] = captures


def find_matches(
    variants: tuple[Variant, ...], index: TreeIndex, source: SourceText
) -> dict[tuple[int, int], dict[str, str]]:
    """All matches of a compiled pattern (its variants) in one indexed
    file, in the order they are found: each span's (start, end) character
    offsets into the text, the end just after the match, mapped to its
    metavariable bindings. The first match found of each span is kept."""
    matches: dict[tuple[int, int], dict[str, str]] = {}
    segment, offset = source.segment, source.offset
    for variant in variants:
        plans = variant.plans
        root = plans[0]
        by_type = index.exprs_by_type if variant.kind == "expr" else index.windows_by_type
        candidates = itertools.chain(*by_type.values()) if root[0] is _BIND else by_type.get(root[1], ())
        if variant.kind == "expr":
            for node in candidates:
                binds: list = []
                if _match(root, node, binds):
                    span = offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)
                    _keep(matches, span, binds, segment)
        else:
            width = len(plans)
            for stmts, i in candidates:
                if i + width > len(stmts):
                    continue
                binds = []
                for plan, stmt in zip(plans, stmts[i : i + width]):
                    if not _match(plan, stmt, binds):
                        break
                else:
                    first, last = stmts[i], stmts[i + width - 1]
                    span = offset(first.lineno, first.col_offset), offset(last.end_lineno, last.end_col_offset)
                    _keep(matches, span, binds, segment)
    return matches

"""Pattern rendering in one token scan against the segment list it replaced.

``segment_pattern`` and ``render_segments`` below are
``patterns._segment_pattern`` and ``patterns._render`` as they were before
each variant was rendered in one scan of the pattern's tokens, copied as
they were; ``compile_by_segments`` is ``patterns.compile_pattern`` as it was
then, which also rendered and parsed the full form a second time. The new
renderer must give the same text for every set of omitted optionals, and
``compile_pattern`` the same variants, in the same order, or the same
``PatternError`` message.
"""

from __future__ import annotations

import ast
import itertools
import re

import pytest
from hypothesis import given, strategies as st

from slopscope.patterns import _PLACEHOLDER_PREFIX, PatternError, _render, compile_pattern
from slopscope.rules import load_starter_rules

from test_pattern_index import PATTERNS

_OLD_MV_TOKEN = re.compile(r"\$\$|\$([A-Za-z_][A-Za-z0-9_]*)(\??)")


def segment_pattern(pattern: str) -> list[tuple[str, object]]:
    """Split a pattern into literal chunks and metavariable tokens."""
    segments: list[tuple[str, object]] = []
    pos = 0
    for m in _OLD_MV_TOKEN.finditer(pattern):
        if m.start() > pos:
            segments.append(("text", pattern[pos : m.start()]))
        if m.group(0) == "$$":
            segments.append(("text", "$"))
        else:
            segments.append(("mv", (m.group(1), m.group(2) == "?")))
        pos = m.end()
    if pos < len(pattern):
        segments.append(("text", pattern[pos:]))
    return segments


def render_segments(segments: list[tuple[str, object]], omit: frozenset[str]) -> str:
    """Render pattern text with placeholders, omitting the given optionals.

    When an optional metavariable is omitted, one adjacent comma (before it,
    else after it) is removed with it so argument lists stay parseable.
    """
    out: list[str] = []
    pending_strip_comma = False
    for kind, value in segments:
        if kind == "text":
            text = str(value)
            if pending_strip_comma:
                stripped = text.lstrip()
                if stripped.startswith(","):
                    text = stripped[1:]
                pending_strip_comma = False
            out.append(text)
        else:
            name, _optional = value  # type: ignore[misc]
            if name in omit:
                # Prefer eating a preceding comma; otherwise eat the next one.
                prev = "".join(out)
                trimmed = prev.rstrip()
                if trimmed.endswith(","):
                    out = [trimmed[:-1]]
                else:
                    pending_strip_comma = True
            else:
                out.append(_PLACEHOLDER_PREFIX + str(name))
    return "".join(out)


def compile_by_segments(pattern: str) -> list[tuple[str, str]]:
    """The variants of ``pattern`` as (kind, ``ast.dump`` of each node)."""
    segments = segment_pattern(pattern)
    optional = {name for kind, v in segments if kind == "mv" for name, opt in [v] if opt}

    variants: list[tuple[str, str]] = []
    errors: list[str] = []
    for r in range(len(optional) + 1):
        for omit in itertools.combinations(sorted(optional), r):
            text = render_segments(segments, frozenset(omit))
            try:
                module = ast.parse(text)
            except SyntaxError as exc:
                errors.append(f"{text!r}: {exc.msg}")
                continue
            if not module.body:
                errors.append(f"{text!r}: empty pattern")
                continue
            if len(module.body) == 1 and isinstance(module.body[0], ast.Expr):
                variants.append(("expr", ast.dump(module.body[0].value)))
            else:
                variants.append(("stmts", "\n".join(map(ast.dump, module.body))))

    if not variants:
        raise PatternError("; ".join(errors) or "pattern has no parseable form")
    full = render_segments(segments, frozenset())
    try:
        ast.parse(full)
    except SyntaxError as exc:
        raise PatternError(f"{pattern!r} does not parse: {exc.msg}") from exc
    return variants


def variants_of(pattern: str) -> list[tuple[str, str]]:
    return [
        (v.kind, ast.dump(v.nodes[0]) if v.kind == "expr" else "\n".join(map(ast.dump, v.nodes)))
        for v in compile_pattern(pattern)
    ]


def outcome(compile, pattern: str):
    """The variants of ``pattern``, or the message it is refused with."""
    try:
        return compile(pattern)
    except PatternError as exc:
        return str(exc)


FRAGMENTS = ("$A", "$A?", "$B?", "$$", ",", ", ", " ,", "(", ")", "[", "]", "\n", "\n    ", "x", "$", "?")
patterns = st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join)


@given(patterns)
def test_render_matches_segment_render(pattern):
    segments = segment_pattern(pattern)
    optional = sorted({name for kind, v in segments if kind == "mv" for name, opt in [v] if opt})
    for r in range(len(optional) + 1):
        for omit in map(frozenset, itertools.combinations(optional, r)):
            assert _render(pattern, omit) == render_segments(segments, omit), (pattern, omit)


@given(patterns)
def test_compile_matches_segment_compile(pattern):
    assert outcome(variants_of, pattern) == outcome(compile_by_segments, pattern)


def test_starter_and_test_patterns_compile_as_by_segments():
    starter = [rule.pattern for rule in load_starter_rules() if rule.kind == "pattern"]
    for pattern in (*starter, *PATTERNS):
        assert variants_of(pattern) == compile_by_segments(pattern), pattern


@pytest.mark.parametrize("pattern", ["def (((", "$A?)", "foo($A?,", "", "# only a comment", "$X = ", "return $$"])
def test_refused_patterns_give_the_same_message(pattern):
    with pytest.raises(PatternError) as err:
        compile_by_segments(pattern)
    assert outcome(variants_of, pattern) == str(err.value)

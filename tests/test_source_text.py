"""The per-file line table against the code it replaced.

``SourceText.segment`` must equal ``ast.get_source_segment`` on every
expression and statement node, and ``SourceText.position`` must equal the
regex position loop that once lived in ``rules.py`` (copied below) on text
whose only line break is ``\\n`` or ``\\r\\n``. Lone ``\\r`` and the breaks that
only ``str.splitlines`` knows are where the table follows the parser instead.
Its source lines must equal those of the rule that stripped each sliced line.
"""

from __future__ import annotations

import ast
import bisect
import re
import sys
from pathlib import Path

import pytest

import slopscope
from slopscope.adapters import SourceText, TreeIndex
from slopscope.clones import normalize_file
from slopscope.rules import load_starter_rules, match_rules

from conftest import FIXTURES

# Identifiers, strings and comments outside ASCII; a form feed, NEL and a
# line separator that the parser does not break on; \r\n and lone \r that it
# does; a call over two lines with non-ASCII text before its first and last column.
NON_ASCII = (
    "def grüße(naïve, 名前='値'):\n"
    '    """Ünïcödé docstring ✓."""\n'
    "    text = f'{naïve} → {名前}'  # kommentar ✓\n"
    "    if naïve == naïve:\x0c\n"
    "        return [c for c in 'émoji 🎉' if c]\n"
    "    return {'ключ': len(名前) == 0, 'x': 'a b\x85c'}\r\n"
    "class Ω:\r"
    "    def m(self): return self.ß + (lambda: 'ü')()\n"
    "x = 'é' + f(ö,\n  'ü', ä) + 'ß'\n"
)

FILES = sorted(
    [*(FIXTURES / "cc_corpus").rglob("*.py"), *(FIXTURES / "golden_tree").rglob("*.py"),
     *Path(slopscope.__file__).parent.rglob("*.py")]
)
SAMPLES = {f"{path.parent.name}/{path.name}": path.read_text(encoding="utf-8") for path in FILES}
SAMPLES["non_ascii"] = NON_ASCII


def _old_offset_to_pos(line_starts: list[int], offset: int) -> tuple[int, int]:
    line = bisect.bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _old_line_starts(text: str) -> list[int]:
    line_starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            line_starts.append(i + 1)
    return line_starts


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_segment_equals_get_source_segment(name):
    text = SAMPLES[name]
    source = SourceText.from_text(text)
    nodes = [n for n in ast.walk(ast.parse(text)) if isinstance(n, (ast.expr, ast.stmt))]
    assert nodes
    for node in nodes:
        assert source.segment(node) == ast.get_source_segment(text, node), ast.dump(node)


@pytest.mark.parametrize("name", sorted(n for n, text in SAMPLES.items() if "\r" not in text))
def test_position_equals_old_regex_loop(name):
    text = SAMPLES[name]
    source = SourceText.from_text(text)
    line_starts = _old_line_starts(text)
    for offset in range(len(text) + 1):
        assert source.position(offset) == _old_offset_to_pos(line_starts, offset)


def test_crlf_positions_equal_old_regex_loop():
    text = NON_ASCII.replace("\r\n", "\n").replace("\r", "\n").replace("\n", "\r\n")
    source = SourceText.from_text(text)
    line_starts = _old_line_starts(text)
    for offset in range(len(text) + 1):
        assert source.position(offset) == _old_offset_to_pos(line_starts, offset)


def test_lines_follow_the_parser():
    source = SourceText.from_text(NON_ASCII)
    tree = ast.parse(NON_ASCII)
    last = max(getattr(n, "end_lineno", 0) or 0 for n in ast.walk(tree))
    assert source.line_count == last == 10
    assert len(NON_ASCII.splitlines()) > last
    assert source.source_lines == set(range(1, 11))


def test_empty_and_unterminated_text():
    assert SourceText.from_text("").line_count == 0
    assert SourceText.from_text("x = 1").line_count == 1
    assert SourceText.from_text("x = 1\n\n").line_count == 2


def _old_source_lines(text: str) -> tuple[int, frozenset[int]]:
    """The line count and source lines as the line table once found them:
    each line sliced out with its break, stripped, and kept if something
    other than a comment is left."""
    starts = (0, *(m.end() for m in re.finditer(r"\r\n|\r|\n", text)))
    lines = [text[a:b].strip() for a, b in zip(starts, (*starts[1:], len(text))) if a < len(text)]
    return len(lines), frozenset(n for n, line in enumerate(lines, 1) if line and not line.startswith("#"))


def test_source_lines_equal_the_stripping_rule_on_every_code_point():
    """Each code point alone, after a space, and before ``#`` and ``x``,
    one per line, a block of 4,096 code points at a time."""
    for block in range(0, sys.maxunicode + 1, 4096):
        chars = [chr(c) for c in range(block, block + 4096)]
        text = "\n".join([*chars, *(" " + c for c in chars), *(c + "#" for c in chars), *(c + "x" for c in chars)])
        source = SourceText.from_text(text)
        assert (source.line_count, source.source_lines) == _old_source_lines(text), hex(block)


def test_lone_cr_puts_regex_match_on_the_parser_line():
    text = "x = 1\rtry:\n    go()\nexcept Exception:\n    pass\n"
    handler = next(n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.ExceptHandler))
    found = match_rules("m.py", SourceText.from_text(text), TreeIndex.from_tree(ast.parse(text)),
                        load_starter_rules())
    broad = [m for m in found if m.rule_id == "broad-except"]
    assert [m.lines for m in broad] == [(handler.lineno,)] == [(4,)]


def test_lone_cr_puts_clone_lines_on_the_parser_lines():
    assert normalize_file("m.py", "a = 1\rb = 2\r\nc = 3\n").physical == (1, 2, 3)

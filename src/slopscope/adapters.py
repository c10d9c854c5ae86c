"""Grammar adapters: per-language parsing and callable extraction.

An adapter owns a language id and a set of file extensions, parses source
text into a syntax tree, and enumerates callables with their cyclomatic
complexity and SLOC. Adapters register themselves in ``ADAPTERS``; two
adapters may never claim the same extension.
"""

from __future__ import annotations

import ast
import bisect
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Protocol

from .model import CallableRecord


class GrammarAdapter(Protocol):
    language: str
    extensions: frozenset[str]

    def parse(self, text: str):
        """Parse source text; raises SyntaxError on failure."""
        ...

    def enumerate_callables(self, path: str, source: SourceText, tree) -> list[CallableRecord]:
        ...


def is_source_line(line: str) -> bool:
    """Non-blank, non-comment physical line. Docstrings count as source."""
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


# The only line breaks Python's parser knows. ``str.splitlines`` also breaks
# on form feeds, vertical tabs and Unicode separators, which would shift
# every later line number away from the syntax tree's.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


@dataclass(frozen=True)
class SourceText:
    """One file's text, split into lines once, the way the parser splits it.

    ``starts`` holds the character offset of line 1 and of the position
    after every line break; ``byte_starts`` holds the same offsets into
    ``data``, the UTF-8 encoding of ``text`` that syntax-tree columns count.
    """

    text: str
    data: bytes
    starts: tuple[int, ...]
    byte_starts: tuple[int, ...]
    line_count: int
    source_lines: frozenset[int]  # 1-based lines that are neither blank nor comment

    @classmethod
    def from_text(cls, text: str) -> SourceText:
        starts = (0, *(m.end() for m in _LINE_BREAK.finditer(text)))
        lines = [text[a:b] for a, b in zip(starts, (*starts[1:], len(text))) if a < len(text)]
        data = text.encode()
        byte_starts = starts if len(data) == len(text) else (0, *accumulate(len(line.encode()) for line in lines))
        source_lines = frozenset(n for n, line in enumerate(lines, 1) if is_source_line(line))
        return cls(text, data, starts, byte_starts[: len(starts)], len(lines), source_lines)

    def sloc(self, start: int, end: int) -> int:
        """Source lines within a 1-based inclusive line span."""
        return sum(1 for n in range(start, end + 1) if n in self.source_lines)

    def position(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of a character offset into ``text``."""
        line = bisect.bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1

    def segment(self, node: ast.AST) -> str | None:
        """Exact source text of an expression or statement node."""
        if getattr(node, "end_col_offset", None) is None:
            return None
        start = self.byte_starts[node.lineno - 1] + node.col_offset
        return self.data[start : self.byte_starts[node.end_lineno - 1] + node.end_col_offset].decode()


# Node types that open a new callable scope; decision points inside them
# never count toward the enclosing callable. Lambdas deliberately do NOT
# appear here: they fold into the nearest named callable.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk_scope(root: ast.AST):
    """Yield descendants of ``root`` without crossing into nested scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def cyclomatic_complexity(callable_node: ast.AST) -> int:
    """1 + decision points of one callable body.

    Decision points: if/elif/ternary, loop headers, except clauses, and/or
    connectives, comprehension filter clauses, and match arms beyond the
    first. Nested named callables are excluded.
    """
    cc = 1
    for node in _walk_scope(callable_node):
        if isinstance(node, (ast.If, ast.IfExp)):
            cc += 1
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            cc += 1
        elif isinstance(node, ast.ExceptHandler):
            cc += 1
        elif isinstance(node, ast.BoolOp):
            cc += len(node.values) - 1
        elif isinstance(node, ast.comprehension):
            cc += len(node.ifs)
        elif isinstance(node, ast.Match):
            cc += max(0, len(node.cases) - 1)
    return cc


class PythonAdapter:
    language = "python"
    extensions = frozenset({".py"})

    def parse(self, text: str) -> ast.Module:
        return ast.parse(text)

    def enumerate_callables(self, path: str, source: SourceText, tree: ast.Module) -> list[CallableRecord]:
        records: list[CallableRecord] = []
        self._collect(tree, path, source, [], records)
        records.sort(key=lambda c: (c.span[0], c.qualified_name))
        return records

    def _collect(self, node: ast.AST, path: str, source: SourceText,
                 scope: list[str], out: list[CallableRecord]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                start, end = child.lineno, child.end_lineno or child.lineno
                out.append(
                    CallableRecord(
                        qualified_name=name,
                        file=path,
                        span=(start, end),
                        cc=cyclomatic_complexity(child),
                        sloc=max(1, source.sloc(start, end)),
                    )
                )
                self._collect(child, path, source, scope + [child.name], out)
            elif isinstance(child, ast.ClassDef):
                self._collect(child, path, source, scope + [child.name], out)
            else:
                self._collect(child, path, source, scope, out)


ADAPTERS: dict[str, GrammarAdapter] = {PythonAdapter.language: PythonAdapter()}


def adapter_for_extension(ext: str, languages: list[str]) -> GrammarAdapter | None:
    for lang in languages:
        adapter = ADAPTERS.get(lang)
        if adapter is not None and ext in adapter.extensions:
            return adapter
    return None


def register_adapter(adapter: GrammarAdapter) -> None:
    for existing in ADAPTERS.values():
        overlap = existing.extensions & adapter.extensions
        if overlap and existing.language != adapter.language:
            raise ValueError(f"extension(s) {sorted(overlap)} already claimed by {existing.language}")
    ADAPTERS[adapter.language] = adapter

"""Python source: its lines, its one-walk syntax-tree index, and callables.

``PythonAdapter`` parses source text into a syntax tree and enumerates
callables with their cyclomatic complexity and SLOC from the ``TreeIndex``
that one walk of the tree builds. Python is the only language measured;
``ADAPTERS`` holds the one instance every file is parsed through.
"""

from __future__ import annotations

import ast
import bisect
import re
from collections import deque
from typing import NamedTuple

from .model import CallableRecord


def is_source_line(line: str) -> bool:
    """Non-blank, non-comment physical line. Docstrings count as source."""
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


# The only line breaks Python's parser knows. ``str.splitlines`` also breaks
# on form feeds, vertical tabs and Unicode separators, which would shift
# every later line number away from the syntax tree's.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


class SourceText(NamedTuple):
    """One file's text, split into lines once, the way the parser splits it.

    ``starts`` holds the character offset of line 1 and of the position
    after every line break.
    """

    text: str
    starts: tuple[int, ...]
    line_count: int
    source_lines: frozenset[int]  # 1-based lines that are neither blank nor comment

    @classmethod
    def from_text(cls, text: str) -> SourceText:
        starts = (0, *(m.end() for m in _LINE_BREAK.finditer(text)))
        lines = [text[a:b] for a, b in zip(starts, (*starts[1:], len(text))) if a < len(text)]
        source_lines = frozenset(n for n, line in enumerate(lines, 1) if is_source_line(line))
        return cls(text, starts, len(lines), source_lines)

    def sloc(self, start: int, end: int) -> int:
        """Source lines within a 1-based inclusive line span."""
        return sum(1 for n in range(start, end + 1) if n in self.source_lines)

    def position(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of a character offset into ``text``."""
        line = bisect.bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1

    def offset(self, lineno: int, col: int) -> int:
        """Character offset into ``text`` of a syntax-tree position, whose
        column counts UTF-8 bytes of its line. No character is shorter
        than one byte, so the line's first ``col`` characters hold it."""
        start = self.starts[lineno - 1]
        return start + len(self.text[start : start + col].encode()[:col].decode())

    def segment(self, node: ast.AST) -> str | None:
        """Exact source text of an expression or statement node."""
        if getattr(node, "end_col_offset", None) is None:
            return None
        offset = self.offset
        return self.text[offset(node.lineno, node.col_offset) : offset(node.end_lineno, node.end_col_offset)]


# Node types that add one decision point to the callable that owns them.
_ONE_POINT = frozenset({ast.If, ast.IfExp, ast.For, ast.AsyncFor, ast.While, ast.ExceptHandler})
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
# Fields that hold only names, comment strings, or context and operator
# nodes (``Load``, ``Add``, ``Eq``, ...): nothing the index records or
# counts, so the walk does not enter them.
_LEAF_FIELDS = frozenset({"ctx", "op", "ops", "id", "attr", "type_comment"})
# Node type -> the fields the walk enters, filled as types are first met.
_WALKED_FIELDS: dict[type, tuple[str, ...]] = {}


class TreeIndex(NamedTuple):
    """One file's syntax tree, walked once.

    ``exprs_by_type`` maps each expression node type to its nodes in
    ``ast.walk`` order. ``windows_by_type`` maps each statement type to the
    (statement list, start index) pairs whose first statement has that
    type: lists in walk order, starts ascending. ``callables`` holds one
    [qualified name, first line, last line, cyclomatic complexity] entry
    per ``def`` or ``async def``.
    """

    exprs_by_type: dict[type, list[ast.expr]]
    windows_by_type: dict[type, list[tuple[list[ast.stmt], int]]]
    callables: list[list]

    @classmethod
    def from_tree(cls, tree: ast.AST) -> TreeIndex:
        """Walk ``tree`` breadth-first, in ``ast.walk`` order, without
        recursion, so nesting no deeper than the parser allows cannot
        exhaust the stack. Only leaf fields (``_LEAF_FIELDS``) are
        skipped, so the recorded nodes and windows keep that order.

        Each queued node carries its owner (the entry of the nearest
        enclosing ``def``, or None under a ``class`` or at module level)
        and the names of the scopes around it. A decision point counts
        toward its owner: if/elif/ternary, loop headers, except clauses,
        and/or connectives, comprehension filter clauses, and match arms
        beyond the first. A def's decorators, defaults and annotations are
        its own; lambdas fold into their owner.
        """
        index = cls({}, {}, [])
        exprs_by_type, windows_by_type, callables = index
        AST, expr, stmt, one_point, defs, walked = ast.AST, ast.expr, ast.stmt, _ONE_POINT, _DEFS, _WALKED_FIELDS
        queue = deque([(tree, None, ())])
        push, pop = queue.append, queue.popleft
        while queue:
            node, owner, scope = pop()
            kind = type(node)
            if owner is not None:
                if kind in one_point:
                    owner[3] += 1
                elif kind is ast.BoolOp:
                    owner[3] += len(node.values) - 1
                elif kind is ast.comprehension:
                    owner[3] += len(node.ifs)
                elif kind is ast.Match:
                    owner[3] += max(0, len(node.cases) - 1)
            if kind in defs:
                scope = (*scope, node.name)
                owner = [".".join(scope), node.lineno, node.end_lineno or node.lineno, 1]
                callables.append(owner)
            elif kind is ast.ClassDef:
                owner, scope = None, (*scope, node.name)
            elif isinstance(node, expr):
                same = exprs_by_type.get(kind)
                if same is None:
                    exprs_by_type[kind] = [node]
                else:
                    same.append(node)
            fields = walked.get(kind)
            if fields is None:
                fields = walked[kind] = tuple(f for f in node._fields if f not in _LEAF_FIELDS)
            for fname in fields:
                value = getattr(node, fname, None)
                if isinstance(value, AST):
                    push((value, owner, scope))
                elif type(value) is list and value:
                    # A list field holds one kind of node, so its first
                    # element tells whether it is a statement list.
                    if isinstance(value[0], stmt):
                        for i, item in enumerate(value):
                            window = (value, i)
                            same = windows_by_type.get(type(item))
                            if same is None:
                                windows_by_type[type(item)] = [window]
                            else:
                                same.append(window)
                            push((item, owner, scope))
                    else:
                        for item in value:
                            if isinstance(item, AST):
                                push((item, owner, scope))
        return index


class PythonAdapter:
    def parse(self, text: str) -> ast.Module:
        """Parse source text; raises SyntaxError on failure."""
        return ast.parse(text)

    def enumerate_callables(self, path: str, source: SourceText, index: TreeIndex) -> list[CallableRecord]:
        """The file's named callables, from the index its one walk built."""
        records = [
            CallableRecord(qualified_name=name, file=path, start_line=start, end_line=end, cc=cc,
                           sloc=max(1, source.sloc(start, end)))
            for name, start, end, cc in index.callables
        ]
        records.sort(key=lambda c: (c.start_line, c.qualified_name))
        return records


ADAPTERS: dict[str, PythonAdapter] = {"python": PythonAdapter()}

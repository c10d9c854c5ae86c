"""The one walk per file against the three walks it replaced.

``TreeIndex.from_tree`` walks a file's syntax tree once, breadth-first, and
fills the pattern index and the callable list together. The oracles below
are the code it replaced, copied as it was: ``collect_by_recursion`` is the
Python adapter's recursive collector with one ``cyclomatic_complexity`` walk
per function body, and ``index_by_walk`` is the ``ast.walk`` index builder.
The one walk must give equal callable records, and the same expression and
window objects in the same order, by-type maps included, on the bundled
fixtures, on this package and its tests, on a fixed sample of the local
standard library, and on hand-written scope edge cases.
"""

from __future__ import annotations

import ast

import pytest

from slopscope.adapters import PythonAdapter, SourceText, TreeIndex
from slopscope.model import CallableRecord

from conftest import CORPORA, DEEP_SUM

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


def _collect(node: ast.AST, path: str, source: SourceText, scope: list[str], out: list[CallableRecord]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            start, end = child.lineno, child.end_lineno or child.lineno
            out.append(CallableRecord(".".join(scope + [child.name]), path, (start, end),
                                      cyclomatic_complexity(child), max(1, source.sloc(start, end))))
            _collect(child, path, source, scope + [child.name], out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, path, source, scope + [child.name], out)
        else:
            _collect(child, path, source, scope, out)


def collect_by_recursion(path: str, source: SourceText, tree: ast.AST) -> list[CallableRecord]:
    records: list[CallableRecord] = []
    _collect(tree, path, source, [], records)
    records.sort(key=lambda c: (c.span[0], c.qualified_name))
    return records


def index_by_walk(tree: ast.AST) -> TreeIndex:
    index = TreeIndex({}, {}, [])
    for node in ast.walk(tree):
        if isinstance(node, ast.expr):
            index.exprs_by_type.setdefault(type(node), []).append(node)
            continue
        for fname in node._fields:
            value = getattr(node, fname, None)
            if isinstance(value, list) and value and all(isinstance(v, ast.stmt) for v in value):
                for i, stmt in enumerate(value):
                    index.windows_by_type.setdefault(type(stmt), []).append((value, i))
    return index


def _identities(index: TreeIndex) -> tuple:
    """The index's entries as object identities, so equal means the same objects."""
    def windows(entries):
        return [(id(stmts), i) for stmts, i in entries]

    return (
        {kind: [id(n) for n in nodes] for kind, nodes in index.exprs_by_type.items()},
        {kind: windows(entries) for kind, entries in index.windows_by_type.items()},
    )


# Every rule of the convention where a walk could attribute a node to the
# wrong owner: decorators, defaults and annotations of a def are its own; a
# class body (even inside a def) belongs to no callable; lambdas fold into
# their owner; nested defs, async defs and methods of nested classes are
# callables of their own.
SCOPES = '''\
import functools


@functools.lru_cache(maxsize=1 if DEBUG else None)
def decorated(a=b or c, *, k: int if T else str = [x for x in y if x]) -> (p and q):
    return a


def outer(xs):
    class Local:
        flag = 1 if xs else 0
        items = [x for x in xs if x if not x]

        def method(self, d=lambda v: v or 0):
            while self:
                break

    @(lambda f: f if xs else None)
    async def inner(y=xs and xs[0]):
        async for z in y:
            try:
                pass
            except ValueError:
                pass
        return [w async for w in y if w]

    def plain():
        return lambda q: q if q else (q and not q)

    match xs:
        case [a]:
            return a
        case {"k": b} if b:
            return b
        case _:
            return None


class Top:
    x = [i for i in range(3) if i]

    class Nested:
        def deep(self):
            def deeper():
                return 1 if self else 2
            return deeper
'''


def _assert_one_walk_agrees(path: str, text: str) -> int:
    source, tree = SourceText.from_text(text), ast.parse(text)
    index = TreeIndex.from_tree(tree)
    records = PythonAdapter().enumerate_callables(path, source, index)
    assert records == collect_by_recursion(path, source, tree), path
    assert _identities(index) == _identities(index_by_walk(tree)), path
    return len(records)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_one_walk_agrees_with_the_walks_it_replaced(corpus):
    assert sum(_assert_one_walk_agrees(str(path), path.read_text(encoding="utf-8")) for path in CORPORA[corpus]) > 0


def test_scope_edge_cases():
    assert _assert_one_walk_agrees("scopes.py", SCOPES) == 7
    counted = {name: cc for name, _, _, cc in TreeIndex.from_tree(ast.parse(SCOPES)).callables}
    assert counted == {
        "decorated": 6,  # decorator ternary, `or` default, filter, annotation ternary, `and` return annotation
        "outer": 3,  # match arms beyond the first; Local's body and inner's decorator are not outer's
        "outer.Local.method": 3,  # `or` in a default's lambda, while
        "outer.inner": 6,  # decorator's ternary, `and` default, async for, except, filter
        "outer.plain": 3,  # ternary and `and` of a returned lambda
        "Top.Nested.deep": 1,
        "Top.Nested.deep.deeper": 2,
    }


def test_deep_nesting_needs_no_recursion():
    tree = ast.parse(DEEP_SUM)
    with pytest.raises(RecursionError):
        collect_by_recursion("deep.py", SourceText.from_text(DEEP_SUM), tree)
    index = TreeIndex.from_tree(tree)
    assert _identities(index) == _identities(index_by_walk(tree))
    assert sum(map(len, index.exprs_by_type.values())) == 1 + 1199 + 1200  # the target, the additions, the terms

from __future__ import annotations

import ast

import pytest

from slopscope.adapters import PythonAdapter, SourceText, TreeIndex
from slopscope.history import measure_checkpoint
from slopscope.model import CallableRecord, FileRecord, ScanError, merge_inventories
from slopscope.scan import ScanConfig, load_scan_config

from conftest import write_tree

TREE_FILES = {
    "pkg/alpha.py": """\
        def top(a):
            if a:
                return 1
            return 0


        class Box:
            def get(self):
                return self.value

            def set(self, value):
                self.value = value
        """,
    "pkg/beta.py": """\
        def outer(x):
            def inner(y):
                return y * 2

            return inner(x)
        """,
    "sub/gamma.py": """\
        def lonely():
            pass


        def also_lonely():
            pass
        """,
}


def _cc(src: str) -> int:
    """Complexity of the first callable of ``src``."""
    source = SourceText.from_text(src)
    return PythonAdapter().enumerate_callables("m.py", source, TreeIndex.from_tree(ast.parse(src)))[0].cc


class TestScanTree:
    def test_empty_directory(self, tmp_path):
        inv = measure_checkpoint(tmp_path).inventory
        assert inv.files == () and inv.callables == ()

    def test_undecodable_file_is_skipped(self, tmp_path):
        (tmp_path / "bad.py").write_bytes(b"\xff\xfe\x00broken\xff")
        inv = measure_checkpoint(tmp_path).inventory
        assert inv.files == ()
        assert inv.skipped == (("bad.py", "decode"),)

    def test_unparsable_file_is_skipped(self, tmp_path):
        (tmp_path / "syntax.py").write_text("def broken(:\n")
        inv = measure_checkpoint(tmp_path).inventory
        assert inv.skipped == (("syntax.py", "parse"),)

    def test_minified_file_is_skipped(self, tmp_path):
        (tmp_path / "blob.py").write_text("x = " + "1 + " * 300 + "1\n")
        inv = measure_checkpoint(tmp_path).inventory
        assert inv.skipped == (("blob.py", "minified"),)

    def test_fixture_tree_matches_manifest(self, tmp_path):
        write_tree(tmp_path, TREE_FILES)
        inv = measure_checkpoint(tmp_path).inventory
        assert [f.path for f in inv.files] == ["pkg/alpha.py", "pkg/beta.py", "sub/gamma.py"]
        assert len(inv.callables) == 7
        names = [(c.file, c.qualified_name) for c in inv.callables]
        assert names == [
            ("pkg/alpha.py", "top"),
            ("pkg/alpha.py", "Box.get"),
            ("pkg/alpha.py", "Box.set"),
            ("pkg/beta.py", "outer"),
            ("pkg/beta.py", "outer.inner"),
            ("sub/gamma.py", "lonely"),
            ("sub/gamma.py", "also_lonely"),
        ]

    def test_missing_root_is_fatal(self, tmp_path):
        with pytest.raises(ScanError):
            measure_checkpoint(tmp_path / "nope")

    def test_scan_is_idempotent(self, tmp_path):
        write_tree(tmp_path, TREE_FILES)
        assert measure_checkpoint(tmp_path).inventory == measure_checkpoint(tmp_path).inventory

    def test_union_property(self, tmp_path):
        write_tree(tmp_path, TREE_FILES)
        whole = measure_checkpoint(tmp_path).inventory
        parts = [
            measure_checkpoint(tmp_path, ScanConfig(exclude=("pkg/*",))).inventory,
            measure_checkpoint(tmp_path, ScanConfig(exclude=("sub/*",))).inventory,
        ]
        assert merge_inventories(parts) == whole

    def test_exclude_globs(self, tmp_path):
        write_tree(tmp_path, TREE_FILES)
        inv = measure_checkpoint(tmp_path, ScanConfig(exclude=("sub/*",))).inventory
        assert all(f.path.startswith("pkg/") for f in inv.files)

    def test_odd_line_breaks_follow_the_parser(self, tmp_path):
        # A form feed ends a line for str.splitlines() but not for the parser.
        (tmp_path / "m.py").write_text(
            "def f(a):\n    x = 1\x0c\n    return a\n\n\ndef g():\n    return 2\n", encoding="utf-8"
        )
        inv = measure_checkpoint(tmp_path).inventory
        assert (inv.files[0].line_count, inv.files[0].loc) == (7, 5)
        assert {c.qualified_name: (c.span, c.sloc) for c in inv.callables} == {
            "f": ((1, 3), 3),
            "g": ((6, 7), 2),
        }


class TestEnumerateCallables:
    def test_no_functions(self):
        adapter = PythonAdapter()
        source = SourceText.from_text("x = 1\n")
        assert adapter.enumerate_callables("m.py", source, TreeIndex.from_tree(ast.parse(source.text))) == []

    def test_methods_and_module_function(self, tmp_path):
        write_tree(tmp_path, {"m.py": TREE_FILES["pkg/alpha.py"]})
        inv = measure_checkpoint(tmp_path).inventory
        assert len(inv.callables) == 3

    def test_nested_function_gets_own_record(self, tmp_path):
        write_tree(tmp_path, {"m.py": TREE_FILES["pkg/beta.py"]})
        inv = measure_checkpoint(tmp_path).inventory
        spans = {c.qualified_name: c.span for c in inv.callables}
        assert set(spans) == {"outer", "outer.inner"}
        assert spans["outer"] != spans["outer.inner"]


class TestCyclomaticComplexity:
    def test_straight_line(self):
        assert _cc("def f():\n    return 1\n") == 1

    def test_single_if(self):
        assert _cc("def f(a):\n    if a:\n        return 1\n    return 0\n") == 2

    def test_if_elif_and(self):
        src = "def f(a, b):\n    if a and b:\n        return 1\n    elif a:\n        return 2\n    return 0\n"
        assert _cc(src) == 4

    def test_nested_callable_excluded(self):
        src = "def f(a):\n    def g(b):\n        if b:\n            return 1\n        return 0\n    return g(a)\n"
        assert _cc(src) == 1

    def test_lambda_folds_into_enclosing(self):
        assert _cc("def f(xs):\n    return sorted(xs, key=lambda x: 1 if x else 0)\n") == 2

    def test_match_arms(self):
        src = "def f(n):\n    match n:\n        case 0:\n            return 0\n        case _:\n            return 1\n"
        assert _cc(src) == 2


class TestSourceLines:
    def test_one_liner(self):
        assert SourceText.from_text("def f(): return 1").sloc(1, 1) == 1

    def test_blank_and_comment_excluded(self):
        source = SourceText.from_text("def f(a):\n\n    # setup\n    a += 1\n    return a\n")
        assert source.sloc(1, 5) == 3
        assert source.source_lines == {1, 4, 5}

    def test_docstring_counts(self):
        source = SourceText.from_text('def f():\r\n    """Doc."""\r\n    return 1\r\n')
        assert (source.sloc(1, 3), source.line_count) == (3, 3)


class TestRecords:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FileRecord(path="a.py", language="python", loc=5, line_count=3)
        with pytest.raises(ValueError):
            FileRecord(path="../a.py", language="python", loc=1, line_count=1)
        with pytest.raises(ValueError):
            CallableRecord("f", "a.py", (3, 2), cc=1, sloc=1)
        with pytest.raises(ValueError):
            CallableRecord("f", "a.py", (1, 2), cc=0, sloc=1)


def test_load_scan_config(tmp_path):
    cfg = tmp_path / "scan.yaml"
    cfg.write_text("exclude: ['vendored/*']\nminified_line_threshold: 900\n")
    config = load_scan_config(cfg)
    assert config.exclude == ("vendored/*",)
    assert config.minified_line_threshold == 900
    assert config.encoding == "utf-8"

    bad = tmp_path / "bad.yaml"
    for text in ("mystery_key: 1\n", 'exclude: "vendor/*"\n', "minified_line_threshold: '900'\n",
                 "exclude: [a, 3]\n", "exclude: [a\n", "minified_line_threshold: 0\n",
                 "minified_line_threshold: -5\n", "encoding: nope\n", "encoding: rot13\n",
                 "encoding: base64\n", "encoding: hex\n", "encoding: zlib\n", 'encoding: "utf\\0"\n'):
        bad.write_text(text)
        with pytest.raises(ScanError):
            load_scan_config(bad)
    with pytest.raises(ScanError):
        load_scan_config(tmp_path / "missing.yaml")
    for name in ("latin-1", "utf-16", "cp1252"):
        cfg.write_text(f"encoding: {name}\n")
        assert load_scan_config(cfg).encoding == name

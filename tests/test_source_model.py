from __future__ import annotations

import ast
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import pytest

from slopscope.adapters import PythonAdapter, SourceText, TreeIndex
from slopscope.history import analyse_file, measure_checkpoint
from slopscope.model import CallableRecord, FileRecord, ScanError
from slopscope.rules import RuleSet, load_starter_rules
from slopscope.scan import ScanConfig, load_scan_config, read_tree

from conftest import FIXTURES, write_tree

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
        files = sorted((f for part in parts for f in part.files), key=lambda f: f.path)
        callables = sorted((c for part in parts for c in part.callables), key=lambda c: (c.file, c.span))
        assert (files, callables) == (list(whole.files), list(whole.callables))

    def test_directories_that_are_never_source_are_not_entered(self, tmp_path):
        hidden = (".git/h.py", ".hg/x.py", ".svn/y.py", "__pycache__/c.py", "pkg/__pycache__/d.py")
        write_tree(tmp_path, {"m.py": "x = 1\n", **dict.fromkeys(hidden, "y = [a for a in b]\n")})
        assert [path for path, _ in read_tree(tmp_path, ScanConfig())] == ["m.py"]
        inv = measure_checkpoint(tmp_path).inventory
        assert [f.path for f in inv.files] == ["m.py"] and inv.skipped == ()

    def test_a_stream_of_files_is_measured_as_its_directory(self):
        root, config, rules = FIXTURES / "golden_tree", ScanConfig(), load_starter_rules()
        assert measure_checkpoint(read_tree(root, config), config, rules) == measure_checkpoint(root, config, rules)

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
            FileRecord(path="a.py", loc=5, line_count=3)
        with pytest.raises(ValueError):
            FileRecord(path="../a.py", loc=1, line_count=1)
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

    bad = tmp_path / "bad.yaml"
    for text in ("mystery_key: 1\n", 'exclude: "vendor/*"\n', "minified_line_threshold: '900'\n",
                 "exclude: [a, 3]\n", "exclude: [a\n", "minified_line_threshold: 0\n",
                 "minified_line_threshold: -5\n", "encoding: nope\n", "encoding: rot13\n",
                 "encoding: base64\n", "encoding: hex\n", "encoding: zlib\n", 'encoding: "utf\\0"\n',
                 "encoding: utf-8\n", "encoding: latin-1\n"):
        bad.write_text(text)
        with pytest.raises(ScanError):
            load_scan_config(bad)
    with pytest.raises(ScanError):
        load_scan_config(tmp_path / "missing.yaml")


# CPython is the oracle for decoding: a file is skipped as ``decode`` or
# ``parse`` exactly when ``compile`` refuses its bytes. No file is skipped
# as minified here, so no skip can hide the answer. Where Python disagrees
# with itself, ``python file.py`` is the oracle (``SCRIPT_ORACLE``).
NEVER_MINIFIED = ScanConfig(minified_line_threshold=10**9)
ENCODED_SOURCE = """\
ys = [x for x in xs]
def greet(name):
    if name == True:
        return "caf\u00e9 " + name
    return "th\u00e9"
"""
BOM = b"\xef\xbb\xbf"
# Each case's bytes and the reason it is skipped (None: measured).
DECODING_CASES = {
    "bom": (BOM + ENCODED_SOURCE.encode(), None),
    "bom-utf8-cookie": (BOM + b"# coding: utf-8\n" + ENCODED_SOURCE.encode(), None),
    "latin1-cookie": (b"# -*- coding: latin-1 -*-\n" + ENCODED_SOURCE.encode("latin-1"), None),
    "cookie-after-shebang": (b"#!/usr/bin/env python\n# coding: latin-1\ns = '\xe9'\n", None),
    "vim-cp1252": (b"# vim: set fileencoding=cp1252 :\ns = '\x80'\n", None),
    "koi8-r": (b"# coding: koi8-r\ns = '\xc1\xc2'\n", None),
    "unknown-cookie": (b"# coding: nope\nx = 1\n", "decode"),
    "rot13-cookie": (b"# coding: rot13\nx = 1\n", "decode"),
    "undefined-cookie": (b"# coding: undefined\nx = 1\n", "decode"),
    "bom-latin1-cookie": (BOM + b"# coding: latin-1\nx = 1\n", "decode"),
    "invalid-under-cookie": (b"# coding: ascii\ns = '\xe9'\n", "decode"),
    "invalid-utf8": (b"x = 1\n\xff\n", "decode"),
    "cookie-on-line-three": (b"#!/usr/bin/env python\n\n# coding: latin-1\ns = '\xe9'\n", "decode"),
    "unparsable-latin1": (b"# coding: latin-1\ndef f(:\n    '\xe9'\n", "parse"),
    # The cookie is read from raw bytes, not from lines first decoded as UTF-8.
    "latin1-comment-before-cookie": (b"# \xe9\n# coding: latin-1\nx = 1\n", None),
    "latin1-byte-on-cookie-line": (b"# coding: latin-1 \xe9\nx = 1\n", None),
    # With no cookie every byte must be UTF-8, comments included: ``python
    # file.py`` refuses this file, while ``compile()`` and import accept it.
    "latin1-comment-without-cookie": (b"# \xe9\nx=1\n", "decode"),
    # A lone \r ends a line for the cookie search as it does for the parser.
    "cookie-on-line-three-after-lone-cr": (b'#hello\rx = 1\ry = "coding=latin-1"\rz = "\xe9"\r', "decode"),
    "cookie-after-shebang-lone-cr": (b"#!/usr/bin/env python\r# coding: latin-1\rs = '\xe9'\r", None),
}
SCRIPT_ORACLE = {"latin1-comment-without-cookie"}


def _compiles(data: bytes) -> bool:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # invalid escapes and the like
        try:
            compile(data, "<case>", "exec", dont_inherit=True)
        except (SyntaxError, ValueError):
            return False
    return True


def _runs_as_script(data: bytes, tmp_path: Path) -> bool:
    script = tmp_path / "case.py"
    script.write_bytes(data)
    run = subprocess.run([sys.executable, "-I", str(script)], capture_output=True, check=False, timeout=60)
    return run.returncode == 0


def _skip_reason(data: bytes) -> str | None:
    skipped = analyse_file("m.py", data, NEVER_MINIFIED, RuleSet(())).inventory.skipped
    return skipped[0][1] if skipped else None


@pytest.mark.parametrize("name", sorted(DECODING_CASES))
def test_decoding_follows_python(name, tmp_path):
    data, reason = DECODING_CASES[name]
    assert _skip_reason(data) == reason
    if name in SCRIPT_ORACLE:
        assert _compiles(data)  # the disagreement this case records
        assert (reason is None) == _runs_as_script(data, tmp_path)
    else:
        assert (reason is None) == _compiles(data)


def test_stdlib_files_with_a_bom_or_cookie_follow_python():
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    encoded = [data for path in sorted(stdlib.rglob("*.py")) if "site-packages" not in path.parts
               and ((data := path.read_bytes())[:200].startswith(BOM) or b"coding" in data[:200])]
    assert len(encoded) >= 10
    disagree = [data[:80] for data in encoded if (_skip_reason(data) in ("decode", "parse")) == _compiles(data)]
    assert disagree == []


def test_bom_and_cookie_files_measure_as_plain_utf8():
    rules = load_starter_rules()
    plain = analyse_file("m.py", ENCODED_SOURCE.encode(), NEVER_MINIFIED, rules)
    bom = analyse_file("m.py", BOM + ENCODED_SOURCE.encode(), NEVER_MINIFIED, rules)
    assert any(m.start == (1, 6) for m in plain.matches)  # the comprehension on line 1
    assert (bom.inventory, bom.matches) == (plain.inventory, plain.matches)

    plain = analyse_file("m.py", b"# -*- coding: utf-8 -*-\n" + ENCODED_SOURCE.encode(), NEVER_MINIFIED, rules)
    cookie = analyse_file("m.py", b"# -*- coding: latin-1 -*-\n" + ENCODED_SOURCE.encode("latin-1"),
                          NEVER_MINIFIED, rules)
    assert [c.qualified_name for c in cookie.inventory.callables] == ["greet"]
    assert (cookie.inventory, cookie.matches) == (plain.inventory, plain.matches)

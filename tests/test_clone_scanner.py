"""The compiled clone scanner against the ``tokenize`` loop it replaced.

``normalize_by_tokenize`` below is ``clones.normalize_file`` as it was while
it ran the interpreter's ``tokenize``, copied as it was. On Python 3.11 the
scanner must give an equal ``NormalizedFile`` on the bundled fixtures, this
package and its tests, the criterion-12 tree, every standard-library module
that compiles, generated sources that compile and hand-written edge cases.
From 3.12 on ``tokenize`` splits f-strings (PEP 701), so the oracle no
longer holds there; the cross-version test instead requires that
``clones.py``, loaded on its own, gives the same lines under every local
3.10-3.13 interpreter.
"""

from __future__ import annotations

import io
import json
import keyword
import os
import subprocess
import sys
import sysconfig
import time
import token
import tokenize
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import slopscope.clones
from slopscope.clones import NormalizedFile, detect_clones, normalize_file
from slopscope.scan import DEFAULT_MIN_WINDOW

from conftest import CORPORA, large_tree_files, normalized

needs_311_tokenize = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="tokenize splits f-strings from Python 3.12 on (PEP 701)"
)


def _normalize_token(tok: tokenize.TokenInfo) -> str | None:
    if tok.type == token.NAME:
        return tok.string if keyword.iskeyword(tok.string) else "ID"
    if tok.type == token.NUMBER:
        return "NUM"
    if tok.type == token.STRING:
        return "STR"
    if tok.type == token.OP:
        return tok.string
    return None


def normalize_by_tokenize(path: str, text: str) -> NormalizedFile:
    per_line: dict[int, list[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text, newline=None).readline):
            normalized = _normalize_token(tok)
            if normalized is not None:
                per_line.setdefault(tok.start[0], []).append(normalized)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    lines: list[str] = []
    physical: list[int] = []
    for lineno in sorted(per_line):
        lines.append(" ".join(per_line[lineno]))
        physical.append(lineno)
    return NormalizedFile(path, tuple(lines), tuple(physical))


def _compiles(source: str | bytes) -> bool:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # invalid escapes and the like
        try:
            compile(source, "<case>", "exec", dont_inherit=True)
        except (SyntaxError, ValueError):
            return False
    return True


def _read_source(path: Path) -> str:
    data = path.read_bytes()
    return data.decode(tokenize.detect_encoding(io.BytesIO(data).readline)[0])


def _disagreements(texts: dict[str, str]) -> list[str]:
    return [path for path, text in texts.items() if normalize_file(path, text) != normalize_by_tokenize(path, text)]


# Each case must compile; its name says what it exercises.
EDGE_CASES = {
    "string-prefixes": "".join(
        f"v = {prefix}'a' + {prefix}\"b\" + {prefix}'''c\nd''' + {prefix}\"\"\"e\"\"\"\n"
        for prefix in ("", "r", "R", "u", "U", "b", "B", "f", "F", "br", "Br", "bR", "RB", "rb", "rB",
                       "fr", "Fr", "fR", "FR", "rf", "rF", "Rf", "RF")
    ),
    "adjacent-strings": "x = 'a' \"b\" '''c''' r'\\d'\nw = b'e' B\"f\"\ny = ''\nz = \"\" + ''''''\n",
    "escaped-quotes": "a = 'it\\'s'\nb = \"say \\\"hi\\\"\"\nc = '''a\\''' b'''\nd = '\\\\'\ne = 1\n",
    "nested-f-strings": "x = f\"{a+b} and {c}\"\ny = f'{f\"{z!r:>{w}}\"}' + F'''{\n  q\n}'''\nz = rf'{a}\\d' + fr\"{b}\"\n",
    "f-string-braces": "x = f'{{literal}}' + f'{a:{b}.{c}}' + f'{d!s}'\n",
    "multi-line-strings": "a = '''one\ntwo\nthree''' + b\nc = d(\"\"\"x\n\"\"\", e)\nf = 1\n",
    "string-continuation": "s = 'abc\\\ndef' + t\nu = \"x\\\ny\\\nz\"\nv = 2\n",
    "backslash-continuation": "x = 1 + \\\n    2 + \\\n    3\nif a and \\\n   b:\n    pass\n",
    "crlf": "x = 1\r\ny = '''a\r\nb''' + 2\r\n\r\nz = 3\r\n",
    "lone-cr": "x = 1\ry = '''a\rb''' + 2\r\rz = 3\r",
    "mixed-breaks": "a = 1\rb = 2\r\nc = 3\nd = (4,\r5)\r\n",
    "form-feed": "\fx = 1\n\f\ndef f():\n\f    return 2\ny = 3 \f+ 4\n",
    "comments-and-blanks": "# lead\n\nx = 1  # trailing\n    # indented\n\n\ny = [\n  1,  # inside\n  2,\n]\n",
    "non-ascii-names": "caf\u00e9 = \u03bb\u03b1 + na\u00efve\nd\u00e9f = \u540d\u524d\n\u00c5ngstr\u00f6m = 1\n",
    "numbers": "a = 1_000j + 0x_1F + 0o17 + 0b1_0 + 1.5 + .5 + 1. + 1e-3 + 1_0.0_1e+1_0J + 0 + 00 + 2.5J\nb = 1if c else 2\n",
    "operators": (
        "x = ...\nif (n := 10) > 5: pass\ndef f(a) -> int: return a\nm @= n\nm = a @ b\n"
        "a **= 2; b //= 3; c >>= 1; d <<= 1; e != f; g <= h; i >= j; k ^= l; o |= p; q &= r; s %= t\n"
        "u = ~v; w = x[1:2, ::3]; y = {1: 2}; z = lambda *a, **k: (a, k)\n"
    ),
    "soft-keywords": (
        "match = case = _ = type = 1\nmatch command:\n    case [x, *_]:\n        pass\n"
        "    case {'k': v} if v:\n        pass\n    case _:\n        pass\n"
    ),
    "hard-keywords": (
        "async def f():\n    await g()\n    async for x in y:\n        yield x\n"
        "def h():\n"
        "    nonlocal_ = None\n    global z\n    del z\n    assert True, False\n"
        "    with a as b:\n        raise c from d\n    try:\n        pass\n    except E:\n        pass\n"
        "    finally:\n        return not x is y or x in y and (lambda: 0)\n"
    ),
    "decorators-and-classes": "@dec(1)\n@other.attr\nclass C(Base, metaclass=M):\n    x: int = 0\n    def m(self, /, a, *, b=2): ...\n",
    "no-final-newline": "x = 1\ny = 2",
    "empty": "",
    "only-comments": "# a\n# b\n\n",
}


@needs_311_tokenize
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_tokenize(name):
    text = EDGE_CASES[name]
    assert _compiles(text), name
    assert normalize_file(name, text) == normalize_by_tokenize(name, text)


def test_edge_case_conventions():
    # An f-string is one STR, a soft keyword is a name, a hard one stays.
    assert normalize_file("a.py", 'x = f"{a+b} and {c}"\n').lines == ("ID = STR",)
    soft = normalize_file("a.py", EDGE_CASES["soft-keywords"])
    assert soft.lines[:2] == ("ID = ID = ID = ID = NUM", "ID ID :")
    # Tokens after a multi-line string count on its last line, the string on its first.
    multi = normalize_file("a.py", EDGE_CASES["multi-line-strings"])
    assert multi.lines == ("ID = STR", "+ ID", "ID = ID ( STR", ", ID )", "ID = NUM")
    assert multi.physical == (1, 3, 4, 5, 6)
    # CR LF, lone CR and LF each end one line.
    for name in ("crlf", "lone-cr"):
        nf = normalize_file("a.py", EDGE_CASES[name])
        assert nf.lines == ("ID = NUM", "ID = STR", "+ NUM", "ID = NUM") and nf.physical == (1, 2, 3, 5)


@needs_311_tokenize
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_corpora_match_tokenize(corpus):
    assert _disagreements({str(path): _read_source(path) for path in CORPORA[corpus]}) == []


@needs_311_tokenize
def test_criterion_12_tree_matches_tokenize():
    assert _disagreements(large_tree_files()) == []


@needs_311_tokenize
def test_every_compiling_stdlib_module_matches_tokenize():
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    texts = {}
    for path in sorted(stdlib.rglob("*.py")):
        if "site-packages" in path.parts:
            continue
        data = path.read_bytes()
        if _compiles(data):
            texts[str(path.relative_to(stdlib))] = _read_source(path)
    assert len(texts) >= 500
    assert _disagreements(texts) == []


_NAMES = ["x", "y1", "_", "self", "match", "case", "type", "caf\u00e9", "\u03bb", "print", "None", "True"]
_NUMBERS = ["0", "7", "1_000", "0x_1F", "0o17", "0b1_0", "1.5", ".5", "1.", "1e-3", "1_000j", "2.5J", "1E+5j"]
_STRING_BODIES = ["", "a", "it\\'s", 'say \\"x\\"', "\\\\", "{{}}", "#not a comment", "caf\u00e9"]
_BINARY_OPERATORS = ["+", "-", "*", "/", "//", "%", "**", "@", "<<", ">>", "&", "|", "^", "==", "!=", "<", "<=",
                     ">", ">=", "and", "or", "in", "not in", "is", "is not"]
_AUGMENTED = ["=", "+=", "-=", "*=", "/=", "//=", "%=", "**=", "@=", "<<=", ">>=", "&=", "|=", "^="]
_GAPS = [" ", "  ", "", " \f", " \\\n", " \\\r\n", "\t"]  # between two tokens of one logical line
_BREAKS = ["\n", "\r\n", "\r", "\n\n", "\n# note\n", "  # note\n", "\n\f\n", "\r\n\r\n"]


def _string(prefix: str, quote: str, body: str) -> str:
    return f"{prefix}{quote}{body}{quote}"


_strings = st.builds(
    _string,
    st.sampled_from(["", "r", "b", "u", "f", "rb", "Br", "F", "fR"]),
    st.sampled_from(["'", '"', "'''", '"""']),
    st.sampled_from(_STRING_BODIES),
)
_multi_line_strings = st.builds(
    lambda quote, first, second, newline: f"{quote}{first}{newline}{second}{quote}",
    st.sampled_from(["'''", '"""']),
    st.sampled_from(_STRING_BODIES),
    st.sampled_from(_STRING_BODIES),
    st.sampled_from(["\n", "\r\n", "\r", "\\\n"]),
)
_atoms = st.one_of(st.sampled_from(_NAMES), st.sampled_from(_NUMBERS), _strings, _multi_line_strings,
                   st.just("..."))


def _extend(inner):
    gap = st.sampled_from(_GAPS)
    return st.one_of(
        st.builds(lambda a, g, op, h, b: f"{a}{g}{op}{h or ' '}{b}", inner, gap, st.sampled_from(_BINARY_OPERATORS),
                  gap, inner),
        st.builds(lambda e, g: f"({g}{e}{g})", inner, st.sampled_from(["", "\n", "\r\n ", " "])),
        st.builds(lambda es: "[" + ",\n ".join(es) + "]", st.lists(inner, max_size=3)),
        st.builds(lambda a, b: f"{a}[{b}]", st.sampled_from(_NAMES), inner),
        st.builds(lambda e: f"f'{{{e}}}'", inner),
        st.builds(lambda e: f"(lambda a: {e})", inner),
        st.builds(lambda e: f"(n := {e})", inner),
        st.builds(lambda e: f"-{e}", inner),
    )


_expressions = st.recursive(_atoms, _extend, max_leaves=8)
_statements = st.one_of(
    st.builds(lambda n, op, e: f"{n} {op} {e}", st.sampled_from(["x", "y1", "case", "caf\u00e9"]),
              st.sampled_from(_AUGMENTED), _expressions),
    _expressions,
    st.builds(lambda e: f"if {e}:\n    pass", _expressions),
    st.builds(lambda e: f"def f(a) -> {e}:\n    return a", _expressions),
    st.builds(lambda e: f"class C:\n    x: int = {e}", _expressions),
    st.builds(lambda e: f"match x:\n    case 1 | 2:\n        y = {e}\n    case _:\n        pass", _expressions),
    st.builds(lambda e: f"async def g():\n    await {e}", _expressions),
)
_sources = st.builds(
    lambda parts: "".join(stmt + brk for stmt, brk in parts),
    st.lists(st.tuples(_statements, st.sampled_from(_BREAKS)), min_size=1, max_size=6),
)


@needs_311_tokenize
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_sources)
def test_generated_sources_match_tokenize(source):
    assume(_compiles(source))
    assert normalize_file("g.py", source) == normalize_by_tokenize("g.py", source)


def _interpreters() -> list[Path]:
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    return sorted(path for path in versions.glob("3.1[0-3]*/bin/python3") if path.is_file())


# Loads clones.py by path, as a module of its own, and normalizes each
# source read from stdin as JSON.
_CHILD = """\
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("clones", sys.argv[1])
clones = importlib.util.module_from_spec(spec)
sys.modules["clones"] = clones
spec.loader.exec_module(clones)
sources = json.load(sys.stdin)
normalized = (clones.normalize_file("x.py", source) for source in sources)
json.dump([[list(nf.lines), list(nf.physical)] for nf in normalized], sys.stdout)
"""


def test_same_lines_on_every_local_python():
    interpreters = _interpreters()
    if not interpreters:
        pytest.skip("no Python 3.10-3.13 interpreters under the pyenv root")
    sources = [*EDGE_CASES.values(), 'x = f"{a+b} and {c}"\n', 'y = f"{x["k"]!r}"\n']
    sources += [path.read_text(encoding="utf-8") for path in CORPORA["slopscope"]]
    expected = [[list(nf.lines), list(nf.physical)] for nf in (normalize_file("x.py", s) for s in sources)]
    assert expected[len(EDGE_CASES)] == [["ID = STR"], [1]]
    for python in interpreters:
        proc = subprocess.run(
            [str(python), "-I", "-c", _CHILD, slopscope.clones.__file__],
            input=json.dumps(sources), capture_output=True, text=True, check=False, timeout=120,
        )
        assert proc.returncode == 0, f"{python}: {proc.stderr}"
        assert json.loads(proc.stdout) == expected, python


@pytest.mark.parametrize(
    "text",
    [
        "'''" + "x = 1\n" * 350_000,  # an unterminated triple quote opening 2 MB
        "'" * 10_000 + "\ny = 2\n",
        "'\\" * 10_000 + "\ny = 2\n",
        '"""\\' * 10_000,
        "x = $ ? ` !\ny = \\ 1\nz = 'open\nw = \\",
    ],
    ids=["unterminated-triple-2mb", "ten-thousand-quotes", "escaped-quotes-line", "backslash-triples", "stray"],
)
def test_text_that_does_not_tokenize_is_scanned_in_one_pass(text):
    started = time.monotonic()
    files = normalized({"a.py": text, "b.py": text})
    regions = detect_clones(files, DEFAULT_MIN_WINDOW)
    assert time.monotonic() - started < 5.0
    assert all(isinstance(line, str) for line in files[0].lines)
    assert list(files[0].physical) == sorted(set(files[0].physical))
    assert all(region.file in ("a.py", "b.py") for region in regions)

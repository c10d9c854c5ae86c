from __future__ import annotations

import os
import subprocess
import sysconfig
import textwrap
from pathlib import Path

import pytest

import slopscope
from slopscope.clones import CloneRegion, NormalizedFile, normalize_file

FIXTURES = Path(__file__).parent / "fixtures"


def _stdlib_sample() -> list[Path]:
    """Every third top-level module of the running interpreter's library, 60 at most."""
    modules = sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py"))
    return modules[::3][:60]


TESTS = Path(__file__).parent
# Python files that the oracle tests run the indexed and one-walk paths on.
CORPORA = {
    "cc_corpus": sorted((FIXTURES / "cc_corpus").rglob("*.py")),
    "golden_tree": sorted((FIXTURES / "golden_tree").rglob("*.py")),
    "slopscope": sorted(Path(slopscope.__file__).parent.rglob("*.py")),
    "tests": sorted(p for p in TESTS.rglob("*.py") if "fixtures" not in p.parts),
    "stdlib": _stdlib_sample(),
}

MAIN_V1 = """\
def run(a):
    return a + 1
"""

MAIN_V2 = """\
def run(a):
    return a + 1


def choose(a, b):
    if a:
        return a
    return b
"""

UTIL_V1 = """\
def scale(values, factor):
    out = []
    for v in values:
        out.append(v * factor)
    return out
"""

UTIL_V2 = UTIL_V1 + """\


def clamp(v, lo, hi):
    if v < lo:
        return lo
    if v > hi:
        return hi
    return v
"""

_HANDLER_OPS = ["+", "-", "*", "/", "//", "%", "**", "&", "|", "^", ">>", "<<", "+", "-"]


def handler_source(name: str, var: str) -> str:
    lines = [f"def {name}(code, {var}):"]
    for i, op in enumerate(_HANDLER_OPS, start=1):
        lines.append(f"    if code == {i}:")
        lines.append(f"        {var} = {var} {op} {i}")
    lines.append(f"    return {var}")
    return "\n".join(lines) + "\n"


SLOP = handler_source("handle_alpha", "x") + "\n\n" + handler_source("handle_beta", "y")

# A parenthesised sum of 1,200 terms, one per line: the parser accepts it,
# but a walk that recurses once per nesting level exhausts the stack.
DEEP_SUM = "x = (\n" + "1 +\n" * 1199 + "1\n)\n"

# An if/elif chain of 10,001 branches, one per line: nested too deeply for
# the parser, which refuses it with MemoryError on Python 3.10 to 3.13.
TOO_DEEP = "if a: pass\n" + "elif a: pass\n" * 10_000


def padded_module(size: int) -> str:
    """A module of exactly ``size`` ASCII bytes (at least 6): one
    assignment, then comment lines of up to 64 bytes. The parser skips
    comments, so even a module at the size cap is measured quickly."""
    head = "x = 1\n"
    comments = ("#" + "-" * 62 + "\n") * ((size - len(head)) // 64)
    rest = size - len(head) - len(comments)
    return head + comments + ("#" * (rest - 1) + "\n" if rest else "")


def elif_chain(branches: int) -> str:
    """An if/elif statement of ``branches`` branches, two lines each."""
    return "if a:\n    pass\n" + "elif a:\n    pass\n" * (branches - 1)


def deepest_elif_chain() -> int:
    """The most branches an ``elif_chain`` pattern may have and compile."""
    from slopscope.patterns import compile_pattern

    branches = 1
    while True:
        try:
            compile_pattern(elif_chain(branches + 1))
        except RecursionError:
            return branches
        branches += 1


# Rules nested too deeply to compile, as (kind, pattern): the parser
# refuses the first with MemoryError, ``re.compile`` the second with
# RecursionError, and the third parses but its match plans are too deep.
TOO_DEEP_RULES = {
    "parser": ("pattern", TOO_DEEP),
    "regex": ("regex", "(" * 2000 + "a" + ")" * 2000),
    "plans": ("pattern", elif_chain(400)),
}

# (files after the commit, committer date)
HISTORY_COMMITS = [
    ({"main.py": MAIN_V1}, "2023-05-10T10:00:00+00:00"),
    ({"main.py": MAIN_V2}, "2023-08-15T10:00:00+00:00"),
    ({"main.py": MAIN_V2, "util.py": UTIL_V1}, "2023-11-20T10:00:00+00:00"),
    ({"main.py": MAIN_V2, "util.py": UTIL_V2}, "2024-02-25T10:00:00+00:00"),
    ({"main.py": MAIN_V2, "util.py": UTIL_V2, "slop.py": SLOP}, "2024-06-30T10:00:00+00:00"),
]


@pytest.fixture(scope="session", autouse=True)
def _no_user_git_config():
    """Run every git process as if no system or user git config existed, so
    that a developer's ``commit.gpgsign`` or ``log.showRoot`` changes no
    fixture and no listing. A repository's own config still applies."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("GIT_CONFIG_NOSYSTEM", "1")
        patch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
        yield


def _git(repo: Path, *args: str, env: dict | None = None) -> None:
    subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, env=env)


def build_history_repo(dest: Path, commits=None) -> Path:
    """A deterministic git repository with the crafted commit sequence."""
    dest.mkdir(parents=True, exist_ok=True)
    _git(dest, "init", "-q", "-b", "main")
    _git(dest, "config", "user.email", "fixtures@example.com")
    _git(dest, "config", "user.name", "Fixture Builder")
    for i, (files, when) in enumerate(commits or HISTORY_COMMITS):
        for existing in dest.rglob("*.py"):
            existing.unlink()
        for name, text in files.items():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_text(text, encoding="utf-8")
        _git(dest, "add", "-A")
        env = dict(os.environ, GIT_AUTHOR_DATE=when, GIT_COMMITTER_DATE=when)
        _git(dest, "commit", "-q", "-m", f"checkpoint {i + 1}", env=env)
    return dest


def drop_blob(repo: Path, revision: str) -> str:
    """Delete the loose object of a blob or tree (``<commit>:<path>``) from
    a repository; return its id."""
    blob = subprocess.run(["git", "-C", str(repo), "rev-parse", revision],
                          capture_output=True, text=True, check=True).stdout.strip()
    (repo / ".git" / "objects" / blob[:2] / blob[2:]).unlink()
    return blob


@pytest.fixture(scope="session")
def history_repo(tmp_path_factory) -> Path:
    return build_history_repo(tmp_path_factory.mktemp("histrepo"))


@pytest.fixture(scope="session")
def cc_corpus() -> Path:
    return FIXTURES / "cc_corpus"


def large_tree_files() -> dict[str, str]:
    """The criterion-11 and -12 tree: ~105k source lines, 250 files of 105
    four-line functions each."""
    chunk = "".join(
        f"def fn_{{fi}}_{i}(a, b):\n"
        f"    if a > {i}:\n"
        f"        return a + b\n"
        f"    return a - b\n\n" for i in range(105)
    )
    return {f"mod_{fi:03d}.py": chunk.format(fi=fi) for fi in range(250)}


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def normalized(texts: dict[str, str]) -> list[NormalizedFile]:
    """Each path's text as ``detect_clones`` takes it: normalized, as a scan
    normalizes every file it measures."""
    return [normalize_file(path, text) for path, text in texts.items()]


def covered_lines(regions: list[CloneRegion]) -> set[tuple[str, int]]:
    """Every (file, physical line) that any clone region covers."""
    return {(region.file, line) for region in regions for line in region.lines}


def all_source(line_count: int) -> tuple[int, frozenset[int]]:
    """A file of ``line_count`` lines that are all source lines, as
    ``verbosity_score`` takes each measured file."""
    return line_count, frozenset(range(1, line_count + 1))

"""What a command loads: each command imports only the modules it runs, the
package resolves its public names on first use, and the bundled rules ship
with the package."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import slopscope

from conftest import FIXTURES, HISTORY_COMMITS, SLOP, build_history_repo

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slopscope"

# Runs the CLI with the given arguments in this process, then prints the
# names of every loaded module as the last line of stdout.
PROBE = """
import json, sys
from slopscope.cli import main
code = main(sys.argv[1:])
print()
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def run_child(code: str, *args: str) -> dict:
    """The JSON object that ``python -c code args`` prints on its last line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("SLOPSCOPE_RULES", None)
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def loaded_modules(*args: str) -> set[str]:
    """Every module loaded by ``slopscope args`` run in a fresh interpreter."""
    result = run_child(PROBE, *args)
    assert result["code"] == 0
    return set(result["modules"])


def test_rules_list_loads_no_parser_process_or_report_module():
    modules = loaded_modules("rules", "list")
    # Patterns are parsed through ``_ast``; ``slopscope.adapters`` holds
    # what only matching a file needs.
    unused = {"yaml", "subprocess", "ast", "slopscope.adapters", "slopscope.history", "slopscope.report",
              "slopscope.panel", "slopscope.trajectory", "slopscope.erosion"}
    assert modules & unused == set()


def test_rules_list_loads_exactly_the_modules_it_runs():
    """A module added to start-up is paid for by every command."""
    loaded = {name for name in loaded_modules("rules", "list") if name.split(".")[0] == "slopscope"}
    assert loaded == {"slopscope", "slopscope.cli", "slopscope.rules", "slopscope.patterns", "slopscope.scan"}


def test_scan_and_history_load_neither_ast_nor_datetime(tmp_path, history_repo):
    """Both parse through ``_ast`` and take their dates and times from
    ``_datetime``: the Python layers of the two are never run."""
    tree = str(FIXTURES / "golden_tree")
    runs = {
        "scan": loaded_modules("scan", tree, "--out", str(tmp_path / "r.json")),
        "scan-csv": loaded_modules("scan", tree, "--format", "csv", "--out", str(tmp_path / "r.csv")),
        "history": loaded_modules("history", str(history_repo), "--cutoff-date", "2024-01-01",
                                  "--out", str(tmp_path / "h.json")),
    }
    assert {name: modules & {"ast", "datetime"} for name, modules in runs.items()} == {name: set() for name in runs}
    assert all({"_ast", "_datetime"} <= modules for modules in runs.values())


def test_scan_loads_no_parser_process_or_panel(tmp_path):
    modules = loaded_modules("scan", str(FIXTURES / "golden_tree"), "--out", str(tmp_path / "r.json"))
    assert "slopscope.history" in modules
    assert modules & {"yaml", "subprocess", "slopscope.panel"} == set()


def test_only_history_loads_the_git_layer_and_no_command_loads_subprocess(tmp_path, history_repo):
    """``history`` starts git through ``os.posix_spawnp``: ``subprocess``
    would load ``selectors`` and ``signal``."""
    tree = str(FIXTURES / "golden_tree")
    scans = [loaded_modules("scan", tree, "--out", str(tmp_path / "r.json")),
             loaded_modules("scan", tree, "--format", "csv", "--out", str(tmp_path / "r.csv"))]
    assert [modules & {"slopscope.git", "subprocess"} for modules in scans] == [set(), set()]
    history = loaded_modules("history", str(history_repo), "--out", str(tmp_path / "h.json"))
    assert "slopscope.git" in history
    assert history & {"subprocess", "selectors", "signal"} == set()


def test_scan_with_a_yaml_config_loads_the_parser(tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text("exclude: [nothing]\n")
    modules = loaded_modules("scan", str(FIXTURES / "golden_tree"), "--config", str(config),
                             "--out", str(tmp_path / "r.json"))
    assert "yaml" in modules


@pytest.mark.parametrize("command", [["rules", "list"], ["scan", str(FIXTURES / "golden_tree")]])
def test_commands_build_records_without_dataclasses(command, tmp_path):
    out = ["--out", str(tmp_path / "r.json")] if command[0] == "scan" else []
    assert loaded_modules(*command, *out) & {"dataclasses", "inspect"} == set()


def test_rules_list_loads_no_clone_detector_or_hash():
    assert loaded_modules("rules", "list") & {"hashlib", "_hashlib", "slopscope.clones"} == set()


def test_rules_list_loads_no_datetime():
    assert loaded_modules("rules", "list") & {"datetime", "_datetime"} == set()


def test_scan_loads_no_statistics_or_csv(tmp_path):
    modules = loaded_modules("scan", str(FIXTURES / "golden_tree"), "--out", str(tmp_path / "r.json"))
    assert modules & {"statistics", "fractions", "decimal", "csv", "_csv"} == set()


def test_csv_and_history_import_what_they_use(tmp_path, history_repo):
    scan = loaded_modules("scan", str(FIXTURES / "golden_tree"), "--format", "csv", "--out", str(tmp_path / "r.csv"))
    assert "csv" in scan
    assert (tmp_path / "r.csv").read_text().startswith("file,loc,")
    history = loaded_modules("history", str(history_repo), "--format", "csv", "--out", str(tmp_path / "h.csv"))
    assert "csv" in history and "statistics" not in history
    assert len((tmp_path / "h.csv").read_text().splitlines()) == 6  # the header and 5 checkpoints


# Modules that ``import hashlib`` loads: the OpenSSL binding and BLAKE2.
HASHLIB = {"hashlib", "_hashlib", "_blake2"}


def test_scan_and_history_hash_without_hashlib(tmp_path, history_repo):
    """The config digest and clone fingerprints come from CPython's built-in
    SHA modules, so no command that writes them maps OpenSSL."""
    tree = str(FIXTURES / "golden_tree")
    runs = {
        "scan": loaded_modules("scan", tree, "--out", str(tmp_path / "r.json")),
        "scan-csv": loaded_modules("scan", tree, "--format", "csv", "--out", str(tmp_path / "r.csv")),
        "history": loaded_modules("history", str(history_repo), "--out", str(tmp_path / "h.json")),
    }
    assert {name: modules & HASHLIB for name, modules in runs.items()} == {name: set() for name in runs}
    assert "slopscope.clones" in runs["scan"]


def test_history_takes_its_era_medians_without_statistics(tmp_path):
    """An eligible era split (three checkpoints on each side of the cutoff)
    takes four medians, none of them from ``statistics``, which would load
    ``decimal`` and ``fractions``."""
    last = {**HISTORY_COMMITS[-1][0], "slop.py": SLOP + "\n\ndef more():\n    return 1\n"}
    repo = build_history_repo(tmp_path / "repo", [*HISTORY_COMMITS, (last, "2024-09-01T10:00:00+00:00")])
    out = tmp_path / "h.json"
    modules = loaded_modules("history", str(repo), "--cutoff-date", "2023-12-01", "--out", str(out))
    assert json.loads(out.read_text())["payload"]["era"]["eligible"] is True
    assert modules & {"statistics", "decimal", "_decimal", "fractions"} == set()


# Runs PROBE with CPython's built-in SHA modules hidden, as on a Python built
# without them: importing any of them raises ImportError.
NO_BUILTIN_SHA = 'import sys\nsys.modules["_sha1"] = sys.modules["_sha2"] = sys.modules["_sha256"] = None\n' + PROBE


def test_without_builtin_sha_modules_the_digests_come_from_hashlib(tmp_path, history_repo):
    scan = run_child(NO_BUILTIN_SHA, "scan", str(FIXTURES / "golden_tree"), "--deterministic", "--sweep",
                     "--out", str(tmp_path / "r.json"))
    assert scan["code"] == 0 and "hashlib" in scan["modules"]
    assert (tmp_path / "r.json").read_bytes() == (FIXTURES / "golden_scan.json").read_bytes()

    history = ["history", str(history_repo), "--deterministic", "--out"]
    assert run_child(NO_BUILTIN_SHA, *history, str(tmp_path / "fallback.json"))["code"] == 0
    assert run_child(PROBE, *history, str(tmp_path / "builtin.json"))["code"] == 0
    assert (tmp_path / "fallback.json").read_bytes() == (tmp_path / "builtin.json").read_bytes()


# Hides the C module of ``datetime``, as on a Python built without it:
# ``datetime`` then defines the classes itself.
NO_C_DATETIME = 'import sys\nsys.modules["_datetime"] = None\n'
SAME_CLASSES = """
import datetime, json
from slopscope import trajectory
print(json.dumps([trajectory.date is datetime.date, trajectory.datetime is datetime.datetime,
                  trajectory.timezone is datetime.timezone]))
"""


def test_without_the_c_datetime_module_history_writes_the_same_report(tmp_path, history_repo):
    history = ["history", str(history_repo), "--deterministic", "--cutoff-date", "2024-01-01", "--out"]
    fallback = run_child(NO_C_DATETIME + PROBE, *history, str(tmp_path / "fallback.json"))
    assert fallback["code"] == 0 and "datetime" in fallback["modules"]
    assert run_child(PROBE, *history, str(tmp_path / "builtin.json"))["code"] == 0
    assert (tmp_path / "fallback.json").read_bytes() == (tmp_path / "builtin.json").read_bytes()
    assert run_child(SAME_CLASSES) == run_child(NO_C_DATETIME + SAME_CLASSES) == [True, True, True]


def test_no_module_imports_dataclasses():
    """Defining a dataclass generates and compiles its methods at import,
    and ``dataclasses`` loads ``inspect``; records are NamedTuples."""
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert offenders == []


def test_commands_leave_no_thread_running_and_no_file_open(history_repo):
    """``cli.run`` ends the process without interpreter teardown, which would
    join a thread left running and flush a file left open: so no command may
    leave either behind."""
    result = run_child(
        "import io, json, os, sys, threading\n"
        "from slopscope.cli import main\n"
        "def fds():\n"
        "    return len(os.listdir('/proc/self/fd')) if os.path.isdir('/proc/self/fd') else None\n"
        "before = fds()\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "codes = [main(['scan', sys.argv[1]]), main(['history', sys.argv[2]]), main(['rules', 'list'])]\n"
        "sys.stdout = out\n"
        "print(json.dumps({'codes': codes, 'threads': threading.active_count(), 'fds': [before, fds()]}))\n",
        str(FIXTURES / "golden_tree"), str(history_repo),
    )
    assert result["codes"] == [0, 0, 0]
    assert result["threads"] == 1
    before, after = result["fds"]
    if before is None:
        pytest.skip("no /proc/self/fd to count open files")
    assert after == before


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["slopscope"]
    module, _, name = target.partition(":")
    assert getattr(import_module(module), name) is import_module("slopscope.cli").run


def test_cli_resolves_the_functions_it_runs_on_first_use():
    result = run_child(
        "import json, sys\n"
        "import slopscope.cli as cli\n"
        "before = 'slopscope.history' in sys.modules\n"
        "import slopscope.history as history, slopscope.report as report\n"
        "same = [cli.measure_history is history.measure_history,\n"
        "        cli.measure_checkpoint is history.measure_checkpoint,\n"
        "        cli.canonical_json is report.canonical_json]\n"
        "print(json.dumps({'before': before, 'same': same}))\n"
    )
    assert result == {"before": False, "same": [True, True, True]}


def test_cli_refuses_an_unknown_name():
    import slopscope.cli as cli

    with pytest.raises(AttributeError):
        cli.no_such_function  # noqa: B018


class TestLazyPackage:
    @pytest.mark.parametrize("name", slopscope.__all__)
    def test_each_name_is_its_home_modules_object(self, name):
        value = getattr(slopscope, name)
        assert value.__module__.startswith("slopscope.")
        assert value is getattr(sys.modules[value.__module__], name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from slopscope import *", namespace)
        assert set(slopscope.__all__) <= set(namespace)

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError):
            slopscope.no_such_name  # noqa: B018
        assert not hasattr(slopscope, "no_such_name")


def test_every_data_file_is_package_data():
    """An installed package holds only what a package-data glob names: a
    data file no glob matches would be left out of the wheel."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["slopscope"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    data = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert data and data <= shipped

"""What a command loads: each command imports only the modules it runs, the
package resolves its public names on first use, and the bundled rules ship
with the package."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slopscope

from conftest import FIXTURES

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
    unused = {"yaml", "subprocess", "slopscope.history", "slopscope.report", "slopscope.panel",
              "slopscope.trajectory", "slopscope.erosion"}
    assert modules & unused == set()


def test_scan_loads_no_parser_process_or_panel(tmp_path):
    modules = loaded_modules("scan", str(FIXTURES / "golden_tree"), "--out", str(tmp_path / "r.json"))
    assert "slopscope.history" in modules
    assert modules & {"yaml", "subprocess", "slopscope.panel"} == set()


def test_scan_with_a_yaml_config_loads_the_parser(tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text("exclude: [nothing]\n")
    modules = loaded_modules("scan", str(FIXTURES / "golden_tree"), "--config", str(config),
                             "--out", str(tmp_path / "r.json"))
    assert "yaml" in modules


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

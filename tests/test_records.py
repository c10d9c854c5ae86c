"""Record semantics: equality, defaults and the config digest.

Records are ``typing.NamedTuple`` classes; these tests hold the behaviour
the package relies on: a match's identity leaves out its captures, a rule
set iterates its rules, an input file's absent keys take the class
defaults, and the config digest built from the records' fields keeps its
value.
"""

from __future__ import annotations

import json

import pytest

from slopscope.cli import main
from slopscope.history import DEFAULT_MAX_COMMITS
from slopscope.model import read_record
from slopscope.panel import RepoSpec, load_panel_config
from slopscope.rules import QualityRule, RuleMatch, load_rules, load_starter_rules
from slopscope.scan import ScanConfig, load_scan_config

from conftest import FIXTURES


def match(captures=None, **changes) -> RuleMatch:
    fields = {"rule_id": "r", "file": "m.py", "start": (1, 1), "end": (1, 9), "lines": (1,), **changes}
    return RuleMatch(**fields) if captures is None else RuleMatch(**fields, captures=captures)


class TestRuleMatch:
    def test_matches_that_differ_only_in_captures_are_equal_and_hash_alike(self):
        a, b = match({"X": "a"}), match({"X": "b"})
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("change", [{"rule_id": "s"}, {"file": "n.py"}, {"start": (1, 2)},
                                        {"end": (1, 8)}, {"lines": (1, 2)}])
    def test_matches_that_differ_elsewhere_are_unequal(self, change):
        assert match({"X": "a"}) != match({"X": "a"}, **change)
        assert not match({"X": "a"}) == match({"X": "a"}, **change)

    def test_absent_captures_are_empty_and_read_only(self):
        m = match()
        assert dict(m.captures) == {}
        with pytest.raises(TypeError):
            m.captures["X"] = "x"  # type: ignore[index]


class TestRuleSet:
    def test_len_and_iteration_give_the_rules_in_file_order(self):
        rules = load_starter_rules()
        assert len(rules) == len(rules.rules) > 0
        assert list(rules) == list(rules.rules)
        assert all(isinstance(rule, QualityRule) for rule in rules)

    def test_subset_keeps_file_order_and_compiled_forms(self):
        rules = load_starter_rules()
        ids = [rule.id for rule in rules]
        kept = rules.subset({ids[3], ids[0]})
        assert [rule.id for rule in kept] == [ids[0], ids[3]]
        assert all(kept.compiled(rule) is rules.compiled(rule) for rule in kept)
        assert len(rules.subset({"no-such-rule"})) == 0


class TestDefaults:
    def test_scan_config_takes_every_absent_key_from_the_class(self, tmp_path):
        path = tmp_path / "scan.json"
        path.write_text("{}")
        assert load_scan_config(path) == ScanConfig() == ScanConfig((), 500)
        path.write_text('{"exclude": ["a/*"]}')
        assert load_scan_config(path) == ScanConfig(exclude=("a/*",), minified_line_threshold=500)

    def test_quality_rule_takes_every_absent_key_from_the_class(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('[{"id": "r", "pattern": "$X == $X"}]')
        (rule,) = load_rules(path)
        assert rule == QualityRule("r", "$X == $X", "pattern", "", "", ())

    def test_a_required_key_has_no_default(self):
        with pytest.raises(ValueError, match=r"missing keys \['pattern'\]"):
            read_record(QualityRule, {"id": "r"}, {"id": str, "pattern": str}, "entry 0", ValueError)

    def test_repo_spec_takes_every_absent_key_from_the_class(self, tmp_path):
        path = tmp_path / "panel.json"
        path.write_text('[{"repo_path": "some/repo"}, {"repo_path": "other", "repo_id": "named", "seed": 4}]')
        bare, named = load_panel_config(path)
        assert bare == RepoSpec("some/repo", "some/repo", 0, DEFAULT_MAX_COMMITS, 0)
        assert named == RepoSpec("other", "named", 0, DEFAULT_MAX_COMMITS, 4)

    def test_repo_spec_without_an_id_is_named_by_its_path(self):
        assert RepoSpec("p").repo_id == "p"
        assert RepoSpec(repo_path="p", stars=3).repo_id == "p"
        assert RepoSpec("p", "q").repo_id == "q"


def report_digest(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)["config_digest"]


class TestPinnedDigests:
    """The digest hashes the scan config and every rule as a mapping of
    field name to value; a record whose fields came out in another form
    would change it without changing any payload byte."""

    def test_scan_digest(self, capsys, monkeypatch):
        monkeypatch.delenv("SLOPSCOPE_RULES", raising=False)
        digest = report_digest(capsys, "scan", str(FIXTURES / "golden_tree"), "--deterministic")
        assert digest == "375e3c582e19c4c4d4d03839e11e1b3a80f02f0e9e5a731093b5ffd9632aad1e"

    def test_panel_digest(self, capsys, monkeypatch, tmp_path, history_repo):
        monkeypatch.delenv("SLOPSCOPE_RULES", raising=False)
        panel = tmp_path / "panel.json"
        panel.write_text(json.dumps([
            {"repo_path": str(history_repo), "repo_id": "alpha", "stars": 50},
            {"repo_path": str(history_repo), "repo_id": "beta", "stars": 5000},
        ]))
        digest = report_digest(capsys, "panel", str(panel), "--deterministic")
        assert digest == "7f8d5c380d825eeea08f7c71677daa6d1811f8e4627d85734ce763927dea4702"

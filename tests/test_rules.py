from __future__ import annotations

import ast
import re

import pytest

from slopscope.adapters import SourceText
from slopscope.patterns import PatternError, TreeIndex, compile_pattern, find_matches
from slopscope.rules import (
    STARTER_RULES,
    RuleError,
    load_rules,
    load_starter_rules,
    match_rules,
)


def matches_of(pattern: str, source: str):
    return find_matches(compile_pattern(pattern), TreeIndex.from_tree(ast.parse(source)), SourceText.from_text(source))


class TestMetavariables:
    def test_repeated_name_must_match_same_text(self):
        found = matches_of("$X == $X", "p = a == a\nq = a == b\n")
        assert [start for start, _, _ in found] == [(1, 5)]

    def test_metavariable_binds_whole_expression(self):
        found = matches_of("len($X) == 0", "if len(items[3].children) == 0:\n    pass\n")
        assert found[0][2] == {"X": "items[3].children"}

    def test_identity_comprehension(self):
        assert matches_of("[$X for $X in $IT]", "ys = [x for x in xs]\n")
        assert not matches_of("[$X for $X in $IT]", "ys = [x + 1 for x in xs]\n")

    def test_optional_metavariable(self):
        pattern = "foo($A, $B?)"
        assert matches_of(pattern, "foo(1, 2)\n")
        assert matches_of(pattern, "foo(1)\n")
        assert not matches_of(pattern, "foo()\n")

    def test_dollar_dollar_is_literal(self):
        found = matches_of('query("$$where")', 'q = query("$where")\n')
        assert len(found) == 1

    def test_identifier_position_binding(self):
        found = matches_of("def $F($A):\n    return $G($A)", "def fwd(v):\n    return run(v)\n")
        assert found[0][2] == {"F": "fwd", "A": "v", "G": "run"}
        assert not matches_of("def $F($A):\n    return $G($A)", "def fwd(v):\n    return run(w)\n")

    def test_statement_window(self):
        src = "def f():\n    v = build()\n    return v\n"
        found = matches_of("$V = $EXPR\nreturn $V", src)
        assert found[0][2] == {"V": "v", "EXPR": "build()"}

    def test_unparseable_pattern_rejected(self):
        with pytest.raises(PatternError):
            compile_pattern("def (((")


class TestRuleLoading:
    def test_empty_rule_file(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("[]\n")
        assert len(load_rules(path)) == 0

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text(
            "- {id: dup, kind: pattern, pattern: '$X == $X'}\n"
            "- {id: dup, kind: pattern, pattern: '$X != $X'}\n"
        )
        with pytest.raises(RuleError, match="dup"):
            load_rules(path)

    @pytest.mark.parametrize("flags", ["5", "", "im", "[i, 1]", "{i: true}"])
    def test_regex_flags_must_be_a_list_of_strings(self, tmp_path, flags):
        path = tmp_path / "rules.yaml"
        path.write_text(f"- id: r\n  kind: regex\n  pattern: x\n  regex_flags: {flags}\n")
        with pytest.raises(RuleError, match="regex_flags must be a list of strings"):
            load_rules(path)

    def test_regex_flags_list_is_applied(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("- {id: r, kind: regex, pattern: '^x', regex_flags: [i, m]}\n")
        rules = load_rules(path)
        (rule,) = rules
        assert rule.regex_flags == ("i", "m")
        assert rules.compiled(rule).flags & (re.IGNORECASE | re.MULTILINE) == re.IGNORECASE | re.MULTILINE

    def test_every_invalid_rule_reported(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text(
            "- {id: badpat, kind: pattern, pattern: 'def ((('}\n"
            "- {id: badre, kind: regex, pattern: '[unclosed'}\n"
        )
        with pytest.raises(RuleError) as err:
            load_rules(path)
        assert "badpat" in str(err.value) and "badre" in str(err.value)

    def test_entry_and_compile_errors_reported_together(self, tmp_path):
        path = tmp_path / "two.yaml"
        path.write_text("- {id: ok, pattern: '$X == $X', languages: [py]}\n- {id: bad, pattern: 'def ((('}\n")
        with pytest.raises(RuleError) as err:
            load_rules(path)
        assert "entry 0: unknown keys" in str(err.value) and "; bad: " in str(err.value)

    def test_compile_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- {id: bad, pattern: 'def ((('}\n")
        with pytest.raises(RuleError) as err:
            load_rules(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_starter_file_read_as_yaml_gives_the_same_rules(self):
        assert load_rules(STARTER_RULES).rules == load_starter_rules().rules

    @pytest.mark.parametrize("data", [None, b"- id: not json\n", b"{}"])
    def test_a_bad_starter_file_is_a_rule_error(self, tmp_path, monkeypatch, data):
        path = tmp_path / "starter.json"
        if data is not None:
            path.write_bytes(data)
        monkeypatch.setattr("slopscope.rules.STARTER_RULES", path)
        with pytest.raises(RuleError) as err:
            load_starter_rules()
        assert str(err.value).startswith(f"{path}: ") and "\n" not in str(err.value)

    def test_starter_set_size_and_categories(self):
        rules = load_starter_rules()
        assert len(rules) >= 20
        categories = {r.category for r in rules}
        for expected in (
            "defensive-check",
            "single-use-variable",
            "trivial-wrapper",
            "heavy-nesting",
            "if-else-ladder",
            "identity-comprehension",
        ):
            assert expected in categories


class TestMatchRules:
    def test_empty_file(self):
        rules = load_starter_rules()
        assert match_rules("m.py", SourceText.from_text(""), TreeIndex.from_tree(ast.parse("")), rules) == []

    def test_identity_comprehension_flagged(self):
        rules = load_starter_rules()
        src = "ys = [x for x in xs]\n"
        found = match_rules("m.py", SourceText.from_text(src), TreeIndex.from_tree(ast.parse(src)), rules)
        assert any(m.rule_id == "identity-comprehension" for m in found)

    def test_ordering(self):
        rules = load_starter_rules()
        src = "a = [x for x in xs]\nb = q == q\nc = len(q) > 0\n"
        found = match_rules("m.py", SourceText.from_text(src), TreeIndex.from_tree(ast.parse(src)), rules)
        keys = [(m.file, m.start, m.end, m.rule_id) for m in found]
        assert keys == sorted(keys)

    def test_regex_rule_lines(self):
        rules = load_starter_rules()
        src = "try:\n    go()\nexcept Exception:\n    raise\n"
        found = match_rules("m.py", SourceText.from_text(src), TreeIndex.from_tree(ast.parse(src)), rules)
        broad = [m for m in found if m.rule_id == "broad-except"]
        assert broad and broad[0].lines == (3,)

    def test_match_lines_cover_span(self):
        rules = load_starter_rules()
        src = "def f():\n    if cond:\n        return True\n    return False\n"
        found = match_rules("m.py", SourceText.from_text(src), TreeIndex.from_tree(ast.parse(src)), rules)
        hit = [m for m in found if m.rule_id == "if-return-bool-fallthrough"]
        assert hit[0].lines == (2, 3, 4)

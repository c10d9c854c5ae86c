"""Quality rules: YAML rule files, pattern/regex matching, flagged lines."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .adapters import SourceText, TreeIndex
from .model import read_record, read_yaml
from .patterns import PatternError, compile_pattern, find_matches

_REGEX_FLAGS = {"i": re.IGNORECASE, "m": re.MULTILINE, "s": re.DOTALL}


class RuleError(Exception):
    """Raised when a rule file is malformed; its one-line message lists
    every bad rule."""


@dataclass(frozen=True)
class QualityRule:
    id: str
    pattern: str
    kind: str = "pattern"  # "pattern" | "regex"
    category: str = ""
    message: str = ""
    regex_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class RuleMatch:
    rule_id: str
    file: str
    start: tuple[int, int]  # (line, col), 1-based
    end: tuple[int, int]  # position immediately after the match
    lines: tuple[int, ...]  # every line the matched span covers
    captures: dict[str, str] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[QualityRule, ...]
    _compiled: dict[str, object] = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def get(self, rule_id: str) -> QualityRule | None:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        return None

    def compiled(self, rule: QualityRule):
        return self._compiled[rule.id]

    def subset(self, rule_ids: set[str]) -> "RuleSet":
        kept = tuple(r for r in self.rules if r.id in rule_ids)
        return RuleSet(kept, {r.id: self._compiled[r.id] for r in kept})


def _compile_rule(rule: QualityRule):
    if rule.kind == "pattern":
        return compile_pattern(rule.pattern)
    flags = 0
    for flag in rule.regex_flags:
        flags |= _REGEX_FLAGS[flag]
    return re.compile(rule.pattern, flags)


def build_ruleset(rules: list[QualityRule]) -> RuleSet:
    """Validate and compile a list of rules, reporting every failure at once."""
    errors: list[str] = []
    seen: set[str] = set()
    compiled: dict[str, object] = {}
    for rule in rules:
        if not rule.id:
            errors.append("rule with empty id")
            continue
        if rule.id in seen:
            errors.append(f"{rule.id}: duplicate rule id")
            continue
        seen.add(rule.id)
        if rule.kind not in ("pattern", "regex"):
            errors.append(f"{rule.id}: unknown kind {rule.kind!r}")
            continue
        if not rule.pattern:
            errors.append(f"{rule.id}: empty pattern")
            continue
        if any(f not in _REGEX_FLAGS for f in rule.regex_flags):
            errors.append(f"{rule.id}: regex_flags must be a subset of i, m, s")
            continue
        try:
            compiled[rule.id] = _compile_rule(rule)
        except (PatternError, re.error) as exc:
            errors.append(f"{rule.id}: {exc}")
    if errors:
        raise RuleError("invalid rules: " + "; ".join(errors))
    return RuleSet(tuple(rules), compiled)


def load_rules(path: str | Path) -> RuleSet:
    """Load a YAML rule file (a list of rule mappings)."""
    raw = read_yaml(path, RuleError) or []
    if not isinstance(raw, list):
        raise RuleError(f"{path}: rule file must contain a list of rules")
    kinds = {"id": str, "kind": str, "pattern": str, "category": str, "message": str, "regex_flags": list}
    rules: list[QualityRule] = []
    errors: list[str] = []
    for i, entry in enumerate(raw):
        try:
            rules.append(read_record(QualityRule, entry, kinds, f"entry {i}", RuleError))
        except RuleError as exc:
            errors.append(str(exc))
    if errors:
        raise RuleError(f"{path}: invalid rules: " + "; ".join(errors))
    return build_ruleset(rules)


def load_starter_rules() -> RuleSet:
    """The bundled starter rule set."""
    ref = resources.files("slopscope").joinpath("data/rules/starter.yaml")
    with resources.as_file(ref) as path:
        return load_rules(path)


def _regex_matches(regex: re.Pattern, source: SourceText):
    """Each non-empty match of ``regex`` in the text: its start, the position
    after it, the line of its last character, and no captures."""
    for m in regex.finditer(source.text):
        if m.start() != m.end():
            yield source.position(m.start()), source.position(m.end()), source.position(m.end() - 1)[0], {}


def match_rules(path: str, source: SourceText, index: TreeIndex, rules: RuleSet) -> list[RuleMatch]:
    """Every match of every rule in one indexed file, canonically ordered."""
    out: list[RuleMatch] = []
    for rule in rules:
        compiled = rules.compiled(rule)
        if rule.kind == "regex":
            found = _regex_matches(compiled, source)
        else:
            found = ((start, end, end[0], captures) for start, end, captures in find_matches(compiled, index, source))
        for start, end, last_line, captures in found:
            out.append(RuleMatch(rule.id, path, start, end, tuple(range(start[0], last_line + 1)), captures))
    out.sort(key=lambda m: (m.file, m.start, m.end, m.rule_id))
    return out

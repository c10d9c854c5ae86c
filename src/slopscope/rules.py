"""Quality rules: rule files, pattern/regex matching, flagged lines."""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .adapters import SourceText, TreeIndex
from .model import read_record, read_yaml
from .patterns import PatternError, compile_pattern, find_matches

_REGEX_FLAGS = {"i": re.IGNORECASE, "m": re.MULTILINE, "s": re.DOTALL}


class RuleError(Exception):
    """Raised when a rule file is malformed; its one-line message lists
    every bad rule."""


class QualityRule(NamedTuple):
    id: str
    pattern: str
    kind: str = "pattern"  # "pattern" | "regex"
    category: str = ""
    message: str = ""
    regex_flags: tuple[str, ...] = ()


class RuleMatch(NamedTuple):
    """One match of one rule."""

    rule_id: str
    file: str
    start: tuple[int, int]  # (line, col), 1-based
    end: tuple[int, int]  # position immediately after the match
    lines: tuple[int, ...]  # every line the matched span covers
    # Metavariable name -> bound source text; the default is read-only, so
    # no two matches share a mutable mapping.
    captures: Mapping[str, str] = MappingProxyType({})


class RuleSet:
    """Rules in file order, each with its compiled pattern or regex.
    Iterating a rule set gives its rules."""

    __slots__ = ("rules", "_compiled")

    def __init__(self, rules: tuple[QualityRule, ...], compiled: dict[str, object] | None = None) -> None:
        self.rules = rules
        self._compiled = {} if compiled is None else compiled

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def compiled(self, rule: QualityRule):
        return self._compiled[rule.id]

    def subset(self, rule_ids: set[str]) -> RuleSet:
        kept = tuple(r for r in self.rules if r.id in rule_ids)
        return RuleSet(kept, {r.id: self._compiled[r.id] for r in kept})


STARTER_RULES = Path(__file__).parent / "data" / "rules" / "starter.json"


def load_rules(path: str | Path) -> RuleSet:
    """Load a YAML or JSON rule file (a list of rule mappings); see
    ``_check_rules``."""
    return _check_rules(read_yaml(path, RuleError) or [], path)


def load_starter_rules() -> RuleSet:
    """The bundled starter rule set. It is JSON, read with ``json``, so no
    YAML parser is loaded for it; ``_check_rules`` checks it as it checks
    any rule file."""
    try:
        raw = json.loads(STARTER_RULES.read_bytes())
    except (OSError, ValueError) as exc:
        raise RuleError(f"{STARTER_RULES}: {' '.join(str(exc).split())}") from exc
    return _check_rules(raw, STARTER_RULES)


def _check_rules(raw, path: str | Path) -> RuleSet:
    """Check and compile each rule of a rule file's parsed content, which
    must be a list of rule mappings. Every bad rule is reported in one
    ``RuleError`` that starts with ``path``, in file order: by ``entry i``
    if it is not a valid mapping, else by id."""
    if not isinstance(raw, list):
        raise RuleError(f"{path}: rule file must contain a list of rules")
    kinds = {"id": str, "kind": str, "pattern": str, "category": str, "message": str, "regex_flags": list}
    rules: list[QualityRule] = []
    compiled: dict[str, object] = {}
    errors: list[str] = []
    seen: set[str] = set()  # ids of every rule read, valid or not
    for i, entry in enumerate(raw):
        try:
            rule = read_record(QualityRule, entry, kinds, f"entry {i}", RuleError)
            if not rule.id:
                raise RuleError("rule with empty id")
            if rule.id in seen:
                raise RuleError(f"{rule.id}: duplicate rule id")
            seen.add(rule.id)
            if rule.kind not in ("pattern", "regex"):
                raise RuleError(f"{rule.id}: unknown kind {rule.kind!r}")
            if not rule.pattern:
                raise RuleError(f"{rule.id}: empty pattern")
            if any(f not in _REGEX_FLAGS for f in rule.regex_flags):
                raise RuleError(f"{rule.id}: regex_flags must be a subset of i, m, s")
            if rule.kind == "pattern":
                compiled[rule.id] = compile_pattern(rule.pattern)
            else:
                flags = 0
                for flag in rule.regex_flags:
                    flags |= _REGEX_FLAGS[flag]
                compiled[rule.id] = re.compile(rule.pattern, flags)
            rules.append(rule)
        except RuleError as exc:
            errors.append(str(exc))
        except (PatternError, re.error) as exc:
            errors.append(f"{rule.id}: {exc}")
        except (RecursionError, MemoryError):  # the parser, ``re`` or a match plan
            errors.append(f"{rule.id}: nested too deeply to compile")
    if errors:
        raise RuleError(f"{path}: invalid rules: " + "; ".join(errors))
    return RuleSet(tuple(rules), compiled)


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

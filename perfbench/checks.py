"""Output checks that do not trust the program under test.

Each check returns a list of failure messages; an empty list means the
report passed. The oracles here are written from the README's definitions,
not from slopscope's code:

- a source line is a non-blank line whose first non-blank character is
  not ``#``;
- every ``def`` (sync or async, at any depth) is one callable;
- a clone line is a line covered by a window of ``min_window`` consecutive
  token-normalised lines that occurs at two or more positions;
- verbosity is |flagged ∪ cloned| / LOC over source lines only;
- erosion is the share of ``cc * sqrt(sloc)`` held by callables with
  cc > 10.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import keyword
import math
import os
import tokenize
from datetime import datetime, timezone

MIN_WINDOW = 6
CC_CUTOFF = 10


def source_lines(text: str) -> set[int]:
    return {i for i, line in enumerate(text.splitlines(), 1) if line.strip() and not line.strip().startswith("#")}


def count_defs(text: str) -> int:
    return sum(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(ast.parse(text)))


def _normalised_lines(text: str) -> list[tuple[str, int]]:
    per_line: dict[int, list[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                word = tok.string if keyword.iskeyword(tok.string) else "ID"
            elif tok.type == tokenize.NUMBER:
                word = "NUM"
            elif tok.type == tokenize.STRING:
                word = "STR"
            elif tok.type == tokenize.OP:
                word = tok.string
            else:
                continue
            per_line.setdefault(tok.start[0], []).append(word)
    except (tokenize.TokenError, SyntaxError):
        pass
    return [(" ".join(per_line[n]), n) for n in sorted(per_line)]


def clone_lines(files: dict[str, str], min_window: int = MIN_WINDOW) -> set[tuple[str, int]]:
    """Brute-force clone-line set: no region merging, no classes."""
    windows: dict[tuple[str, ...], list[tuple[str, list[int]]]] = {}
    for path, text in files.items():
        norm = _normalised_lines(text)
        for start in range(len(norm) - min_window + 1):
            chunk = norm[start : start + min_window]
            windows.setdefault(tuple(w for w, _ in chunk), []).append((path, [n for _, n in chunk]))
    out: set[tuple[str, int]] = set()
    for positions in windows.values():
        if len(positions) >= 2:
            for path, lines in positions:
                out.update((path, n) for n in lines)
    return out


def expected_verbosity(files: dict[str, str], flagged: set[tuple[str, int]], cloned: set[tuple[str, int]]) -> dict:
    src = {(p, n) for p, text in files.items() for n in source_lines(text)}
    flagged, cloned = flagged & src, cloned & src
    union, loc = flagged | cloned, len(src)
    return {
        "flagged_lines": len(flagged),
        "clone_lines": len(cloned),
        "union_lines": len(union),
        "loc": loc,
        "score": len(union) / loc if loc else 0.0,
    }


def erosion_from_callables(callables: list[dict]) -> float:
    total = high = 0.0
    for c in callables:
        mass = c["cc"] * c["sloc"] ** 0.5
        total += mass
        if c["cc"] > CC_CUTOFF:
            high += mass
    return high / total if total > 0 else 0.0


def load_validator(schema_dir: str, name: str):
    import jsonschema
    from referencing import Registry, Resource

    resources = []
    for fname in sorted(os.listdir(schema_dir)):
        if fname.endswith(".schema.json"):
            with open(os.path.join(schema_dir, fname), encoding="utf-8") as fh:
                schema = json.load(fh)
            resources += [(fname, Resource.from_contents(schema)), (schema["$id"], Resource.from_contents(schema))]
    with open(os.path.join(schema_dir, name), encoding="utf-8") as fh:
        schema = json.load(fh)
    return jsonschema.Draft202012Validator(schema, registry=Registry().with_resources(resources))


def schema_failures(validator, report: dict) -> list[str]:
    return [
        f"schema: {'/'.join(map(str, e.absolute_path)) or '<root>'}: {e.message[:160]}"
        for e in validator.iter_errors(report)
    ][:5]


def score_digest(payload: dict, kind: str) -> str:
    """sha256 over the score-bearing parts of a payload only, so envelope
    changes (config digest, new metadata) do not count as a failure."""
    if kind == "scan":
        part = {k: payload[k] for k in ("erosion", "verbosity", "matches", "clones")}
    else:
        part = [
            {k: cp[k] for k in ("label", "loc", "erosion", "verbosity")}
            for cp in payload["checkpoints"]
        ]
    return hashlib.sha256(json.dumps(part, sort_keys=True).encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_scan(report: dict, files: dict[str, str], planted: dict[str, int] | None,
               flagged_lines: int | None, families: list) -> list[str]:
    """Everything a scan report must say about ``files``. ``planted`` (rule id
    -> count) is None for real code, where the matches are not known."""
    fail: list[str] = []
    p = report["payload"]
    inv = p["inventory"]
    if inv["skipped"]:
        fail.append(f"inventory: skipped {inv['skipped'][:3]}")
    per_file_loc = {f["path"]: f["loc"] for f in inv["files"]}
    want_loc = {path: len(source_lines(text)) for path, text in files.items()}
    if per_file_loc != want_loc:
        bad = sorted(k for k in set(want_loc) | set(per_file_loc) if want_loc.get(k) != per_file_loc.get(k))
        fail.append(f"inventory: per-file loc differs for {bad[:3]}")
    if inv["total_loc"] != sum(want_loc.values()):
        fail.append(f"inventory: total_loc {inv['total_loc']} != {sum(want_loc.values())}")
    want_defs = sum(count_defs(text) for text in files.values())
    if inv["n_callables"] != want_defs or len(p["callables"]) != want_defs:
        fail.append(f"inventory: {inv['n_callables']} callables, oracle counts {want_defs} defs")

    if planted is not None:
        got: dict[str, int] = {}
        for m in p["matches"]:
            got[m["rule_id"]] = got.get(m["rule_id"], 0) + 1
        for rule in sorted(set(got) | set(planted)):
            if got.get(rule, 0) != planted.get(rule, 0):
                fail.append(f"matches: {rule}: {got.get(rule, 0)} reported, {planted.get(rule, 0)} planted")

    cloned = clone_lines(files)
    reported_clones = {(r["file"], n) for r in p["clones"] for n in r["lines"]}
    if reported_clones != cloned:
        fail.append(f"clones: {len(reported_clones)} clone lines reported, oracle finds {len(cloned)}")
    for family in families:
        for path, block in family:
            start = files[path].index(block)
            first = files[path].count("\n", 0, start) + 1
            lines = {(path, first + n - 1) for n in source_lines(block)}
            if not lines <= reported_clones:
                fail.append(f"clones: planted family copy in {path}:{first} not reported")

    flagged = {(m["file"], n) for m in p["matches"] for n in m["lines"]}
    want = expected_verbosity(files, flagged, cloned)
    if flagged_lines is not None and want["flagged_lines"] != flagged_lines:
        fail.append(f"verbosity: planted idioms cover {flagged_lines} lines, matches cover {want['flagged_lines']}")
    fail += _verbosity_failures("verbosity", p["verbosity"], want)
    if not _close(p["erosion"]["score"], erosion_from_callables(p["callables"])):
        fail.append("erosion: score does not follow from the reported callables")
    return fail


def _verbosity_failures(where: str, got: dict, want: dict) -> list[str]:
    return [
        f"{where}: {key} {got[key]} != oracle {want[key]}"
        for key in ("flagged_lines", "clone_lines", "union_lines", "loc", "score")
        if not _close(got[key], want[key])
    ]


def check_history(report: dict, commits: list, max_commits: int) -> list[str]:
    """Every checkpoint must be a generated commit, measured as the oracle
    measures that commit's tree."""
    fail: list[str] = []
    p = report["payload"]
    by_sha = {c.sha: c for c in commits}
    checkpoints = p["checkpoints"]
    if len(checkpoints) != min(max_commits, len(commits)):
        fail.append(f"history: {len(checkpoints)} checkpoints, expected {min(max_commits, len(commits))}")
    labels = [cp["label"] for cp in checkpoints]
    if len(set(labels)) != len(labels):
        fail.append("history: a commit was measured twice")
    for cp in checkpoints:
        commit = by_sha.get(cp["label"])
        if commit is None:
            fail.append(f"history: checkpoint {cp['label'][:12]} is not a generated commit")
            continue
        where = f"checkpoint {cp['index']}"
        if cp["timestamp"] != datetime.fromtimestamp(commit.when, timezone.utc).isoformat():
            fail.append(f"{where}: timestamp {cp['timestamp']} is not the commit date")
        src = {(path, n) for path, text in commit.files.items() for n in source_lines(text)}
        want = {
            "loc": len(src),
            "flagged_lines": commit.flagged_lines,
            "clone_lines": len(clone_lines(commit.files) & src),
        }
        got = cp["verbosity"]
        if cp["loc"] != want["loc"]:
            fail.append(f"{where}: loc {cp['loc']} != oracle {want['loc']}")
        for key, value in want.items():
            if got[key] != value:
                fail.append(f"{where}: verbosity {key} {got[key]} != oracle {value}")
        low, high = max(want["flagged_lines"], want["clone_lines"]), want["flagged_lines"] + want["clone_lines"]
        if not low <= got["union_lines"] <= high or not _close(got["score"], got["union_lines"] / want["loc"]):
            fail.append(f"{where}: union {got['union_lines']} or score inconsistent with its parts")
    # Eligible with at least three checkpoints on each side of 2024-01-01.
    cutoff = datetime(2024, 1, 1, tzinfo=timezone.utc).timestamp()
    when = [by_sha[label].when for label in labels if label in by_sha]
    pre = sum(t < cutoff for t in when)
    eligible = pre >= 3 and len(when) - pre >= 3
    era = p.get("era") or {}
    if era.get("eligible", False) != eligible:
        fail.append(f"history: era eligible is {era.get('eligible')}, {pre} of {len(when)} checkpoints precede 2024")
    return fail

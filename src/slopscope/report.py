"""Reports: every command's payload and config digest inputs (a ``Report``),
the envelope, the one place the digest is built, and bit-exact
serialization (canonical JSON, CSV)."""

from __future__ import annotations

import json
import os
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .erosion import ErosionReport, erosion_sensitivity
from .history import CheckpointAnalysis, HistoryResult, measured_lines
from .rules import RuleMatch
from .scan import ScanConfig, decode_path
from .trajectory import CheckpointMetrics, date, datetime, timezone
from .verbosity import counted_lines

if TYPE_CHECKING:
    from .panel import PanelReport, RepoPanelEntry, RepoSpec

# SHA-256 from CPython's built-in module, as ``random`` takes SHA-512, so a
# report loads no ``hashlib`` and no OpenSSL; the digest is the same bytes.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # a Python built without either
        from hashlib import sha256

SCAN_CSV_HEADER = ["file", "loc", "line_count", "callables", "max_cc", "flagged_lines", "clone_lines"]
HISTORY_CSV_HEADER = ["index", "label", "timestamp", "phase", "loc", "erosion", "verbosity", "high_cc_count", "max_cc"]


class Report(NamedTuple):
    """One command's report before it is written: the payload, and the
    command's own settings, which the config digest covers."""

    payload_type: str
    payload: dict
    settings: dict


def canonical_json(obj) -> str:
    """Keys sorted lexicographically, stable float formatting, one newline.

    The indenting encoder yields a small string per token. Joined all at
    once they would hold about seven times the report's size, so they are
    joined 1024 at a time."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False).iterencode(obj)
    parts = []
    while part := "".join(islice(chunks, 1024)):
        parts.append(part)
    parts.append("\n")
    return "".join(parts)


def erosion_to_dict(report: ErosionReport) -> dict:
    """The report's fields; a hotspot is its callable, without ``end_line``,
    and its mass."""
    hotspots = [{"qualified_name": c.qualified_name, "file": c.file, "start_line": c.start_line, "cc": c.cc,
                 "sloc": c.sloc, "mass": mass} for c, mass in report.hotspots]
    return {**report._asdict(), "hotspots": hotspots}


def match_to_dict(match: RuleMatch) -> dict:
    return {
        "rule_id": match.rule_id,
        "file": match.file,
        "start": {"line": match.start[0], "col": match.start[1]},
        "end": {"line": match.end[0], "col": match.end[1]},
        "lines": list(match.lines),
        "captures": dict(match.captures),
    }


def matches_to_jsonl(matches) -> str:
    """JSON Lines: one match per line, keys sorted, as ``scan
    --emit-matches`` writes them and ``rules test`` prints them."""
    return "".join(json.dumps(match_to_dict(m), sort_keys=True) + "\n" for m in matches)


def checkpoint_to_dict(cm: CheckpointMetrics) -> dict:
    return {
        "index": cm.index,
        "label": cm.label,
        "timestamp": cm.timestamp.isoformat(),
        "phase": cm.phase,
        "loc": cm.verbosity.loc,
        "high_cc_count": cm.erosion.high_cc_count,
        "max_cc": cm.erosion.max_cc,
        "erosion": erosion_to_dict(cm.erosion),
        "verbosity": cm.verbosity._asdict(),
        "skipped": [{"path": p, "reason": r} for p, r in cm.skipped],
    }


def history_to_dict(result: HistoryResult) -> dict:
    era = result.era
    return {
        "checkpoints": [checkpoint_to_dict(c) for c in result.checkpoints],
        "summary": result.summary._asdict() if result.summary else None,
        "era": {**era._asdict(), "cutoff_date": era.cutoff_date.isoformat()} if era else None,
        "skipped_commits": [{"sha": sha, "reason": reason} for sha, reason in result.skipped_commits],
    }


def _label(path: str, deterministic: bool) -> str:
    """The scanned root or the repository as a report names it."""
    return "." if deterministic else decode_path(os.fsencode(path))


def scan_report(analysis: CheckpointAnalysis, root: str, deterministic: bool, sweep: bool) -> Report:
    """The ``scan`` payload, with the 3x3 erosion sensitivity table if
    ``sweep``. Nothing in it keeps a part of ``analysis`` alive."""
    inventory = analysis.inventory
    payload = {
        "root": _label(root, deterministic),
        "inventory": {"n_files": len(inventory.files), "n_callables": len(inventory.callables),
                      "total_loc": inventory.total_loc, "files": [f._asdict() for f in inventory.files],
                      "skipped": [{"path": p, "reason": r} for p, r in inventory.skipped]},
        "callables": [c._asdict() for c in inventory.callables],
        "erosion": erosion_to_dict(analysis.erosion),
        "verbosity": analysis.verbosity._asdict(),
        "matches": [match_to_dict(m) for m in analysis.matches],
        "clones": [r._asdict() for r in analysis.clones],
    }
    if sweep:
        payload["sweep"] = [{"cc_cutoff": cutoff, "size_exponent": exponent, "score": score}
                            for cutoff, exponent, score in erosion_sensitivity(inventory)]
    return Report("ScanReport", payload, {})


def history_report(result: HistoryResult, repo: str, deterministic: bool, max_commits: int, seed: int,
                   cutoff: date, exclude_tests: bool) -> Report:
    settings = {"max_commits": max_commits, "seed": seed, "cutoff_date": cutoff.isoformat(),
                "exclude_tests": exclude_tests}
    return Report("HistoryReport", {**history_to_dict(result), "repo": _label(repo, deterministic)}, settings)


def panel_report(report: PanelReport, entries: list[RepoPanelEntry], specs: list[RepoSpec],
                 reference_mean_verbosity: float | None, reference_mean_erosion: float | None) -> Report:
    payload = {
        **report._asdict(),
        "overall": report.overall._asdict(),
        "tiers": {tier: stats._asdict() for tier, stats in report.tiers.items()},
        "failed_count": len(report.failed),
        "entries": [{"repo_id": e.repo_id, "star_tier": e.star_tier, "head_verbosity": e.head_metrics.verbosity.score,
                     "head_erosion": e.head_metrics.erosion.score} for e in sorted(entries, key=lambda e: e.repo_id)],
    }
    settings = {
        "repos": [(s.repo_id, s.stars, s.max_commits, s.seed) for s in specs],
        "reference_mean_verbosity": reference_mean_verbosity,
        "reference_mean_erosion": reference_mean_erosion,
    }
    return Report("PanelReport", payload, settings)


def envelope(report: Report, config: ScanConfig, deterministic: bool) -> dict:
    """The JSON report: the payload under a config digest of the whole scan
    config (its rule set as the rule definitions) and the command's own
    settings, and, unless ``deterministic``, the time it was made."""
    rule_defs = json.dumps([rule._asdict() for rule in config.rules], sort_keys=True).encode()
    digested = {**config._asdict(), "rules": sha256(rule_defs).hexdigest(), **report.settings}
    out = {
        "tool_version": __version__,
        "config_digest": sha256(json.dumps(digested, sort_keys=True, ensure_ascii=False).encode()).hexdigest(),
        "payload_type": report.payload_type,
        "payload": report.payload,
    }
    if not deterministic:
        out["created_at"] = datetime.now(timezone.utc).isoformat()
    return out


def _csv(header: list[str], rows) -> str:
    import csv  # here, not with the module: a JSON report writes no CSV
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def scan_report_csv(analysis: CheckpointAnalysis) -> str:
    """One row per file plus a TOTAL row; header fixed (see docs/schema).

    A file's flagged and clone lines are the ones the verbosity score
    counts (``verbosity.counted_lines``), so the file rows add up to the
    TOTAL row.
    """
    counted = counted_lines(measured_lines(analysis.files), analysis.matches, analysis.clones)
    rows = [
        [record.path, record.loc, record.line_count, len(f.inventory.callables),
         max((c.cc for c in f.inventory.callables), default=0), *map(len, counted[record.path])]
        for f in analysis.files.values()
        for record in f.inventory.files  # none for a skipped file
    ]
    inventory, verbosity = analysis.inventory, analysis.verbosity
    rows.append(["TOTAL", inventory.total_loc, sum(record.line_count for record in inventory.files),
                 len(inventory.callables), analysis.erosion.max_cc, verbosity.flagged_lines, verbosity.clone_lines])
    return _csv(SCAN_CSV_HEADER, rows)


def history_report_csv(payload: dict) -> str:
    return _csv(HISTORY_CSV_HEADER, ([cp["index"], cp["label"], cp["timestamp"], cp["phase"], cp["loc"],
                                      repr(cp["erosion"]["score"]), repr(cp["verbosity"]["score"]),
                                      cp["high_cc_count"], cp["max_cc"]] for cp in payload["checkpoints"]))

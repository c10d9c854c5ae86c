"""Report envelopes and bit-exact serialization (canonical JSON, CSV)."""

from __future__ import annotations

import json

from . import __version__
from .erosion import ErosionReport
from .history import CheckpointAnalysis, HistoryResult, measured_lines
from .rules import RuleMatch
from .scan import SourceInventory
from .trajectory import CheckpointMetrics, EraShift, datetime, timezone
from .verbosity import counted_lines

# SHA-256 from CPython's built-in module, as ``random`` takes SHA-512, so a
# report loads no ``hashlib`` and no OpenSSL; the digest is the same bytes.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # a Python built without either
        from hashlib import sha256

SCAN_CSV_HEADER = [
    "file",
    "loc",
    "line_count",
    "callables",
    "max_cc",
    "flagged_lines",
    "clone_lines",
]
HISTORY_CSV_HEADER = [
    "index",
    "label",
    "timestamp",
    "phase",
    "loc",
    "erosion",
    "verbosity",
    "high_cc_count",
    "max_cc",
]


def canonical_json(obj) -> str:
    """Keys sorted lexicographically, stable float formatting, one newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def erosion_to_dict(report: ErosionReport) -> dict:
    """The report's fields; a hotspot is its callable, without ``end_line``,
    and its mass."""
    return {
        **report._asdict(),
        "hotspots": [
            {
                "qualified_name": c.qualified_name,
                "file": c.file,
                "start_line": c.start_line,
                "cc": c.cc,
                "sloc": c.sloc,
                "mass": mass,
            }
            for c, mass in report.hotspots
        ],
    }


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


def inventory_to_dict(inventory: SourceInventory) -> dict:
    return {
        "n_files": len(inventory.files),
        "n_callables": len(inventory.callables),
        "total_loc": inventory.total_loc,
        "files": [f._asdict() for f in inventory.files],
        "skipped": [{"path": p, "reason": r} for p, r in inventory.skipped],
    }


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


def era_to_dict(era: EraShift) -> dict:
    return {**era._asdict(), "cutoff_date": era.cutoff_date.isoformat()}


def history_to_dict(result: HistoryResult) -> dict:
    return {
        "checkpoints": [checkpoint_to_dict(c) for c in result.checkpoints],
        "summary": result.summary._asdict() if result.summary else None,
        "era": era_to_dict(result.era) if result.era else None,
        "skipped_commits": [{"sha": sha, "reason": reason} for sha, reason in result.skipped_commits],
    }


def envelope(payload_type: str, payload: dict, config: dict, deterministic: bool) -> dict:
    digest = sha256(
        json.dumps(config, sort_keys=True, ensure_ascii=False).encode()
    ).hexdigest()
    out = {
        "tool_version": __version__,
        "config_digest": digest,
        "payload_type": payload_type,
        "payload": payload,
    }
    if not deterministic:
        out["created_at"] = datetime.now(timezone.utc).isoformat()
    return out


def scan_report_csv(analysis: CheckpointAnalysis) -> str:
    """One row per file plus a TOTAL row; header fixed (see docs/schema).

    A file's flagged and clone lines are the ones the verbosity score
    counts (``verbosity.counted_lines``), so the file rows add up to the
    TOTAL row.
    """
    import csv  # here, not with the module: a JSON report writes no CSV
    import io

    counted = counted_lines(measured_lines(analysis.files), analysis.matches, analysis.clones)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_CSV_HEADER)
    for f in analysis.files.values():
        for record in f.inventory.files:  # none for a skipped file
            flagged, cloned = counted[record.path]
            writer.writerow(
                [
                    record.path,
                    record.loc,
                    record.line_count,
                    len(f.inventory.callables),
                    max((c.cc for c in f.inventory.callables), default=0),
                    len(flagged),
                    len(cloned),
                ]
            )
    inventory = analysis.inventory
    writer.writerow(
        [
            "TOTAL",
            inventory.total_loc,
            sum(record.line_count for record in inventory.files),
            len(inventory.callables),
            analysis.erosion.max_cc,
            analysis.verbosity.flagged_lines,
            analysis.verbosity.clone_lines,
        ]
    )
    return buf.getvalue()


def history_report_csv(payload: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HISTORY_CSV_HEADER)
    for cp in payload["checkpoints"]:
        writer.writerow(
            [
                cp["index"],
                cp["label"],
                cp["timestamp"],
                cp["phase"],
                cp["loc"],
                repr(cp["erosion"]["score"]),
                repr(cp["verbosity"]["score"]),
                cp["high_cc_count"],
                cp["max_cc"],
            ]
        )
    return buf.getvalue()

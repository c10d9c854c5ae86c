"""Report envelopes and bit-exact serialization (canonical JSON, CSV)."""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone

from . import __version__
from .clones import CloneRegion
from .erosion import ErosionReport
from .history import CheckpointAnalysis, HistoryResult, measured_lines
from .model import SourceInventory
from .rules import RuleMatch
from .trajectory import CheckpointMetrics, EraShift, TrajectorySummary
from .verbosity import VerbosityBreakdown, counted_lines

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
    return {
        "score": report.score,
        "total_mass": report.total_mass,
        "high_cc_mass": report.high_cc_mass,
        "high_cc_count": report.high_cc_count,
        "max_cc": report.max_cc,
        "hotspots": [
            {
                "qualified_name": c.qualified_name,
                "file": c.file,
                "start_line": c.span[0],
                "cc": c.cc,
                "sloc": c.sloc,
                "mass": mass,
            }
            for c, mass in report.hotspots
        ],
    }


def verbosity_to_dict(breakdown: VerbosityBreakdown) -> dict:
    return breakdown._asdict()


def match_to_dict(match: RuleMatch) -> dict:
    return {
        "rule_id": match.rule_id,
        "file": match.file,
        "start": {"line": match.start[0], "col": match.start[1]},
        "end": {"line": match.end[0], "col": match.end[1]},
        "lines": list(match.lines),
        "captures": dict(match.captures),
    }


def clone_to_dict(region: CloneRegion) -> dict:
    return {
        "clone_class_id": region.clone_class_id,
        "file": region.file,
        "start_line": region.span[0],
        "end_line": region.span[1],
        "fingerprint": region.fingerprint,
        "lines": list(region.lines),
    }


def inventory_to_dict(inventory: SourceInventory) -> dict:
    return {
        "n_files": len(inventory.files),
        "n_callables": len(inventory.callables),
        "total_loc": inventory.total_loc,
        "files": [
            {
                "path": f.path,
                "loc": f.loc,
                "line_count": f.line_count,
            }
            for f in inventory.files
        ],
        "skipped": [{"path": p, "reason": r} for p, r in inventory.skipped],
    }


def callables_to_list(inventory: SourceInventory) -> list[dict]:
    return [
        {
            "qualified_name": c.qualified_name,
            "file": c.file,
            "start_line": c.span[0],
            "end_line": c.span[1],
            "cc": c.cc,
            "sloc": c.sloc,
        }
        for c in inventory.callables
    ]


def checkpoint_to_dict(cm: CheckpointMetrics) -> dict:
    return {
        "index": cm.index,
        "label": cm.label,
        "timestamp": cm.timestamp.isoformat() if cm.timestamp else None,
        "phase": cm.phase,
        "loc": cm.verbosity.loc,
        "high_cc_count": cm.erosion.high_cc_count,
        "max_cc": cm.erosion.max_cc,
        "erosion": erosion_to_dict(cm.erosion),
        "verbosity": verbosity_to_dict(cm.verbosity),
    }


def summary_to_dict(summary: TrajectorySummary) -> dict:
    return {**summary._asdict(), "missing_checkpoints": list(summary.missing_checkpoints)}


def era_to_dict(era: EraShift) -> dict:
    return {**era._asdict(), "cutoff_date": era.cutoff_date.isoformat()}


def history_to_dict(result: HistoryResult) -> dict:
    return {
        "checkpoints": [checkpoint_to_dict(c) for c in result.checkpoints],
        "summary": summary_to_dict(result.summary) if result.summary else None,
        "era": era_to_dict(result.era) if result.era else None,
        "skipped_commits": [{"sha": sha, "reason": reason} for sha, reason in result.skipped_commits],
    }


def envelope(payload_type: str, payload: dict, config: dict, deterministic: bool) -> dict:
    digest = hashlib.sha256(
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
                cp["timestamp"] or "",
                cp["phase"],
                cp["loc"],
                repr(cp["erosion"]["score"]),
                repr(cp["verbosity"]["score"]),
                cp["high_cc_count"],
                cp["max_cc"],
            ]
        )
    return buf.getvalue()

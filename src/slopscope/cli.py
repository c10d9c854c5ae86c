"""Command-line interface: scan, history, panel, rules.

Exit codes: 0 success, 1 usage error (including unknown rule ids),
2 unreadable root / not a repository, 3 invalid rule file. Reports go to
stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date
from pathlib import Path

from .adapters import SourceText
from .clones import DEFAULT_MIN_WINDOW
from .erosion import erosion_sensitivity
from .history import GitError, measure_checkpoint, measure_history
from .model import ScanError
from .panel import build_panel_entry, load_panel_config, panel_aggregate
from .report import (
    callables_to_list,
    canonical_json,
    clone_to_dict,
    envelope,
    erosion_to_dict,
    history_report_csv,
    history_to_dict,
    inventory_to_dict,
    match_to_dict,
    panel_to_dict,
    scan_report_csv,
    verbosity_to_dict,
)
from .rules import RuleError, load_rules, load_starter_rules, match_rules
from .scan import ScanConfig, load_scan_config

RULES_ENV = "SLOPSCOPE_RULES"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREADABLE = 2
EXIT_BAD_RULES = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_rules_arg(path: str | None):
    if path is None:
        path = os.environ.get(RULES_ENV)
    if path is None:
        return load_starter_rules()
    return load_rules(path)


def _load_config_arg(path: str | None) -> ScanConfig:
    if path is None:
        return ScanConfig()
    return load_scan_config(path)


def _write_report(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cfg_dict(config: ScanConfig, extra: dict) -> dict:
    return {**config.to_dict(), **extra}


def cmd_scan(args: argparse.Namespace) -> int:
    try:
        rules = _load_rules_arg(args.rules)
    except (RuleError, OSError) as exc:
        print(f"slopscope: {exc}", file=sys.stderr)
        return EXIT_BAD_RULES
    try:
        config = _load_config_arg(args.config)
        analysis = measure_checkpoint(
            args.root,
            config,
            rules,
            min_window=args.min_window,
            label=str(args.root),
        )
    except ScanError as exc:
        print(f"slopscope: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE

    payload = {
        "root": "." if args.deterministic else str(args.root),
        "inventory": inventory_to_dict(analysis.inventory),
        "callables": callables_to_list(analysis.inventory),
        "erosion": erosion_to_dict(analysis.metrics.erosion),
        "verbosity": verbosity_to_dict(analysis.metrics.verbosity),
        "matches": [match_to_dict(m) for m in analysis.matches],
        "clones": [clone_to_dict(r) for r in analysis.clones],
    }
    if args.sweep:
        payload["sweep"] = [
            {"cc_cutoff": cutoff, "size_exponent": exponent, "score": score}
            for cutoff, exponent, score in erosion_sensitivity(analysis.inventory)
        ]
    if args.emit_matches:
        lines = "".join(
            json.dumps(match_to_dict(m), sort_keys=True) + "\n" for m in analysis.matches
        )
        Path(args.emit_matches).write_text(lines, encoding="utf-8")

    config_dict = _cfg_dict(config, {"min_window": args.min_window})
    report = envelope("ScanReport", payload, config_dict, args.deterministic)
    if args.format == "csv":
        _write_report(scan_report_csv(payload), args.out)
    else:
        _write_report(canonical_json(report), args.out)
    return EXIT_OK


def cmd_history(args: argparse.Namespace) -> int:
    try:
        rules = _load_rules_arg(args.rules)
    except (RuleError, OSError) as exc:
        print(f"slopscope: {exc}", file=sys.stderr)
        return EXIT_BAD_RULES
    config = _load_config_arg(args.config)
    try:
        result = measure_history(
            args.repo,
            max_commits=args.max_commits,
            seed=args.seed,
            cutoff=date.fromisoformat(args.cutoff_date),
            config=config,
            rules=rules,
            min_window=args.min_window,
            exclude_tests=args.exclude_tests,
        )
    except GitError as exc:
        print(f"slopscope: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    if not result.checkpoints:
        print("slopscope: no source-modifying commits found", file=sys.stderr)

    payload = history_to_dict(result)
    payload["repo"] = "." if args.deterministic else str(args.repo)
    config_dict = _cfg_dict(
        config,
        {
            "max_commits": args.max_commits,
            "seed": args.seed,
            "cutoff_date": args.cutoff_date,
            "min_window": args.min_window,
            "exclude_tests": args.exclude_tests,
        },
    )
    report = envelope("HistoryReport", payload, config_dict, args.deterministic)
    if args.format == "csv":
        _write_report(history_report_csv(payload), args.out)
    else:
        _write_report(canonical_json(report), args.out)
    return EXIT_OK


def cmd_panel(args: argparse.Namespace) -> int:
    try:
        rules = _load_rules_arg(args.rules)
    except (RuleError, OSError) as exc:
        print(f"slopscope: {exc}", file=sys.stderr)
        return EXIT_BAD_RULES
    config = _load_config_arg(args.config)
    try:
        specs = load_panel_config(args.panel_config)
    except (OSError, KeyError, ValueError) as exc:
        print(f"slopscope: bad panel config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    entries = []
    failed = []
    for spec in specs:
        try:
            entries.append(build_panel_entry(spec, config, rules, args.min_window))
        except (GitError, ScanError, OSError) as exc:
            print(f"slopscope: {spec.repo_id}: {exc}", file=sys.stderr)
            failed.append(spec.repo_id)
    if not entries:
        print("slopscope: every panel repository failed", file=sys.stderr)
        return EXIT_UNREADABLE

    report = panel_aggregate(
        entries,
        reference_mean_verbosity=args.reference_mean_verbosity,
        reference_mean_erosion=args.reference_mean_erosion,
        failed=tuple(failed),
    )
    payload = panel_to_dict(report)
    payload["failed_count"] = len(failed)
    payload["entries"] = [
        {
            "repo_id": e.repo_id,
            "star_tier": e.star_tier,
            "head_verbosity": e.head_metrics.verbosity.score,
            "head_erosion": e.head_metrics.erosion.score,
        }
        for e in sorted(entries, key=lambda e: e.repo_id)
    ]
    config_dict = _cfg_dict(
        config,
        {
            "panel_config": os.path.basename(args.panel_config),
            "reference_mean_verbosity": args.reference_mean_verbosity,
            "reference_mean_erosion": args.reference_mean_erosion,
            "min_window": args.min_window,
        },
    )
    _write_report(
        canonical_json(envelope("PanelReport", payload, config_dict, args.deterministic)),
        args.out,
    )
    return EXIT_OK


def cmd_rules(args: argparse.Namespace) -> int:
    try:
        rules = _load_rules_arg(args.rules)
    except (RuleError, OSError) as exc:
        print(f"slopscope: {exc}", file=sys.stderr)
        return EXIT_BAD_RULES

    if args.rules_command == "list":
        for rule in rules:
            print(f"{rule.id}\t{rule.kind}\t{rule.category}\t{','.join(rule.languages)}")
        return EXIT_OK

    rule = rules.get(args.rule_id)
    if rule is None:
        print(f"slopscope: unknown rule id: {args.rule_id}", file=sys.stderr)
        return EXIT_USAGE
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"slopscope: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    tree = None
    if rule.kind == "pattern":
        import ast

        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            print(f"slopscope: {path}: {exc}", file=sys.stderr)
            return EXIT_UNREADABLE
    matches = match_rules(path.name, SourceText.from_text(text), tree, "python", rules.subset({rule.id}))
    for m in matches:
        print(json.dumps(match_to_dict(m), sort_keys=True))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, csv: bool = True) -> None:
    parser.add_argument("--rules", help=f"rule file (default: ${RULES_ENV} or the bundled starter set)")
    parser.add_argument("--config", help="scan config file (JSON or YAML)")
    if csv:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    parser.add_argument("--deterministic", action="store_true", help="omit timestamps and absolute paths")
    parser.add_argument("--min-window", type=int, default=DEFAULT_MIN_WINDOW, help="clone window size in normalized lines")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slopscope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="measure one source tree")
    p_scan.add_argument("root")
    _add_common(p_scan)
    p_scan.add_argument("--sweep", action="store_true", help="include the 3x3 erosion sensitivity table")
    p_scan.add_argument("--emit-matches", metavar="FILE", help="write rule matches as JSON Lines")
    p_scan.set_defaults(func=cmd_scan)

    p_hist = sub.add_parser("history", help="measure sampled commits of a git repository")
    p_hist.add_argument("repo")
    _add_common(p_hist)
    p_hist.add_argument("--max-commits", type=int, default=30)
    p_hist.add_argument("--seed", type=int, default=0)
    p_hist.add_argument("--cutoff-date", default="2024-01-01")
    p_hist.add_argument("--exclude-tests", action="store_true", help="ignore test files when selecting commits")
    p_hist.set_defaults(func=cmd_history)

    p_panel = sub.add_parser("panel", help="aggregate a panel of repositories")
    p_panel.add_argument("panel_config")
    _add_common(p_panel, csv=False)
    p_panel.add_argument("--reference-mean-verbosity", type=float)
    p_panel.add_argument("--reference-mean-erosion", type=float)
    p_panel.set_defaults(func=cmd_panel)

    p_rules = sub.add_parser("rules", help="inspect or test quality rules")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p_list = rules_sub.add_parser("list")
    p_list.add_argument("--rules")
    p_list.set_defaults(func=cmd_rules)
    p_test = rules_sub.add_parser("test")
    p_test.add_argument("rule_id")
    p_test.add_argument("file")
    p_test.add_argument("--rules")
    p_test.set_defaults(func=cmd_rules)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: scan, history, panel, rules.

Exit codes: 0 success, 1 usage error (a bad flag value, --config or panel
file, an unknown rule id, or a failed write of the report), 2 unreadable
root / not a repository / skipped file, 3 invalid rule file. Reports go to
stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import atexit
import json
import math
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import NoReturn

from .model import ScanError
from .rules import RuleError, RuleSet, load_rules, load_starter_rules
from .scan import ScanConfig, decode_path, is_python, load_scan_config, read_file

# Each command imports the modules it runs (history, report, panel, erosion,
# trajectory) inside itself, so ``rules list`` loads none of them. Three
# functions of those modules are still attributes of this module, resolved
# on first use: ``perfbench/spans.py`` wraps them here by name, and the
# commands call them through ``_this`` so that its wrappers are the ones
# that run. This shim goes once the program records its own layer spans
# (the in-product spans item of ROADMAP.md).
_LAZY = {"measure_checkpoint": ".history", "measure_history": ".history", "canonical_json": ".report"}
_this = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name], __package__), name)


RULES_ENV = "SLOPSCOPE_RULES"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREADABLE = 2
EXIT_BAD_RULES = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _iso_date(text: str):
    """The ``datetime.date`` that ``text`` spells as YYYY-MM-DD in ASCII
    digits, the one form ``date.fromisoformat`` takes on every version
    (3.11 also takes ``20240101`` and ``2024-W01-1``); imported here, as
    only ``history`` takes a date."""
    import re
    from datetime import date

    try:
        if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            return date.fromisoformat(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an ISO date (YYYY-MM-DD), got {text!r}")


def _fail(message: object, code: int) -> int:
    print(f"slopscope: {message}", file=sys.stderr)
    return code


def _emit(args, rules: RuleSet, config: ScanConfig, payload_type: str, payload: dict,
          settings: dict, to_csv=None) -> int:
    """Write one report: CSV rows, or the JSON envelope whose config digest
    covers the scan config, the rule definitions, --min-window and the
    command's own ``settings``.
    """
    if to_csv is not None and args.format == "csv":
        text = to_csv(payload)
    else:
        import hashlib

        from .report import envelope

        rule_defs = json.dumps([rule._asdict() for rule in rules], sort_keys=True).encode()
        digested = {
            **config._asdict(),
            "rules": hashlib.sha256(rule_defs).hexdigest(),
            "min_window": args.min_window,
            **settings,
        }
        text = _this.canonical_json(envelope(payload_type, payload, digested, args.deterministic))
    if not args.out:
        return _write_stdout(text)
    return _write(args.out, text)


def _write_stdout(text: str) -> int:
    """Every write to stdout: a failed write or flush is one line and exit 1,
    as a failed ``--out`` write is."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        return _fail(f"cannot write <stdout>: {exc.strerror or exc}", EXIT_USAGE)
    return EXIT_OK


def _write(path: str, text: str) -> int:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc.strerror or exc}", EXIT_USAGE)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace, rules: RuleSet, config: ScanConfig) -> int:
    from .report import erosion_to_dict, inventory_to_dict, match_to_dict, matches_to_jsonl, scan_report_csv

    if args.sweep and args.format == "csv":
        return _fail("--sweep needs a JSON report; the CSV has no sweep table", EXIT_USAGE)
    try:
        analysis = _this.measure_checkpoint(args.root, config, rules, min_window=args.min_window)
    except ScanError as exc:
        return _fail(exc, EXIT_UNREADABLE)

    payload = {
        "root": "." if args.deterministic else str(args.root),
        "inventory": inventory_to_dict(analysis.inventory),
        "callables": [c._asdict() for c in analysis.inventory.callables],
        "erosion": erosion_to_dict(analysis.erosion),
        "verbosity": analysis.verbosity._asdict(),
        "matches": [match_to_dict(m) for m in analysis.matches],
        "clones": [r._asdict() for r in analysis.clones],
    }
    if args.sweep:
        from .erosion import erosion_sensitivity

        payload["sweep"] = [
            {"cc_cutoff": cutoff, "size_exponent": exponent, "score": score}
            for cutoff, exponent, score in erosion_sensitivity(analysis.inventory)
        ]
    if args.emit_matches:
        if _write(args.emit_matches, matches_to_jsonl(analysis.matches)) != EXIT_OK:
            return EXIT_USAGE  # before the report, so a bad path writes nothing
    return _emit(args, rules, config, "ScanReport", payload, {},
                 lambda _payload: scan_report_csv(analysis))


def cmd_history(args: argparse.Namespace, rules: RuleSet, config: ScanConfig) -> int:
    from .history import DEFAULT_MAX_COMMITS, GitError
    from .report import history_report_csv, history_to_dict
    from .trajectory import DEFAULT_ERA_CUTOFF

    max_commits = DEFAULT_MAX_COMMITS if args.max_commits is None else args.max_commits
    cutoff = DEFAULT_ERA_CUTOFF if args.cutoff_date is None else args.cutoff_date
    try:
        result = _this.measure_history(
            args.repo,
            max_commits=max_commits,
            seed=args.seed,
            cutoff=cutoff,
            config=config,
            rules=rules,
            min_window=args.min_window,
            exclude_tests=args.exclude_tests,
        )
    except GitError as exc:
        return _fail(exc, EXIT_UNREADABLE)
    if result.skipped_commits and not result.checkpoints:
        print("slopscope: no sampled commit could be read", file=sys.stderr)
    elif not result.checkpoints:
        print("slopscope: no source-modifying commits found", file=sys.stderr)

    payload = {**history_to_dict(result), "repo": "." if args.deterministic else str(args.repo)}
    settings = {
        "max_commits": max_commits,
        "seed": args.seed,
        "cutoff_date": cutoff.isoformat(),
        "exclude_tests": args.exclude_tests,
    }
    return _emit(args, rules, config, "HistoryReport", payload, settings, history_report_csv)


def cmd_panel(args: argparse.Namespace, rules: RuleSet, config: ScanConfig) -> int:
    from .history import GitError
    from .panel import build_panel_entry, load_panel_config, panel_aggregate

    try:
        specs = load_panel_config(args.panel_config)
    except ValueError as exc:
        return _fail(f"bad panel config: {exc}", EXIT_USAGE)

    entries = []
    failed = []
    for spec in specs:
        try:
            entries.append(build_panel_entry(spec, config, rules, args.min_window))
        except (GitError, ScanError, OSError) as exc:
            print(f"slopscope: {spec.repo_id}: {exc}", file=sys.stderr)
            failed.append({"repo_id": spec.repo_id, "reason": str(exc)})
    if not entries:
        return _fail("every panel repository failed", EXIT_UNREADABLE)

    report = panel_aggregate(
        entries,
        reference_mean_verbosity=args.reference_mean_verbosity,
        reference_mean_erosion=args.reference_mean_erosion,
        failed=tuple(failed),
    )
    payload = {
        **report._asdict(),
        "overall": report.overall._asdict(),
        "tiers": {tier: stats._asdict() for tier, stats in report.tiers.items()},
        "failed_count": len(failed),
        "entries": [
            {
                "repo_id": e.repo_id,
                "star_tier": e.star_tier,
                "head_verbosity": e.head_metrics.verbosity.score,
                "head_erosion": e.head_metrics.erosion.score,
            }
            for e in sorted(entries, key=lambda e: e.repo_id)
        ],
    }
    settings = {
        "repos": [(s.repo_id, s.stars, s.max_commits, s.seed) for s in specs],
        "reference_mean_verbosity": args.reference_mean_verbosity,
        "reference_mean_erosion": args.reference_mean_erosion,
    }
    return _emit(args, rules, config, "PanelReport", payload, settings)


def cmd_rules(args: argparse.Namespace, rules: RuleSet, config: ScanConfig) -> int:
    if args.rules_command == "list":
        return _write_stdout("".join(f"{rule.id}\t{rule.kind}\t{rule.category}\n" for rule in rules))

    from .history import scan_tree_with_sources
    from .report import matches_to_jsonl

    selected = rules.subset({args.rule_id})
    if not selected:
        return _fail(f"unknown rule id: {args.rule_id}", EXIT_USAGE)
    path = Path(args.file)
    if not is_python(path.name):
        return _fail(f"{path}: not a Python (.py) file", EXIT_USAGE)
    name = decode_path(os.fsencode(path.name))
    file = [(name, read_file(path.parent, path.name))]
    analysis = scan_tree_with_sources(file, config, selected)[1][name]
    if analysis.inventory.skipped:
        return _fail(f"{path}: skipped ({analysis.inventory.skipped[0][1]})", EXIT_UNREADABLE)
    return _write_stdout(matches_to_jsonl(analysis.matches))


def _add_common(parser: argparse.ArgumentParser, csv: bool = True) -> None:
    parser.add_argument("--rules", help=f"rule file (default: ${RULES_ENV} or the bundled starter set)")
    parser.add_argument("--config", help="scan config file (JSON or YAML)")
    if csv:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    parser.add_argument("--deterministic", action="store_true", help="omit timestamps and absolute paths")
    # None stands for clones.DEFAULT_MIN_WINDOW, which main fills in, so that
    # building the parser does not import the clone detector.
    parser.add_argument("--min-window", type=_positive_int, help="clone window size in normalized lines")


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
    # None stands for the defaults of history.py and trajectory.py, which
    # cmd_history fills in, so that building the parser imports neither.
    p_hist.add_argument("--max-commits", type=_positive_int)
    p_hist.add_argument("--seed", type=int, default=0)
    p_hist.add_argument("--cutoff-date", type=_iso_date)
    p_hist.add_argument("--exclude-tests", action="store_true", help="ignore test files when selecting commits")
    p_hist.set_defaults(func=cmd_history)

    p_panel = sub.add_parser("panel", help="aggregate a panel of repositories")
    p_panel.add_argument("panel_config")
    _add_common(p_panel, csv=False)
    p_panel.add_argument("--reference-mean-verbosity", type=_finite_float)
    p_panel.add_argument("--reference-mean-erosion", type=_finite_float)
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
    if getattr(args, "min_window", 0) is None:  # scan, history or panel, without --min-window
        from .clones import DEFAULT_MIN_WINDOW

        args.min_window = DEFAULT_MIN_WINDOW
    rules_path = args.rules if args.rules is not None else os.environ.get(RULES_ENV)
    try:
        rules = load_starter_rules() if rules_path is None else load_rules(rules_path)
    except (RuleError, OSError) as exc:
        return _fail(exc, EXIT_BAD_RULES)
    config_path = getattr(args, "config", None)
    try:
        config = ScanConfig() if config_path is None else load_scan_config(config_path)
    except ScanError as exc:
        return _fail(f"bad config: {exc}", EXIT_USAGE)
    return args.func(args, rules, config)


def run() -> NoReturn:
    """The process entry (``python -m slopscope.cli`` and the ``slopscope``
    script): runs ``main()``, then the exit handlers, flushes stdout and
    stderr and ends the process without interpreter teardown, which would
    only free, module by module, memory the process is about to give back.

    This is safe while a command leaves no thread running and no file open
    (``tests/test_startup.py`` checks both). An exception or ``SystemExit``
    from ``main()`` (argparse's ``--help`` and usage errors) propagates and
    exits as usual.
    """
    code = main()
    atexit._run_exitfuncs()
    # A failed command has reported already. A failed write's bytes may still
    # be buffered, and reporting the flush of them would say it twice.
    if code == EXIT_OK:
        code = _write_stdout("")
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass  # reported above, or nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()

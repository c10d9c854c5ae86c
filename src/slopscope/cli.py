"""Command-line interface: scan, history, panel, rules.

Exit codes: 0 success, 1 usage error (a bad flag value, an empty path
argument, an output (--out, --emit-matches) that names another output or an
input (the rule, --config or panel file), a bad --config or panel file, an
unknown rule id, or a failed write of the report), 2 unreadable
root / not a repository / a git that exited mid-run / skipped file, 3
invalid rule file. Reports go to stdout (or --out); diagnostics go to
stderr. This module parses the arguments, runs a command and writes
what ``report.py`` makes of its result.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import math
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import NoReturn

from .rules import RuleError, RuleSet, load_rules, load_starter_rules
from .scan import ScanConfig, ScanError, decode_path, is_python, load_scan_config, read_file

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


def _path(text: str) -> str:
    if not text:  # Path("") is the working directory
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


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

    from .trajectory import date

    try:
        if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            return date.fromisoformat(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an ISO date (YYYY-MM-DD), got {text!r}")


def _say(message: object) -> None:
    if sys.stderr is not None:  # None: started with fd 2 closed; print(file=None) would write to stdout
        print(f"slopscope: {message}", file=sys.stderr)


def _fail(message: object, code: int) -> int:
    _say(message)
    return code


def _emit(args, rules: RuleSet, config: ScanConfig, report) -> int:
    """Write one report: CSV text as it is, or a ``report.Report`` as its
    JSON envelope."""
    if not isinstance(report, str):
        from .report import envelope

        report = _this.canonical_json(envelope(report, config, rules, args.min_window, args.deterministic))
    if not args.out:
        return _write_stdout(report)
    return _write(args.out, report)


def _write_stdout(text: str) -> int:
    """Every write to stdout: a failed write or flush, or no stdout at all,
    is one line and exit 1, as a failed ``--out`` write is."""
    if sys.stdout is None:  # started with fd 1 closed
        return _fail(f"cannot write <stdout>: {os.strerror(errno.EBADF)}", EXIT_USAGE)
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
    from .report import matches_to_jsonl, scan_report, scan_report_csv

    if args.sweep and args.format == "csv":
        return _fail("--sweep needs a JSON report; the CSV has no sweep table", EXIT_USAGE)
    try:
        analysis = _this.measure_checkpoint(args.root, config, rules, min_window=args.min_window)
    except ScanError as exc:
        return _fail(exc, EXIT_UNREADABLE)
    if args.emit_matches and _write(args.emit_matches, matches_to_jsonl(analysis.matches)) != EXIT_OK:
        return EXIT_USAGE  # before the report, so a bad path writes nothing
    if args.format == "csv":
        report = scan_report_csv(analysis)
    else:
        report = scan_report(analysis, args.root, args.deterministic, args.sweep)
    del analysis  # the per-file analyses go before the report is serialised
    return _emit(args, rules, config, report)


def cmd_history(args: argparse.Namespace, rules: RuleSet, config: ScanConfig) -> int:
    from .git import GitError
    from .history import DEFAULT_MAX_COMMITS
    from .report import history_report, history_report_csv
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
        _say("no sampled commit could be read")
    elif not result.checkpoints:
        _say("no source-modifying commits found")

    report = history_report(result, args.repo, args.deterministic, max_commits, args.seed, cutoff, args.exclude_tests)
    return _emit(args, rules, config, history_report_csv(report.payload) if args.format == "csv" else report)


def cmd_panel(args: argparse.Namespace, rules: RuleSet, config: ScanConfig) -> int:
    from .git import GitError
    from .panel import build_panel_entry, load_panel_config, panel_aggregate
    from .report import panel_report

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
            _say(f"{spec.repo_id}: {exc}")
            failed.append({"repo_id": spec.repo_id, "reason": str(exc)})
    if not entries:
        return _fail("every panel repository failed", EXIT_UNREADABLE)

    references = (args.reference_mean_verbosity, args.reference_mean_erosion)
    aggregate = panel_aggregate(entries, *references, failed=tuple(failed))
    return _emit(args, rules, config, panel_report(aggregate, entries, specs, *references))


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
    parser.add_argument("--rules", type=_path, help=f"rule file (default: ${RULES_ENV} or the bundled starter set)")
    parser.add_argument("--config", type=_path, help="scan config file (JSON or YAML)")
    if csv:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", type=_path, help="write the report to a file instead of stdout")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit created_at and write the scanned root or repository as '.'")
    # None stands for clones.DEFAULT_MIN_WINDOW, which main fills in, so that
    # building the parser does not import the clone detector.
    parser.add_argument("--min-window", type=_positive_int, help="clone window size in normalized lines")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slopscope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="measure one source tree")
    p_scan.add_argument("root", type=_path)
    _add_common(p_scan)
    p_scan.add_argument("--sweep", action="store_true", help="include the 3x3 erosion sensitivity table")
    p_scan.add_argument("--emit-matches", type=_path, metavar="FILE", help="write rule matches as JSON Lines")
    p_scan.set_defaults(func=cmd_scan)

    p_hist = sub.add_parser("history", help="measure sampled commits of a git repository")
    p_hist.add_argument("repo", type=_path)
    _add_common(p_hist)
    # None stands for the defaults of history.py and trajectory.py, which
    # cmd_history fills in, so that building the parser imports neither.
    p_hist.add_argument("--max-commits", type=_positive_int)
    p_hist.add_argument("--seed", type=int, default=0)
    p_hist.add_argument("--cutoff-date", type=_iso_date)
    p_hist.add_argument("--exclude-tests", action="store_true", help="ignore test files when selecting commits")
    p_hist.set_defaults(func=cmd_history)

    p_panel = sub.add_parser("panel", help="aggregate a panel of repositories")
    p_panel.add_argument("panel_config", type=_path)
    _add_common(p_panel, csv=False)
    p_panel.add_argument("--reference-mean-verbosity", type=_finite_float)
    p_panel.add_argument("--reference-mean-erosion", type=_finite_float)
    p_panel.set_defaults(func=cmd_panel)

    p_rules = sub.add_parser("rules", help="inspect or test quality rules")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p_list = rules_sub.add_parser("list")
    p_list.add_argument("--rules", type=_path)
    p_list.set_defaults(func=cmd_rules)
    p_test = rules_sub.add_parser("test")
    p_test.add_argument("rule_id")
    p_test.add_argument("file", type=_path)
    p_test.add_argument("--rules", type=_path)
    p_test.set_defaults(func=cmd_rules)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "min_window", 0) is None:  # scan, history or panel, without --min-window
        from .clones import DEFAULT_MIN_WINDOW

        args.min_window = DEFAULT_MIN_WINDOW
    rules_path = args.rules if args.rules is not None else os.environ.get(RULES_ENV)
    if rules_path == "":
        return _fail(f"{RULES_ENV} is set but empty", EXIT_USAGE)
    config_path = getattr(args, "config", None)
    # Writing an output that names an input or the other output would destroy that file.
    outputs = [("--emit-matches", getattr(args, "emit_matches", None)), ("--out", getattr(args, "out", None))]
    named = [*outputs, ("--rules" if args.rules is not None else f"${RULES_ENV}", rules_path),
             ("--config", config_path), ("the panel file", getattr(args, "panel_config", None))]
    for i, (output, out_path) in enumerate(outputs):
        for other, path in named[i + 1 :]:
            if out_path and path and os.path.realpath(out_path) == os.path.realpath(path):
                return _fail(f"{output} and {other} name one file: {path}", EXIT_USAGE)
    try:
        rules = load_starter_rules() if rules_path is None else load_rules(rules_path)
    except (RuleError, OSError) as exc:
        return _fail(exc, EXIT_BAD_RULES)
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
    # A failed command has reported already (a failed write's unflushed bytes
    # would be reported twice); one that succeeded with no stdout used --out.
    if code == EXIT_OK and sys.stdout is not None:
        code = _write_stdout("")
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: started closed
        try:
            stream.flush()
        except OSError:
            pass  # reported above, or nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()

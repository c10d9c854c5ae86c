"""slopscope end-to-end and per-layer benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan-wide --seed 3 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1 --record out.json
    python3 perfbench/compare.py before.json after.json

Each workload command runs through the real CLI (``python -m slopscope.cli``
with ``PYTHONPATH=src``) in a fresh child process, one at a time, in a
closed loop (one client, no threads) until ``run_seconds`` of
``BENCHMARK.json`` (or ``--seconds``, which benchmark runners pass) have
passed, with a set-up probe (``slopscope rules list``) after every other command.

``wall_s`` and ``setup_s`` are in reference-normalised seconds, not wall
seconds: right before and after every command the run times a fixed
reference program (``REFERENCE``) in a fresh process, and each command's
wall time is multiplied by ``REFERENCE_S`` over the mean of the two
reference times; the metric is the median of these normalised times. This
assumes that a slowdown from other tenants of a shared machine hits the
reference program and the command in the same proportion. On a shared
2-vCPU virtual machine, in two sets of ten seeds per workload, the quartile
spread of the raw median wall time was 0.17-0.41 of its median, and of the
raw minimum 0.04-0.30, against 0.04-0.07 for the normalised median. Raw
wall times are printed (median and minimum) and recorded as well.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same command in-process, alternating an untraced
and a traced run, and reports the per-layer metrics of
``perfbench/spans.py`` (medians over the traced runs). Every report is
checked (``perfbench/checks.py``); a failed check counts as a failed
command. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schema"
DEADLINE_S = 170.0  # every run must end within 180 s
MIN_COMMANDS = 5

# A fixed CPython workload (parse, walk and tokenise one stdlib module) run
# in a fresh process right before and after every measured command. Each
# command's wall time is rescaled by REFERENCE_S over the mean of the two
# reference times around it, i.e. to a machine on which this program takes
# REFERENCE_S, about its time on an uncontended 2-vCPU virtual machine.
REFERENCE = """
import ast, io, textwrap, tokenize
src = open(textwrap.__file__, encoding="utf-8").read()
for _ in range(6):
    tree = ast.parse(src)
    nodes = sum(1 for _ in ast.walk(tree))
    tokens = list(tokenize.generate_tokens(io.StringIO(src).readline))
    words = [line.split() for line in src.splitlines()]
"""
REFERENCE_S = 0.12


class Workload:
    """Builds one seeded corpus and knows the command that measures it."""

    kind = "scan"

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.seed, self.work, self.smoke = seed, work, smoke
        self.out = work / "report.json"

    def argv(self) -> list[str]:
        return ["scan", str(self.target), "--deterministic", "--out", str(self.out)]

    def kloc(self, report: dict) -> float:
        return report["payload"]["inventory"]["total_loc"] / 1000.0

    def check(self, report: dict) -> list[str]:
        return checks.check_scan(report, self.tree.files, self.tree.planted, self.tree.flagged_lines, self.tree.families)

    def record(self) -> dict:
        return {"tree_sha256": self.tree.digest(), "files": len(self.tree.files)}

    def traffic(self, report: dict) -> dict:
        """Properties of the input that decide which mechanism a run
        exercises; one tree has nothing to reuse between checkpoints."""
        return {}

    def write_tree(self) -> None:
        self.target = self.work / "tree"
        self.tree.write(str(self.target))


class ScanStdlib(Workload):
    def build(self) -> None:
        self.tree = corpus.stdlib_tree(self.seed, n_files=1, units_per_file=4) if self.smoke else corpus.stdlib_tree(self.seed)
        self.write_tree()

    def check(self, report: dict) -> list[str]:
        return checks.check_scan(report, self.tree.files, None, None, [])


class ScanWide(Workload):
    def build(self) -> None:
        self.tree = corpus.wide_tree(self.seed, n_files=12, n_families=2, loc=150) if self.smoke else corpus.wide_tree(self.seed)
        self.write_tree()


class HistorySynth(Workload):
    kind = "history"
    max_commits = 12

    def build(self) -> None:
        if self.smoke:
            self.max_commits = 6
            self.commits = corpus.history_commits(self.seed, n_commits=10, start_files=4, max_commits=6)
        else:
            self.commits = corpus.history_commits(self.seed, max_commits=self.max_commits)
        self.target = self.work / "repo"
        self.head = corpus.build_repo(self.commits, str(self.target))

    def argv(self) -> list[str]:
        return ["history", str(self.target), "--max-commits", str(self.max_commits), "--seed", str(self.seed),
                "--deterministic", "--out", str(self.out)]

    def kloc(self, report: dict) -> float:
        return sum(cp["loc"] for cp in report["payload"]["checkpoints"]) / 1000.0

    def check(self, report: dict) -> list[str]:
        return checks.check_history(report, self.commits, self.max_commits)

    def record(self) -> dict:
        return {"head": self.head, "commits": len(self.commits)}

    def traffic(self, report: dict) -> dict:
        """The share of (path, blob) pairs of each checkpoint after the first
        that the previous checkpoint held unchanged: the work a cache keyed
        by git blob could skip."""
        trees = {c.sha: c.files for c in self.commits}
        sampled = [trees[cp["label"]] for cp in report["payload"]["checkpoints"]]
        same = [prev.get(path) == text for prev, tree in zip(sampled, sampled[1:]) for path, text in tree.items()]
        return {"unchanged_blob_share": sum(same) / len(same) if same else 0.0}


WORKLOADS = {"scan-stdlib": ScanStdlib, "scan-wide": ScanWide, "history-synth": HistorySynth}


# -- processes -------------------------------------------------------------------


class Spawner:
    """Runs ``python ARGS`` in fresh processes through the small helper in
    ``spawner.py``, one at a time."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict[str, str], timeout: float, stderr_path: Path) -> tuple[float, float, int | None]:
        """(wall seconds, peak RSS MiB, exit code or None on timeout)."""
        request = {"argv": [sys.executable, *argv], "env": env, "cwd": str(ROOT),
                   "timeout": timeout, "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["rss_kib"] / 1024.0, reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def child_env(work: Path) -> dict[str, str]:
    env = corpus.git_env()
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    env.pop("SLOPSCOPE_RULES", None)
    return env


# -- checking ---------------------------------------------------------------------


class Checker:
    """Checks a report once per distinct byte string; the reports of a
    deterministic command are byte-identical, so later copies reuse the
    verdict of the first."""

    def __init__(self, wl: Workload, name: str, pinned: dict) -> None:
        self.wl, self.name = wl, name
        self.validator = checks.load_validator(str(SCHEMAS), f"{wl.kind}_report.schema.json")
        self.pinned = pinned
        self.verdicts: dict[str, list[str]] = {}
        self.digest = ""
        self.kloc = 0.0
        self.traffic: dict = {}

    def __call__(self, data: bytes) -> list[str]:
        key = hashlib.sha256(data).hexdigest()
        if key not in self.verdicts:
            self.verdicts[key] = self._check(data)
        return self.verdicts[key]

    def _check(self, data: bytes) -> list[str]:
        try:
            report = json.loads(data)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        failures = checks.schema_failures(self.validator, report)
        if failures:
            return failures
        try:
            failures = self.wl.check(report)
            self.kloc = self.wl.kloc(report)
            if not failures:
                self.traffic = self.wl.traffic(report)
            digest = checks.score_digest(report["payload"], self.wl.kind)
        except (KeyError, TypeError, ValueError, SyntaxError) as exc:
            return failures + [f"report could not be checked: {type(exc).__name__}: {exc}"]
        if self.digest and digest != self.digest:
            failures.append("scores differ between runs of the same input")
        self.digest = self.digest or digest
        want = self.pinned.get(pin_key(self.name, self.wl))
        if want is not None and digest != want:
            failures.append(f"score digest {digest[:16]} does not match the pinned {want[:16]}")
        return failures


def pin_key(name: str, wl: Workload) -> str:
    """Pins hold for one corpus (by digest) under one Python version."""
    corpus_id = wl.record().get("tree_sha256") or wl.record()["head"]
    return f"{name}/{wl.seed}/{sys.version.split()[0]}/{corpus_id[:16]}"


def load_pinned() -> dict:
    with open(HERE / "pinned.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- one workload -------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool, work_root: Path, started: float,
            spawner: Spawner) -> dict:
    work = work_root / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    wl = WORKLOADS[name](seed, work, smoke)
    wl.build()
    env = child_env(work)
    checker = Checker(wl, name, load_pinned())
    result = {"workload": name, "seed": seed, "corpus": wl.record(), "attempted": 0, "failures": []}

    def budget() -> float:
        return max(5.0, DEADLINE_S - (time.perf_counter() - started))

    def note(failures: list[str]) -> None:
        result["attempted"] += 1
        if failures:
            result["failures"].append(failures)

    def cli(argv: list[str]) -> tuple[float, float, list[str]]:
        wall, peak, code = spawner.run(["-m", "slopscope.cli", *argv], env, budget(), work / "stderr.txt")
        failures = [] if code == 0 else [f"{argv[0]} exited with {code}: {tail(work / 'stderr.txt')}"]
        note(failures)
        return wall, peak, failures

    def reference() -> float:
        wall, _, code = spawner.run(["-I", "-c", REFERENCE], env, budget(), work / "stderr.txt")
        if code != 0:
            raise RuntimeError(f"the reference program exited with {code}: {tail(work / 'stderr.txt')}")
        return wall

    if not trace:
        cli(["rules", "list"])  # warms the bytecode cache; not counted
        walls, scaled, rss, setup, setup_scaled = [], [], [], [], []
        before = reference()
        loop_start = time.perf_counter()
        while not walls or (not smoke and (time.perf_counter() - loop_start < seconds or len(walls) < MIN_COMMANDS)):
            if time.perf_counter() - started > DEADLINE_S - 10:
                break
            wl.out.unlink(missing_ok=True)
            wall, peak, failures = cli(wl.argv())
            if not failures:
                failures += checker(wl.out.read_bytes()) if wl.out.exists() else ["no report written"]
                if failures:
                    result["failures"].append(failures)
            after = reference()
            walls.append(wall)
            scaled.append(wall * REFERENCE_S * 2 / (before + after))
            rss.append(peak)
            before = after
            if len(walls) % 2:
                # Program set-up alone, after every other command: interpreter
                # start, imports, YAML load and rule compilation, as
                # ``slopscope rules list`` does them.
                wall, _, _ = cli(["rules", "list"])
                before = reference()
                setup.append(wall)
                setup_scaled.append(wall * REFERENCE_S * 2 / (after + before))
        wall_s = statistics.median(scaled)
        result["metrics"] = {
            "wall_s": (wall_s, "s"),
            "kloc_per_s": (checker.kloc / wall_s, "kLOC/s"),
            "peak_rss_mib": (statistics.median(rss), "MiB"),
            "setup_s": (statistics.median(setup_scaled), "s"),
        }
        result["samples"] = {"wall_s": walls, "setup_s": setup, "scaled_wall_s": scaled, "scaled_setup_s": setup_scaled}
    else:
        result.update(traced_runs(wl, checker, seconds, smoke, started, note))
    result["score_digest"] = checker.digest
    result["pinned"] = pin_key(name, wl) in checker.pinned
    result["kloc"] = checker.kloc
    result["traffic"] = checker.traffic
    shutil.rmtree(work, ignore_errors=True)
    return result


def tail(path: Path) -> str:
    try:
        return path.read_text(errors="replace").strip().splitlines()[-1][:200]
    except (OSError, IndexError):
        return ""


def traced_runs(wl: Workload, checker: Checker, seconds: float, smoke: bool, started: float, note) -> dict:
    """Alternate untraced and traced in-process runs of the workload command;
    per-layer metrics are medians over the traced runs."""
    import tempfile

    sys.path.insert(0, str(SRC))
    os.environ.update(child_env(wl.work))
    os.environ.pop("SLOPSCOPE_RULES", None)
    from slopscope import cli  # noqa: E402
    from spans import Tracer  # noqa: E402

    tempfile.tempdir = str(wl.work / "tmp")
    rule_ids = per_layer_rule_ids()
    untraced, traced, layers, absent, errors = [], [], [], set(), set()
    loop_start = time.perf_counter()
    while not traced or (not smoke and time.perf_counter() - loop_start < seconds):
        if time.perf_counter() - started > DEADLINE_S - 10:
            break
        for tracing in (False, True):
            wl.out.unlink(missing_ok=True)
            tracer = Tracer()
            gc.collect()
            if tracing:
                tracer.install()
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                code = cli.main(wl.argv())
            except (Exception, SystemExit) as exc:  # the program under test failed, not the benchmark
                code = f"{type(exc).__name__}: {exc}"
            finally:
                wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
                tracer.uninstall()
            failures = [] if code == 0 else [f"in-process run returned {code}"]
            if code == 0:
                failures += checker(wl.out.read_bytes()) if wl.out.exists() else ["no report written"]
            note(failures)
            if tracing:
                traced.append(wall)
                layers.append(tracer.layer_metrics(wall, cpu, rule_ids, wl.kind))
                absent.update(tracer.gaps(wl.kind))
                errors.update(tracer.count_errors)
            else:
                untraced.append(wall)
    metrics = {key: statistics.median(run.get(key, 0.0) for run in layers) for key in set().union(*layers)}
    metrics["runtime.tracing_overhead_ratio"] = min(traced) / min(untraced)
    return {"layers": metrics, "absent_hooks": sorted(absent), "count_errors": sorted(errors),
            "samples": {"traced_s": traced, "untraced_s": untraced}}


# -- configuration and output ---------------------------------------------------------


def benchmark_config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_rule_ids() -> list[str]:
    prefix = "rules.matches."
    return [m["name"][len(prefix):] for m in benchmark_config()["per_layer"] if m["name"].startswith(prefix)]


def environment() -> dict:
    def git_version() -> str:
        try:
            return subprocess.run(["git", "--version"], capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unavailable"

    code = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            code.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "stdlib": corpus.sysconfig.get_paths()["stdlib"],
        "git": git_version(),
        "nproc": os.cpu_count(),
        "code_sha256": code.hexdigest(),
    }


def metric_lines(result: dict, config: dict, trace: bool) -> tuple[dict, list[str]]:
    """The JSON metrics dict and printable lines, in BENCHMARK.json order."""
    specs = config["per_layer"] if trace else config["end_to_end"]
    out = {}
    for spec in specs:
        if trace:
            out[spec["name"]] = {"value": result["layers"].get(spec["name"], 0.0), "unit": spec["unit"]}
        else:
            value, unit = result["metrics"][spec["name"]]
            out[spec["name"]] = {"value": value, "unit": unit}
    lines = [f"  {name:<44} {m['value']:.6g} {m['unit']}" for name, m in out.items()]
    if not trace:
        failed, attempted = len(result["failures"]), result["attempted"]
        lines.append(f"  {'failed_ratio':<44} {failed / attempted:.6g} ratio  ({failed} of {attempted} commands)")
        walls = result["samples"]["wall_s"]
        lines.append(f"  {'(raw command wall)':<44} median {statistics.median(walls):.6g} s, min {min(walls):.6g} s"
                     f" over {len(walls)} commands")
    return out, lines


def baseline_table(result: dict) -> list[str]:
    """Per-workload split by layer and per-rule ranking (the ROADMAP's
    baseline table, measured)."""
    m = result["layers"]
    lines = [
        f"  split  scan {m['scan.tree_s']:.3f} s | rules {m['rules.match_s']:.3f} s"
        f" | clones {m['clones.normalize_s'] + m['clones.index_s']:.3f} s"
        f" | materialise {m['history.materialize_s']:.3f} s"
        f" | unattributed {m['runtime.unattributed_s']:.3f} s  ({result['kloc']:.3f} kLOC)",
    ]
    ranking = sorted(((v, k.split(".", 2)[2]) for k, v in m.items() if k.startswith("patterns.find_s.")), reverse=True)
    total = sum(v for v, _ in ranking) or 1.0
    lines.append("  top-5 rules by find time: " + ", ".join(f"{r} {v:.3f} s" for v, r in ranking[:5]))
    lines.append("  per-rule find_s ranking:")
    lines += [f"    {i:2d}. {r:<28} {v:.4f} s  {100 * v / total:5.1f}%" for i, (v, r) in enumerate(ranking, 1)]
    if result["absent_hooks"] or result["count_errors"]:
        lines.append(f"  hook gaps: {', '.join(result['absent_hooks']) or '-'};"
                     f" counter errors: {'; '.join(result['count_errors']) or '-'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, one command each (self-test)")
    parser.add_argument("--record", metavar="FILE", help="also write the full result, with environment and corpus digests")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "slopscope" / "cli.py").is_file() or not SCHEMAS.is_dir():
        print(f"perfbench: no slopscope sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    config = benchmark_config()
    env = environment()
    work_root = HERE / "_work" / str(os.getpid())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = (args.seconds or config["run_seconds"]) / len(names)
    results = []
    spawner = Spawner()
    try:
        for name in names:
            results.append(measure(name, args.seed, seconds, bool(args.trace), args.smoke, work_root, started, spawner))
    finally:
        spawner.close()
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()  # only if no other run is using it

    print(f"perfbench: python {env['python']} ({env['stdlib']}), {env['git']}, nproc {env['nproc']},"
          f" code sha256 {env['code_sha256'][:16]}")
    metrics: dict = {}
    for r in results:
        pinned = "pinned" if r["pinned"] else "not pinned for this corpus and Python"
        print(f"{r['workload']} seed {r['seed']}: corpus {json.dumps(r['corpus'], sort_keys=True)},"
              f" score digest {r['score_digest'][:16] or '-'} ({pinned}), {r['attempted']} commands")
        if r["traffic"]:
            print("  input: " + ", ".join(f"{k} {v:.4g}" for k, v in r["traffic"].items()))
        for failures in r["failures"][:5]:
            print("  FAILED: " + "; ".join(failures[:4]))
        out, lines = metric_lines(r, config, bool(args.trace))
        print("\n".join(lines))
        if args.trace:
            print("\n".join(baseline_table(r)))
        metrics.update(out if len(names) == 1 else {f"{r['workload']}.{k}": v for k, v in out.items()})
        r["metrics_json"] = out
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "trace": args.trace, "smoke": args.smoke, "results": results}, fh,
                      indent=2, sort_keys=True, default=str)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

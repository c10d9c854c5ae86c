"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public attributes of slopscope's modules (and
of the Python grammar adapter) with wrappers that record a span per call:
name, start, end and the index of the enclosing span. Nothing in ``src/``
is edited. A hook whose module or attribute no longer exists is reported
as absent and skipped, and so is a hook whose result no longer has the
shape its counters read, a hook the command should reach but never calls,
and a rule-matching call whose rule is unknown because the rules were
loaded past their hook: a refactor that removes or changes a function
leaves that layer at zero and shows up in ``trace.hooks_absent`` and
``runtime.unattributed_s`` instead of breaking the run.

Spans and counters stay in memory; ``layer_metrics`` turns them into the
per-layer metrics once the traced command has finished.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import time

# Spans that only group other layers. Their self time is glue code of the
# program that no layer hook covers, so it counts as unattributed.
CONTAINERS = {"scan.checkpoint", "history.run", "history.checkpoint", "clones.detect"}

# Spans that a command of each kind never reaches; every other installed
# hook must be called at least once.
NOT_REACHED = {
    "scan": {"history.run", "history.list", "history.materialize", "history.checkpoint",
             "trajectory.summary", "trajectory.era"},
    "history": {"scan.checkpoint"},
}


def _scan_counts(t: "Tracer", result, args) -> None:
    inventory = result[0]
    t.count("scan.files", len(inventory.files))
    t.count("scan.skipped", len(inventory.skipped))


def _match_counts(t: "Tracer", result, args) -> None:
    t.count("rules.matches", len(result))
    for m in result:
        t.count(f"rules.matches.{m.rule_id}", 1)


def _rule_ids(t: "Tracer", result, args) -> None:
    t.rule_of = {id(result.compiled(rule)): rule.id for rule in result}


def _clone_counts(t: "Tracer", result, args) -> None:
    t.count("clones.regions", len(result))
    t.count("clones.classes", len({r.clone_class_id for r in result}))


def _history_counts(t: "Tracer", result, args) -> None:
    t.count("history.checkpoints", len(result.checkpoints))


# (module or adapter, attribute, span name, result handler)
HOOKS = (
    ("slopscope.cli", "load_starter_rules", "rules.load", _rule_ids),
    ("slopscope.cli", "measure_checkpoint", "scan.checkpoint", None),
    ("slopscope.cli", "measure_history", "history.run", _history_counts),
    ("slopscope.cli", "canonical_json", "report.serialize",
     lambda t, r, a: t.count("report.bytes", len(r.encode("utf-8")))),
    ("slopscope.history", "sample_commits", "history.list", lambda t, r, a: t.count("history.sampled", len(r))),
    ("slopscope.history", "materialize_commit", "history.materialize", None),
    ("slopscope.history", "measure_checkpoint", "history.checkpoint", None),
    ("slopscope.history", "scan_tree_with_sources", "scan.tree", _scan_counts),
    ("slopscope.history", "match_rules", "rules.match", _match_counts),
    ("slopscope.history", "detect_clones", "clones.detect", None),
    ("slopscope.history", "erosion_score", "erosion.score", None),
    ("slopscope.history", "trajectory_summary", "trajectory.summary", None),
    ("slopscope.history", "era_split", "trajectory.era", None),
    ("slopscope.rules", "find_matches", "patterns.find", None),
    ("slopscope.clones", "normalize_file", "clones.normalize",
     lambda t, r, a: t.count("clones.norm_lines", len(r.lines))),
    ("slopscope.clones", "detect_clones_normalized", "clones.index", _clone_counts),
    ("slopscope.verbosity", "verbosity_score", "verbosity.union", None),
    ("adapter:python", "parse", "adapters.parse", None),
    ("adapter:python", "enumerate_callables", "adapters.callables",
     lambda t, r, a: t.count("adapters.callables", len(r))),
)


def _owner(where: str):
    if where.startswith("adapter:"):
        return importlib.import_module("slopscope.adapters").ADAPTERS[where.split(":", 1)[1]]
    return importlib.import_module(where)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, label]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.rule_of: dict[int, str] = {}
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self.count_errors: list[str] = []
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0
        self._restore: list[tuple[object, str, object, bool]] = []

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, fn, name: str, on_result):
        tracer = self

        def traced(*args, **kwargs):
            label = tracer.rule_of.get(id(args[0]), "unknown") if name == "patterns.find" and args else None
            index = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1, label]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                try:
                    on_result(tracer, result, args)
                except (AttributeError, TypeError, IndexError, KeyError) as exc:
                    tracer.count_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause += time.perf_counter() - self._gc_start
            self.gc_gen2 += info.get("generation") == 2

    def install(self) -> None:
        for where, attr, name, on_result in HOOKS:
            try:
                owner = _owner(where)
                original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{where}.{attr}")
                continue
            self._restore.append((owner, attr, original, attr in vars(owner)))
            self.installed.add(name)
            setattr(owner, attr, self._wrap(original, name, on_result))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:  # a bound method looked up through the class
                delattr(owner, attr)
        self._restore.clear()

    # -- reduction --------------------------------------------------------

    def gaps(self, kind: str) -> list[str]:
        """Every hook that did not trace what it should have on a command
        of ``kind`` ("scan" or "history")."""
        called = {span[0] for span in self.spans}
        out = list(self.absent)
        out += sorted({e.split(":")[0] + " (counters failed)" for e in self.count_errors})
        out += [f"{name} (never called)" for name in sorted(self.installed - called - NOT_REACHED[kind])]
        if any(span[0] == "patterns.find" and span[4] == "unknown" for span in self.spans):
            out.append("patterns.find (rule unknown)")
        return out

    def durations(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total time, self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child[i]
            calls[name] = calls.get(name, 0) + 1
        return total, own, calls

    def layer_metrics(self, wall: float, cpu: float, rule_ids: list[str], kind: str) -> dict[str, float]:
        total, own, calls = self.durations()
        c = self.counters.get
        m: dict[str, float] = {
            "rules.load_s": total.get("rules.load", 0.0),
            "scan.tree_s": total.get("scan.tree", 0.0),
            "scan.self_s": own.get("scan.tree", 0.0),
            "scan.files": c("scan.files", 0),
            "scan.skipped": c("scan.skipped", 0),
            "adapters.parse_s": total.get("adapters.parse", 0.0),
            "adapters.parse_calls": calls.get("adapters.parse", 0),
            "adapters.callables_s": total.get("adapters.callables", 0.0),
            "adapters.callables": c("adapters.callables", 0),
            "rules.match_s": total.get("rules.match", 0.0),
            "rules.match_calls": calls.get("rules.match", 0),
            "rules.matches": c("rules.matches", 0),
            "rules.regex_s": own.get("rules.match", 0.0),
            "patterns.find_s": total.get("patterns.find", 0.0),
            "patterns.find_calls": calls.get("patterns.find", 0),
            "clones.normalize_s": total.get("clones.normalize", 0.0),
            "clones.index_s": total.get("clones.index", 0.0),
            "clones.norm_lines": c("clones.norm_lines", 0),
            "clones.regions": c("clones.regions", 0),
            "clones.classes": c("clones.classes", 0),
            "verbosity.union_s": total.get("verbosity.union", 0.0),
            "erosion.score_s": total.get("erosion.score", 0.0),
            "trajectory.summary_s": total.get("trajectory.summary", 0.0) + total.get("trajectory.era", 0.0),
            "report.serialize_s": total.get("report.serialize", 0.0),
            "report.bytes": c("report.bytes", 0),
        }
        find_by_rule: dict[str, float] = {}
        for name, start, end, _, label in self.spans:
            if name == "patterns.find":
                find_by_rule[label] = find_by_rule.get(label, 0.0) + end - start
        for rule in rule_ids:
            m[f"rules.matches.{rule}"] = c(f"rules.matches.{rule}", 0)
        for rule, seconds in find_by_rule.items():
            m[f"patterns.find_s.{rule}"] = seconds

        checkpoints = [end - start for name, start, end, _, _ in self.spans if name == "history.checkpoint"]
        m.update({
            "history.list_s": total.get("history.list", 0.0),
            "history.materialize_s": total.get("history.materialize", 0.0),
            "history.materialize_calls": calls.get("history.materialize", 0),
            "history.checkpoint_s": sum(checkpoints),
            "history.checkpoints": c("history.checkpoints", 0),
            "history.commits_dropped": c("history.sampled", 0) - c("history.checkpoints", 0),
            "history.first_checkpoint_s": checkpoints[0] if checkpoints else 0.0,
            "history.later_checkpoint_s": statistics.median(checkpoints[1:]) if len(checkpoints) > 1 else 0.0,
        })
        attributed = sum(t for name, t in own.items() if name not in CONTAINERS)
        m.update({
            "runtime.gc_pause_s": self.gc_pause,
            "runtime.gc_gen2": self.gc_gen2,
            "runtime.cpu_s": cpu,
            "runtime.unattributed_s": max(0.0, wall - attributed),
            "trace.hooks_absent": len(self.gaps(kind)),
        })
        return m

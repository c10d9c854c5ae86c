"""Compare two benchmark records written by ``run.py --record FILE``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints, per workload and metric, the value before and after and the
change. Two records are comparable only if they ran the same workloads on
the same seeds, with the same Python version, in the same trace mode, and
every corpus digest is equal; otherwise this exits with code 2 and prints
no comparison.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(before: dict, after: dict) -> list[str]:
    out = []
    py_b, py_a = before["environment"]["python"], after["environment"]["python"]
    if py_b != py_a:
        out.append(f"python differs: {py_b} vs {py_a}")
    if before["trace"] != after["trace"] or before["smoke"] != after["smoke"]:
        out.append("trace or smoke mode differs")
    runs_b = {(r["workload"], r["seed"]): r for r in before["results"]}
    runs_a = {(r["workload"], r["seed"]): r for r in after["results"]}
    if set(runs_b) != set(runs_a):
        out.append(f"workloads or seeds differ: {sorted(runs_b)} vs {sorted(runs_a)}")
    for key in sorted(set(runs_b) & set(runs_a)):
        if runs_b[key]["corpus"] != runs_a[key]["corpus"]:
            out.append(f"{key[0]} seed {key[1]}: corpus digest differs")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    before, after = load(argv[0]), load(argv[1])
    problems = mismatches(before, after)
    if problems:
        for p in problems:
            print(f"compare: not comparable: {p}", file=sys.stderr)
        return 2
    print(f"before code {before['environment']['code_sha256'][:16]}, after code {after['environment']['code_sha256'][:16]}")
    runs_a = {(r["workload"], r["seed"]): r for r in after["results"]}
    for rb in before["results"]:
        ra = runs_a[(rb["workload"], rb["seed"])]
        print(f"{rb['workload']} seed {rb['seed']}")
        for name, mb in rb["metrics_json"].items():
            ma = ra["metrics_json"].get(name)
            if ma is None:
                print(f"  {name:<44} {mb['value']:.6g} -> absent")
                continue
            change = f"{100 * (ma['value'] / mb['value'] - 1):+.1f}%" if mb["value"] else "n/a"
            print(f"  {name:<44} {mb['value']:.6g} -> {ma['value']:.6g} {mb['unit']}  {change}")
        print(f"  {'failed':<44} {len(rb['failures'])} -> {len(ra['failures'])} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

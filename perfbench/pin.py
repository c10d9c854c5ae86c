"""Pin the score digests of every workload for seeds 0..N-1.

    python3 perfbench/pin.py [N]

Runs each workload's command once in-process, refuses to pin a report
that fails any other check, and merges the digests into
``perfbench/pinned.json`` under keys
``<workload>/<seed>/<python version>/<corpus digest>``.
Pin only code whose scores are known to be right: the benchmark then fails
every later run whose score-bearing output differs.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile

import run


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 32
    sys.path.insert(0, str(run.SRC))
    from slopscope import cli

    pinned = run.load_pinned()
    work_root = run.HERE / "_work" / "pin"
    status = 0
    try:
        for seed in range(n):
            for name, cls in run.WORKLOADS.items():
                work = work_root / f"{name}-{seed}"
                (work / "tmp").mkdir(parents=True)
                wl = cls(seed, work, smoke=False)
                wl.build()
                tempfile.tempdir = str(work / "tmp")
                os.environ.update(run.child_env(work))
                checker = run.Checker(wl, name, {})
                code = cli.main(wl.argv())
                failures = checker(wl.out.read_bytes()) if code == 0 else [f"exit code {code}"]
                if failures:
                    print(f"{name} seed {seed}: not pinned: {'; '.join(failures[:3])}", file=sys.stderr)
                    status = 1
                else:
                    pinned[run.pin_key(name, wl)] = checker.digest
                    print(f"{name} seed {seed}: {checker.digest[:16]}", flush=True)
                shutil.rmtree(work)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()
    with open(run.HERE / "pinned.json", "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(pinned.items())), fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Starts the benchmark's child processes and reports their wall time and peak RSS.

Linux carries a process's peak RSS across ``exec`` from the process that
forked it, so a child forked by the benchmark itself would report at least
the benchmark's own peak (corpora, JSON Schema, parsed reports). This
helper stays small, so the peak RSS it reads from ``wait4`` is the child's.

Protocol: one JSON request per line on stdin,
``{"argv", "env", "cwd", "timeout", "stderr"}``; one JSON reply per line on
stdout, ``{"wall", "rss_kib", "code"}``, where ``code`` is null on timeout.
The helper exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run(req: dict) -> dict:
    with open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], env=req["env"], cwd=req["cwd"],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        proc.returncode = -9 if code is None else code  # reaped by wait4 above
    return {"wall": wall, "rss_kib": usage.ru_maxrss, "code": code}


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Start benchmark children one at a time and report what each one used.

Reads one JSON argv list per stdin line and answers with one JSON object
per stdout line: exit code, wall and CPU seconds, peak RSS and the tail
of stderr.  A child's ru_maxrss includes the memory of the process that
forked it, so children are started from here, a process that imports
only the standard library, rather than from the benchmark, which holds
numpy, scipy and the outputs it checks.

    python3 bench/launcher.py    # run with cwd set to a scratch directory
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120.0


def run(argv: list[str]) -> dict:
    """Run one child to completion; CPU and peak RSS include its reaped children."""
    with open("stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open("stderr.txt", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()[-500:]
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        "stderr": stderr,
    }


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)

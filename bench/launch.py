"""Run one command as the child of this small process and record its cost.

Usage: python3 -S launch.py RESULT_JSON TIMEOUT_S COMMAND [ARG...]

Linux carries the peak RSS of the process that forks into the child's
``ru_maxrss``, so a child started straight from the benchmark (which holds
its inputs and numpy) would report at least the benchmark's own size.
This launcher is a fresh interpreter of about 10 MB, so the ``os.wait4``
figures it writes belong to the command alone.  It times the command
itself and passes the command's exit code through.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    result_path, timeout = sys.argv[1], float(sys.argv[2])
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[3:])
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "exit_code": code,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

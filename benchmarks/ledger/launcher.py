"""Run one command; write its wall time, exit code and peak RSS as JSON.

    python3 -S launcher.py RESULT_FILE CPUS COMMAND [ARG ...]

The harness starts every operation through this small process instead of
directly.  On Linux a child takes over, when it execs, the peak RSS of the
memory it was spawned from, so a direct child of the harness (which has just
synthesized a dataset) would report at least the harness's own size.  A
child of this launcher starts from a few megabytes.  Peak RSS comes from
``os.wait4``: the largest single process of the command's tree.  The
command runs pinned to CPUS (comma-separated), where the harness measures
the host's speed while it runs.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    result_path, cpus, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(",")})
    started = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"wall": wall, "rc": proc.returncode,
                   "rss_mb": usage.ru_maxrss / 1024.0}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Start benchmark child processes and report their wall time and peak RSS.

Linux carries the peak RSS of a process's memory over fork and exec into
the child's ``ru_maxrss``, so a child started straight from run.py would
report at least run.py's own peak. run.py therefore starts this small
process first and sends it one JSON request per line on stdin:

    {"argv": [...], "cwd": ..., "stdout": path, "stderr": path}

and reads one JSON reply per line from stdout:

    {"code": exit code, "wall_s": seconds, "rss_kb": peak RSS in KiB}

A child still running after ``CHILD_TIMEOUT_S`` seconds is killed. Only the
standard library is imported, so this process stays far smaller than any
child.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 60    # a hung child is killed well inside the 180 s run limit


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                cwd=request["cwd"])
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

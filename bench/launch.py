"""Start the benchmark's child processes from a small process.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the process that
started it, so children started by the benchmark itself would report the
benchmark's own memory whenever it exceeds theirs. This launcher imports
nothing heavy and does no work of its own, so the peak RSS it passes on is
smaller than any ``wordlen`` call's.

It reads one JSON request per line on stdin (``argv``, ``env``, ``cwd``,
``stdout``, ``stderr``, ``timeout``), runs the child with stdout and stderr
sent to those files, and answers with one JSON line: ``returncode``,
``wall_s`` (from launch to exit) and ``peak_rss_kb`` (from ``os.wait4``). It
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        with subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                              env=req["env"], cwd=req["cwd"]) as proc:
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall, "peak_rss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

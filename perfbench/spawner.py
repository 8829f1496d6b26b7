"""Starts each CLI job for run.py and reports its time and peak RSS.

On Linux a child's ru_maxrss also counts the memory of the process that
forked it.  run.py holds numpy and every job's output, so it does not fork
the jobs itself: this small process, which imports only the standard
library, does.  It first prints one line to say it is ready.  Then run.py
writes one JSON request a line to its stdin; it answers each with one JSON
line, and exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def launch(request):
    """Run one job with its stdout and stderr going to files."""
    timeout = request["timeout"]
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "seconds": seconds,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": proc.returncode == -9 and seconds >= timeout,
    }


def main():
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

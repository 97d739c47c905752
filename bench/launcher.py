"""Starts and reaps the benchmark's child processes, one at a time.

Reads one JSON request per line on stdin, {"argv", "cwd", "timeout",
"stdout"}; runs argv with its stdout in the named file, reaps it with
os.wait4 and answers one JSON line, {"rc", "wall_s", "rss_mb",
"timed_out"}.  A timer kills a child that outlives its timeout.  Exits at
the end of its input.

The benchmark starts its children through this small process, not
directly: exec records the high-water mark of the address space it
replaces, so a child started straight from the benchmark would count the
benchmark's own memory (inputs, expected answers) in its peak RSS.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv, cwd, timeout, out_path):
    state = {"done": False, "killed": False}
    lock = threading.Lock()

    def kill(pid):
        with lock:
            if not state["done"]:
                state["killed"] = True
                os.kill(pid, signal.SIGKILL)

    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out,
                                stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(timeout, 0.01), kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            with lock:
                state["done"] = True
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0, "timed_out": state["killed"]}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        res = run(req["argv"], req["cwd"], req["timeout"], req["stdout"])
        sys.stdout.write(json.dumps(res) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

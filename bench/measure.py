"""Fresh-process timing, per-child peak memory, oracle checks and failure
accounting, shared by the workload runs, the self-test and the ladder."""

from __future__ import annotations

import hashlib
import platform
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(BENCH, "worker.py")
LAUNCHER = os.path.join(BENCH, "launcher.py")
PY = sys.executable


class Child:
    """One finished child process."""

    def __init__(self, rc, stdout, wall_s, rss_mb, timed_out):
        self.rc = rc
        self.stdout = stdout
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.timed_out = timed_out


class Launcher:
    """Runs child processes one at a time through launcher.py, which stays
    small, so each child's peak RSS is its own.  Use as a context manager:
    leaving it ends the launcher and waits for it."""

    def __enter__(self):
        # every child inherits the launcher's environment: cupi from SRC
        self.proc = subprocess.Popen([PY, LAUNCHER],
                                     env=dict(os.environ, PYTHONPATH=SRC),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def spawn(self, argv, cwd, timeout):
        """Run argv in cwd to completion; stdout goes through a file in cwd,
        so a large output cannot fill a pipe."""
        out_path = os.path.join(cwd, ".child_stdout")
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": cwd,
                                          "timeout": timeout,
                                          "stdout": out_path}) + "\n")
        self.proc.stdin.flush()
        res = json.loads(self.proc.stdout.readline())
        with open(out_path, "rb") as fh:
            stdout = fh.read().decode("utf-8", errors="replace")
        return Child(res["rc"], stdout, res["wall_s"], res["rss_mb"],
                     res["timed_out"])

    def worker(self, args, cwd, timeout):
        """A traced worker; returns (Child, its parsed report or None)."""
        child = self.spawn([PY, WORKER, SRC] + args, cwd, timeout)
        if child.rc != 0 or child.timed_out:
            return child, None
        try:
            return child, json.loads(child.stdout.splitlines()[-1])
        except (ValueError, IndexError):
            return child, None


# On a shared 2-vCPU KVM guest (Xeon, Python 3.11) the speed of Python code
# changed by up to 1.7x for tens of seconds at a time, which moved raw wall
# times by more than any bound worth gating on.  So every measured child is
# bracketed by a fixed reference workload, and its time is reported as
# seconds at the reference speed: wall * REFERENCE_NOMINAL_S / (mean of the
# reference times just before and just after it).  The reference does the
# kind of work cupi does, so it tracks the speed closely for short children
# and less closely for children of several seconds, during which the speed
# can change.  The raw times are reported beside the scaled ones.
REFERENCE_NOMINAL_S = 0.05


def reference_s():
    """Faster of two runs of a fixed workload of tuple-keyed dict inserts,
    list values and int sums; about REFERENCE_NOMINAL_S on a quiet machine."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        table = {}
        for i in range(60_000):
            table[(i, i * 7 % 1013, (i % 5,))] = [i]
        total = 0
        for key, val in table.items():
            total += key[1] + val[0]
        best = min(best, time.perf_counter() - t0)
    return best


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Ledger:
    """Counts every checked command and records why each failure failed.

    A timeout, an unexpected exit code, a stdout that disagrees with the
    oracle, and a stdout that differs from an earlier repeat of the same
    command each count once; none of them stops the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def check(self, key, cmd, rc, stdout, timed_out):
        self.attempted += 1
        problem = verdict(cmd, rc, stdout, timed_out)
        if problem is None:
            if self.digests.setdefault(key, digest(stdout)) != digest(stdout):
                problem = "stdout differs between repeats"
        if problem is not None:
            self.failures.append({"command": " ".join(cmd["argv"]),
                                  "problem": problem})
        return problem is None

    @property
    def failed(self):
        return len(self.failures)


def verdict(cmd, rc, stdout, timed_out):
    """None when the output matches the oracle, else the problem."""
    if timed_out:
        return "timeout"
    if rc != cmd["rc"]:
        return f"exit code {rc}, expected {cmd['rc']}"
    if cmd["stdout"] is not None and stdout != cmd["stdout"]:
        return "stdout differs from the oracle"
    if cmd["check"] is not None:
        try:
            return cmd["check"](stdout)
        except Exception as exc:  # an unreadable output is one failure
            return f"unreadable stdout: {exc!r}"
    return None


def summary(values):
    """(median, q1, q3, n) as statistics.quantiles gives the quartiles."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def provenance(seed):
    """Where and on what the result was measured.  A checkout without
    .git has no SHA; the digest of src/cupi identifies the code either way."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top, sha = None, None
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        sha = None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "cupi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed}

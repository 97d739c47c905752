"""cupi benchmark: fresh-process CLI workloads, checked against an oracle.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--out F]
    python3 bench/run.py compare PARENT.jsonl CHANGE.jsonl
    python3 bench/run.py selftest
    python3 bench/run.py ladder [--out F]

A run generates the workload's inputs and expected answers from the seed
(set up nine times; `setup_s` is the median), then cycles through the
workload's command list, one `python -m cupi.cli` child at a time, until
the next command would end after S seconds.  Every stdout and exit code is
checked against the oracle in oracle.py, which does not import cupi.  With
--trace 0 the last line holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run (worker.py) with an untraced
pass beside it, so the tracing overhead is measured.  Run from the
repository root.

Times are medians in seconds at the reference speed (see measure.py:
each child's wall time scaled by the speed of a fixed reference workload
measured just before and after it); the raw medians are printed beside
them.  failed_frac, the share of checked commands that failed, is printed
and is `failed` / `attempted` in the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import corpus
from measure import (PY, REFERENCE_NOMINAL_S, SRC, WORK, Launcher, Ledger,
                     load_benchmark, provenance, reference_s, summary)

T_START = time.perf_counter()
HARD_LIMIT_S = 165          # a run ends well inside the 180 s it is given
COMMAND_TIMEOUT_S = 120
SETUP_REPEATS = 9

# per-layer time metric -> span name recorded by worker.py
SPAN_METRICS = {
    "chains.homology_s": "chains.homology",
    "chains.snf_s": "chains.snf",
    "chains.normalized_chains_s": "chains.normalized_chains",
    "chains.chain_law_s": "chains.chain_law",
    "chains.induced_map_s": "chains.induced_map",
    "chains.homology_classes_s": "chains.homology_classes",
    "steenrod.mod2_cohomology_s": "steenrod.mod2_cohomology",
    "steenrod.square_matrix_s": "steenrod.square_matrix",
    "steenrod.verify_structure_s": "steenrod.verify_structure",
    "steenrod.xi_s": "steenrod.xi",
    "steenrod.table_build_s": "steenrod.table_build",
    "steenrod.structure_for_s": "steenrod.structure_for",
    "reconstruct.enumerate_s": "reconstruct.enumerate",
    "reconstruct.verify_reconstruction_s": "reconstruct.verify_reconstruction",
    "reconstruct.is_morphism_s": "reconstruct.is_morphism",
    "reconstruct.lift_s": "reconstruct.lift",
    "reconstruct.homology_square_s": "reconstruct.homology_square",
    "simplicial.adjoin_s": "simplicial.adjoin",
    "io.load_complex_s": "io.load_complex",
    "io.load_chain_map_s": "io.load_chain_map",
}


def remaining():
    return HARD_LIMIT_S - (time.perf_counter() - T_START)


def timeout():
    return min(COMMAND_TIMEOUT_S, max(remaining(), 0.01))


class Workload:
    """One measured run of a workload's command list.

    Every measured step (the set-up repeats, each child process) is
    preceded by a reference measurement, and one more follows the last, so
    step g is scaled by REFERENCE_NOMINAL_S / mean(refs[g], refs[g + 1]).
    """

    def __init__(self, launcher, name, seed, seconds):
        self.launcher = launcher
        self.name = name
        self.seconds = seconds
        self.workdir = os.path.join(WORK, name)
        self.refs = [reference_s()]
        self.setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.inputs = corpus.setup(name, seed, self.workdir)
            self.setup_s.append(time.perf_counter() - t0)
        self.commands = self.inputs.commands
        self.ledger = Ledger()
        self.untraced = []   # (command, step, wall, rss, import wall or None)
        self.traced = []     # per traced pass: [(step, wall, report or None)]
        self.probe = None

    def step(self):
        """Measure the reference before the next step; return the step's
        index (0 is the set-up)."""
        self.refs.append(reference_s())
        return len(self.refs) - 1

    def scale(self, g):
        return REFERENCE_NOMINAL_S / ((self.refs[g] + self.refs[g + 1]) / 2)

    def untraced_command(self, i):
        cmd = self.commands[i]
        g = self.step()
        child = self.launcher.spawn([PY, "-m", "cupi.cli"] + cmd["argv"],
                                    self.workdir, timeout())
        imp = self.launcher.spawn([PY, "-c", "import cupi"], self.workdir,
                                  timeout())
        self.ledger.check(i, cmd, child.rc, child.stdout, child.timed_out)
        self.untraced.append((i, g, child.wall_s, child.rss_mb,
                              imp.wall_s if imp.rc == 0 else None))

    def traced_pass(self):
        workers = []
        for i, cmd in enumerate(self.commands):
            g = self.step()
            child, rep = self.launcher.worker(["cli"] + cmd["argv"],
                                              self.workdir, timeout())
            ok = self.ledger.check(i, cmd, rep["rc"] if rep else child.rc,
                                   rep["stdout"] if rep else "",
                                   child.timed_out)
            workers.append((g, child.wall_s, rep if ok else None))
        self.traced.append(workers)

    def run_probe(self):
        spec = dict(self.inputs.probe)
        spec["table_level"] = max([rep["table_level"] for p in self.traced
                                   for _, _, rep in p if rep] or [1])
        path = os.path.join(self.workdir, "probe.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        g = self.step()
        child, rep = self.launcher.worker(["probe", path], self.workdir,
                                          timeout())
        self.ledger.attempted += 1
        if rep is None:
            self.ledger.failures.append({"command": "probe",
                                         "problem": f"exit code {child.rc}"})
        else:
            self.probe = (g, rep)

    def measure(self, trace):
        """Untraced: cycle through the commands, one at a time, until the
        next one is expected to end after the run's seconds; every command
        runs at least once and the sample counts differ by at most one.
        Traced: whole untraced and traced passes in pairs, then the probe."""
        warm = self.launcher.spawn([PY, "-c", "import cupi"], self.workdir,
                                   timeout())
        if warm.rc != 0:
            raise SystemExit("error: cannot import cupi from src/")
        n = len(self.commands)
        t0 = time.perf_counter()
        i = 0
        while True:
            t_step = time.perf_counter()
            if trace:
                for k in range(n):
                    self.untraced_command(k)
                self.traced_pass()
            else:
                self.untraced_command(i % n)
            i += 1
            now = time.perf_counter()
            last = now - t_step if trace else statistics.median(
                [w for k, _, w, _, _ in self.untraced if k == i % n] or [0.0])
            if (trace or i >= n) and (now - t0 + last > self.seconds
                                      or remaining() < last):
                break
        if trace:
            self.run_probe()
        self.step()

    def reports(self):
        """(pass, scale, report) of every traced worker that succeeded."""
        return [(p, self.scale(g), rep) for p, workers in enumerate(self.traced)
                for g, _, rep in workers if rep is not None]

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, scaled=True):
        """wall_s sums the per-command medians (and quartiles); the slowest
        command is the one with the largest median.  scaled=False gives the
        raw wall times."""
        def f(g):
            return self.scale(g) if scaled else 1.0

        per_cmd = [summary(w * f(g) for k, g, w, _, _ in self.untraced
                           if k == i) for i in range(len(self.commands))]
        rss = [[r for k, _, _, r, _ in self.untraced if k == i]
               for i in range(len(self.commands))]
        setup_f = f(0)
        return {"wall_s": tuple(sum(c[j] for c in per_cmd) for j in range(3))
                + (min(c[3] for c in per_cmd),),
                "slowest_cmd_s": max(per_cmd),
                "import_s": summary(t * f(g) for _, g, _, _, t in self.untraced
                                    if t is not None),
                "peak_rss_mb": max((max(r),) + summary(r)[1:] for r in rss),
                "setup_s": summary(t * setup_f for t in self.setup_s)}

    def per_layer(self):
        """Span times scaled like the end-to-end times; the probe's calls
        are added to every pass."""
        reports = self.reports()
        passes = sorted({p for p, _, _ in reports})
        probe = [(self.scale(self.probe[0]), self.probe[1])] if self.probe \
            else []

        def per_pass(value):
            """value(scale, report) summed over each traced pass and the
            probe, as (median, q1, q3, n) over the passes."""
            return summary(sum(value(f, r) for q, f, r in reports if q == p)
                           + sum(value(f, r) for f, r in probe)
                           for p in passes)

        out = {metric: per_pass(lambda f, r, s=span: f * r["spans"].get(
                   s, {}).get("total_s", 0.0))
               for metric, span in SPAN_METRICS.items()}
        out["reconstruct.morphisms_found"] = per_pass(
            lambda f, r: r["morphisms_found"])
        out["steenrod.table_terms"] = summary(
            [r["table_terms"] for _, r in probe] or [0])
        out["traced.coverage"] = summary(
            sum(r["outer_s"] for q, _, r in reports if q == p) /
            sum(r["elapsed_s"] for q, _, r in reports if q == p)
            for p in passes)
        # Both sides are fresh-process wall times over the command list, so
        # they pay the same interpreter, import and exit floor; comparing the
        # in-process time with (wall - import_s) instead leaves argparse,
        # json and interpreter teardown on one side only.
        untraced = self.end_to_end()["wall_s"][0]
        out["traced.overhead"] = summary(
            sum(w * self.scale(g) for g, w, _ in workers) - untraced
            for workers in self.traced)
        return out

    def sizes(self):
        """Input sizes, with the slowest call's sizes of every span."""
        sizes = dict(self.inputs.sizes)
        spans = {}
        reports = [r for _, _, r in self.reports()]
        for rep in reports + ([self.probe[1]] if self.probe else []):
            for name, st in rep["spans"].items():
                if st["slowest_s"] > spans.get(name, {}).get("slowest_s", -1):
                    spans[name] = {"slowest_s": st["slowest_s"],
                                   "sizes": st["sizes"]}
        if spans:
            sizes["spans"] = spans
        if self.probe:
            sizes["table_terms"] = self.probe[1]["table_terms"]
        return sizes


def run(args):
    if not os.path.isfile(os.path.join(SRC, "cupi", "__init__.py")):
        sys.stderr.write("error: no src/cupi here; run from the repository "
                         "root\n")
        return 2
    spec = load_benchmark()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    with Launcher() as launcher:
        wl = Workload(launcher, args.workload, args.seed, args.seconds)
        wl.measure(args.trace)
    stats = wl.per_layer() if args.trace else wl.end_to_end()
    if set(stats) != {m["name"] for m in wanted}:
        raise SystemExit("error: metrics out of step with BENCHMARK.json")
    prov = provenance(args.seed)
    sizes = wl.sizes()
    runs = [sum(1 for u in wl.untraced if u[0] == i)
            for i in range(len(wl.commands))]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  untraced runs per command {runs}  traced passes "
          f"{len(wl.traced)}  reference median "
          f"{statistics.median(wl.refs):.4f} s (nominal "
          f"{REFERENCE_NOMINAL_S} s)")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print("# sizes " + json.dumps(sizes, sort_keys=True))
    metrics = {}
    for m in wanted:
        med, q1, q3, n = stats[m["name"]]
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"# {m['name']:<38} {med:12.6g} {m['unit']:<6} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n {n}")
    raw = {} if args.trace else wl.end_to_end(scaled=False)
    for name, (med, q1, q3, n) in raw.items():
        if name != "peak_rss_mb":
            print(f"# raw {name:<34} {med:12.6g} s      "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n {n}")
    failed_frac = wl.ledger.failed / max(wl.ledger.attempted, 1)
    print(f"# failed_frac {failed_frac:.6g} ratio "
          f"({wl.ledger.failed} of {wl.ledger.attempted} commands)")
    for f in wl.ledger.failures:
        print(f"# FAILED {f['command']}: {f['problem']}")
    result = {"correct": wl.ledger.failed == 0,
              "attempted": max(wl.ledger.attempted, 1),
              "failed": wl.ledger.failed, "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "provenance": prov, "sizes": sizes,
                  "failed_frac": failed_frac, "failures": wl.ledger.failures,
                  "stats": {k: dict(zip(("median", "q1", "q3", "n"), v))
                            for k, v in stats.items()},
                  "raw_stats": {k: dict(zip(("median", "q1", "q3", "n"), v))
                                for k, v in raw.items()},
                  "samples": {"reference_s": wl.refs,
                              "setup_s": wl.setup_s,
                              "untraced": wl.untraced,
                              "traced": [[w[:2] for w in p]
                                         for p in wl.traced]},
                  "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        import compare
        return compare.main(argv[1:])
    if argv and argv[0] == "selftest":
        import selftest
        return selftest.main(argv[1:])
    if argv and argv[0] == "ladder":
        import ladder
        return ladder.main(argv[1:])
    p = argparse.ArgumentParser(description="cupi benchmark run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record as a JSON line")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

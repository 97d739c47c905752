"""One-off traced growth ladder; not a gated workload.

    python3 bench/run.py ladder [--out FILE]

Each step runs in a fresh worker process, so the tables and caches start
cold, and prints its span times beside its input sizes:

- homology and Sq^1 on the 2-skeleta on 13, 16 and 19 vertices;
- xi(e_1, sum of all triangles) on the same skeleta (286, 560, 969 terms);
- verify_structure on the standard simplices of dimension 5, 6 and 7.

Each step is timed once, as a single raw sample, with the reference time
(measure.py) taken just before it.  The rows are the growth baseline for
the sparse-combination and sparse-elimination work.
"""

from __future__ import annotations

import argparse
import json
import os

import corpus
from measure import SRC, WORK, Launcher, provenance, reference_s

STEP_TIMEOUT_S = 600


def steps():
    for n in (13, 16, 19):
        facets = corpus.skeleton(n, 2)
        yield f"skel{n}", facets, "homology", None, ["chains.homology",
                                                     "chains.snf"]
        yield f"skel{n}", facets, "squares", "1", [
            "steenrod.mod2_cohomology", "steenrod.square_matrix",
            "steenrod.structure_for"]
        yield f"skel{n}", facets, "xi", None, ["steenrod.xi"]
    for d in (5, 6, 7):
        yield f"delta{d}", corpus.simplex(d), "verify", None, [
            "steenrod.verify_structure"]


def main(argv):
    p = argparse.ArgumentParser(prog="run.py ladder")
    p.add_argument("--out", help="append each row as a JSON line")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cupi", "__init__.py")):
        print("error: no src/cupi here; run from the repository root")
        return 2
    workdir = os.path.join(WORK, "ladder")
    os.makedirs(workdir, exist_ok=True)
    with Launcher() as launcher:
        return run_steps(launcher, workdir, args.out)


def run_steps(launcher, workdir, out):
    status = 0
    prov = provenance(None)
    for name, facets, op, arg, spans in steps():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"facets": facets}, fh)
        ref = reference_s()
        child, rep = launcher.worker(["ladder", op, path] +
                                     ([arg] if arg else []), workdir,
                                     STEP_TIMEOUT_S)
        if rep is None:
            print(f"{name} {op}: FAILED (exit code {child.rc})")
            status = 1
            continue
        row = {"input": name, "op": op, "f_vector": rep["f_vector"],
               "provenance": prov, "reference_s": ref,
               "wall_s": child.wall_s,
               "spans": {s: {k: rep["spans"][s][k]
                             for k in ("calls", "total_s", "self_s", "sizes")}
                         for s in spans if s in rep["spans"]}}
        print(f"{name:<8} {op:<9} wall {child.wall_s:8.3f} s  " +
              "  ".join(f"{s} {v['total_s']:.3f} s {json.dumps(v['sizes'])}"
                        for s, v in row["spans"].items()))
        if out:
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return status

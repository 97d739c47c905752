"""Compare two result sets written by `run.py --out`.

    python3 bench/run.py compare PARENT.jsonl CHANGE.jsonl

Prints one row per workload and metric: each side's median and quartiles,
the change's win share over the runs paired in file order (make the runs
alternate between the two commits, with the same seeds and --seconds), and
a verdict:

- improved: at least ten pairs, the change wins at least 9 in 10 of them
  (ties count for neither), and its median is better than the parent's by
  more than the distance between the parent's quartiles;
- unresolved: the parent's quartile distance is wider than the metric's
  bound, and not every run of the change reads better than every run of
  the parent;
- regressed: the change's median is worse by more than the bound;
- within bound: otherwise.

Per-layer metrics have no bound: they read improved, regressed (the mirror
of improved) or no bound.
"""

from __future__ import annotations

import json
import statistics
import sys

from measure import load_benchmark, summary

MIN_PAIRS = 10


def load(path):
    """{(workload, trace): {metric: [values in file order]}}"""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, m in rec["result"]["metrics"].items():
                out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def verdict(parent, change, better, bound):
    """(verdict, win share, pairs) for one metric on one workload."""
    sign = 1 if better == "lower" else -1       # > 0 when the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (p - c) < 0)
    share = wins / len(pairs) if pairs else 0.0
    mp, mc = statistics.median(parent), statistics.median(change)
    _, q1, q3, _ = summary(parent)
    spread = q3 - q1
    gain = sign * (mp - mc)
    if len(pairs) >= MIN_PAIRS and share >= 0.9 and gain > spread:
        return "improved", share, len(pairs)
    if bound is None:
        if len(pairs) >= MIN_PAIRS and losses / len(pairs) >= 0.9 \
                and -gain > spread:
            return "regressed", share, len(pairs)
        return "no bound", share, len(pairs)
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound * abs(mp) and not every_better:
        return "unresolved", share, len(pairs)
    if -gain > bound * abs(mp):
        return "regressed", share, len(pairs)
    return "within bound", share, len(pairs)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: run.py compare PARENT.jsonl CHANGE.jsonl\n")
        return 2
    parent, change = load(argv[0]), load(argv[1])
    spec = load_benchmark()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    header = (f"{'workload':<11} {'metric':<36} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'wins':>10}  verdict")
    print(header)
    worst = 0
    for key in sorted(set(parent) & set(change)):
        for name in sorted(set(parent[key]) & set(change[key])):
            m = metrics.get(name)
            if m is None:
                continue
            a, b = parent[key][name], change[key][name]
            v, share, n = verdict(a, b, m["better"], m.get("bound"))
            worst = max(worst, v == "regressed")
            pa, pb = (f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"
                      for s in (summary(a), summary(b)))
            print(f"{key[0]:<11} {name:<36} {pa:>30} {pb:>30} "
                  f"{share:>4.0%} of {n:<2}  {v}")
    return 1 if worst else 0

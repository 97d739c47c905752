"""Self-tests of the oracle and of the failure accounting.

    python3 bench/run.py selftest

1. The oracle against this file's own linear algebra, without cupi: the
   closed-form homology against ranks of boundary matrices over Q, GF(2)
   and GF(3) on small skeleta, the 6-vertex RP^2 and its subdivisions;
   Sq^1 on RP^2 against the textbook cup square; the morphism counts
   against a direct count of monotone maps that span a simplex.
2. The oracle against the program on small inputs: every kind of answer the
   workloads check, produced by the CLI on RP^2 and small skeleta, matches;
   a corrupted xi-dump is rejected.
3. Failure accounting: a wrong expected stdout, a wrong expected exit code,
   a timeout, an unreadable stdout and a repeat that differs are each
   counted once, and none of them stops the run.

Exits 0 when every check passes.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from math import comb

import corpus
import oracle
from measure import PY, SRC, WORK, Launcher, Ledger

CHECKS = []


def check(name, ok):
    CHECKS.append((name, bool(ok)))
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


# ---------------------------------------------------------------------------
# 1. the oracle without cupi
# ---------------------------------------------------------------------------

def boundary_matrix(closure, k):
    rows = {s: i for i, s in enumerate(closure[k - 1])}
    M = [[0] * len(closure[k]) for _ in rows]
    for j, s in enumerate(closure[k]):
        for p in range(len(s)):
            M[rows[s[:p] + s[p + 1:]]][j] += (-1) ** p
    return M


def rank(M, p=None):
    """Rank over Q (p None) or GF(p), by Gaussian elimination."""
    rows = [[Fraction(x) if p is None else x % p for x in r] for r in M]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], -1, p)
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b if p is None else (a - f * b) % p
                           for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def bettis(facets, p=None):
    closure = oracle.face_closure(facets)
    top = max(closure)
    ranks = [0] + [rank(boundary_matrix(closure, k), p)
                   for k in range(1, top + 1)] + [0]
    return [len(closure[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)]


def closed_form_bettis(answer):
    """(rational betti numbers, mod-p betti numbers) implied by an answer."""
    H = answer["H"]
    free = [h["betti"] for h in H]

    def mod(p):
        tors = [sum(1 for t in h["torsion"] if t % p == 0) for h in H]
        return [free[k] + tors[k] + (tors[k - 1] if k else 0)
                for k in range(len(H))]
    return free, mod


def eliminate(pairs):
    """GF(2) echelon of (bitmask, tag) pairs; returns (echelon, tags of the
    pairs that reduced to zero)."""
    echelon, zeros = [], []
    for v, tag in pairs:
        for ev, et in echelon:
            if v >> (ev.bit_length() - 1) & 1:
                v, tag = v ^ ev, tag ^ et
        (echelon if v else zeros).append((v, tag) if v else tag)
    return echelon, zeros


def reduce(echelon, v):
    for ev, _ in echelon:
        if v >> (ev.bit_length() - 1) & 1:
            v ^= ev
    return v


def cup_square_nonzero(facets):
    """The textbook front/back cup square of a class generating H^1(X; F2)
    is not a coboundary (on H^1, Sq^1 is the cup square)."""
    closure = oracle.face_closure(facets)
    edges, tris = closure[1], closure[2]
    eidx = {e: i for i, e in enumerate(edges)}
    tidx = {t: i for i, t in enumerate(tris)}

    def delta1(u):
        return sum(1 << tidx[t] for t in tris
                   if sum(u >> eidx[t[:p] + t[p + 1:]] & 1 for p in range(3)) % 2)

    b1, _ = eliminate((sum(1 << eidx[e] for e in edges if v in e), 0)
                      for (v,) in closure[0])
    b2, cocycles = eliminate((delta1(1 << i), 1 << i) for i in range(len(edges)))
    u = next(z for z in cocycles if reduce(b1, z))
    square = sum(1 << tidx[t] for t in tris
                 if u >> eidx[t[:2]] & 1 and u >> eidx[t[1:]] & 1)
    return reduce(b2, square) != 0


def test_oracle():
    for n, k in ((4, 1), (5, 1), (5, 2), (6, 2), (7, 2), (6, 3)):
        facets = corpus.skeleton(n, k)
        check(f"f-vector of the {k}-skeleton on {n} vertices",
              oracle.f_vector(facets) == [comb(n, j + 1) for j in range(k + 1)])
        free, mod = closed_form_bettis(oracle.skeleton_homology(n, k))
        check(f"homology of the {k}-skeleton on {n} vertices",
              bettis(facets) == free and bettis(facets, 2) == mod(2)
              and bettis(facets, 3) == mod(3))
        sq = oracle.skeleton_squares(n, k)["matrices"]
        check(f"Sq^1 shapes on the {k}-skeleton on {n} vertices",
              [len(sq[str(j)]) for j in range(k + 1)]
              == [free[j + 1] if j < k else 0 for j in range(k + 1)])
    for m, fv in ((0, [6, 15, 10]), (1, [31, 90, 60]), (2, [181, 540, 360])):
        facets = corpus.rp2_sd(m)
        check(f"f-vector of sd^{m} RP^2", oracle.f_vector(facets) == fv)
        if m < 2:
            free, mod = closed_form_bettis(oracle.rp2_homology())
            check(f"homology of sd^{m} RP^2",
                  bettis(facets) == free and bettis(facets, 2) == mod(2)
                  and bettis(facets, 3) == mod(3))
    check("Sq^1 H^1 -> H^2 of RP^2 is the nonzero cup square",
          cup_square_nonzero(corpus.rp2_sd(0))
          and oracle.rp2_squares()["matrices"]["1"] == [[1]])
    for name, facets in (("RP^2", corpus.rp2_sd(0)),
                         ("2-skeleton on 5", corpus.skeleton(5, 2))):
        closure = oracle.face_closure(facets)
        simplices = {s for k in closure for s in closure[k]}
        verts = sorted(closure[0])
        for n in range(4):
            direct = sum(1 for t in itertools.combinations_with_replacement(
                [v for (v,) in verts], n + 1)
                if tuple(sorted(set(t))) in simplices)
            listed = oracle.enumerate_answer(n, facets)
            check(f"morphism count n={n} on {name}",
                  direct == oracle.morphism_count(n, oracle.f_vector(facets))
                  == listed["count"] == len(listed["morphisms"]))
    check("surjection counts are binomials",
          all(len(oracle.surjections(n, k)) == comb(n, k)
              for n in range(6) for k in range(n + 1)))


# ---------------------------------------------------------------------------
# 2. the oracle against the program
# ---------------------------------------------------------------------------

def small_workload(b):
    rp2, rp2_f = b.complex("rp2", corpus.rp2_sd(0))
    for n, k in ((5, 2), (6, 1)):
        f, _ = b.complex(f"skel{n}_{k}", corpus.skeleton(n, k))
        b.command(["homology", f], oracle.skeleton_homology(n, k))
        b.command(["squares", f, "--i", "1"], oracle.skeleton_squares(n, k))
    b.command(["homology", rp2], oracle.rp2_homology())
    b.command(["squares", rp2, "--i", "1"], oracle.rp2_squares())
    fv = oracle.f_vector(rp2_f)
    b.command(["enumerate", rp2, "--n", "2"], oracle.enumerate_answer(2, rp2_f))
    b.command(["reconstruct", rp2, "--up-to", "2"],
              oracle.reconstruct_answer(2, fv))
    b.command(["xi-check", rp2], oracle.structure_pass())
    b.command(["xi-dump", rp2],
              check=lambda text: oracle.check_xi_dump(text, rp2_f, 4))
    src, tgt, mp, iso = b.isomorphic_pair("rp2_iso", corpus.rp2_sd(0))
    b.command(["is-morphism", src, tgt, mp], oracle.morphism_answer(iso))
    b.command(["lift", src, tgt, mp], oracle.lift_answer(iso))
    b.command(["homology-square", src, tgt, mp, "--i-max", "1"],
              oracle.homology_square_answer())


def run_commands(launcher, ledger, commands, workdir, timeout=60):
    for i, cmd in enumerate(commands):
        child = launcher.spawn([PY, "-m", "cupi.cli"] + cmd["argv"], workdir,
                               timeout)
        ledger.check(i, cmd, child.rc, child.stdout, child.timed_out)


def test_program(launcher, workdir):
    for seed in (1, 2):
        b = corpus.WorkloadFiles(workdir, random.Random(seed))
        small_workload(b)
        ledger = Ledger()
        run_commands(launcher, ledger, b.commands, workdir)
        for f in ledger.failures:
            print(f"     {f['command']}: {f['problem']}")
        check(f"CLI agrees with the oracle on small inputs, seed {seed}",
              ledger.failed == 0 and ledger.attempted == len(b.commands))
    for workload in corpus.WORKLOADS:
        b = corpus.setup(workload, 3, os.path.join(workdir, workload))
        check(f"{workload}: every command has an expected answer",
              all(c["stdout"] is not None or c["check"] for c in b.commands))
    b = corpus.WorkloadFiles(workdir, random.Random(5))
    rp2, facets = b.complex("rp2", corpus.rp2_sd(0))
    lines = launcher.spawn([PY, "-m", "cupi.cli", "xi-dump", rp2], workdir,
                           60).stdout.splitlines()
    check("valid xi-dump accepted",
          oracle.check_xi_dump("\n".join(lines), facets, 4) is None)
    flipped = lines[:]
    victim = next(i for i, ln in enumerate(flipped)
                  if '"i":1' in ln and "[-1," in ln)
    flipped[victim] = flipped[victim].replace("[-1,", "[1,", 1)
    check("xi-dump with one flipped sign rejected",
          oracle.check_xi_dump("\n".join(flipped), facets, 4) is not None)
    check("xi-dump with a missing line rejected",
          oracle.check_xi_dump("\n".join(lines[:-1]), facets, 4) is not None)


# ---------------------------------------------------------------------------
# 3. failure accounting
# ---------------------------------------------------------------------------

def test_accounting(launcher, workdir):
    b = corpus.WorkloadFiles(workdir, random.Random(4))
    rp2, _ = b.complex("rp2", corpus.rp2_sd(0))
    sd1, _ = b.complex("sd1", corpus.rp2_sd(1))
    right = oracle.rp2_homology()
    wrong = oracle.skeleton_homology(6, 2)
    b.command(["homology", rp2], right)                   # passes
    b.command(["homology", rp2], wrong)                   # wrong stdout
    b.command(["homology", rp2], right, rc=1)             # wrong exit code
    b.command(["homology", rp2], check=lambda text: text[1 / 0:])  # raises
    ledger = Ledger()
    run_commands(launcher, ledger, b.commands, workdir)
    slow = {"argv": ["enumerate", sd1, "--n", "4"], "rc": 0, "check": None,
            "stdout": None}
    child = launcher.spawn([PY, "-m", "cupi.cli"] + slow["argv"], workdir,
                           0.05)
    ledger.check("slow", slow, child.rc, child.stdout, child.timed_out)
    free = {"argv": ["repeat"], "rc": 0, "check": None, "stdout": None}
    ledger.check("repeat", free, 0, "first\n", False)
    ledger.check("repeat", free, 0, "second\n", False)    # differs
    problems = [f["problem"] for f in ledger.failures]
    for p in problems:
        print(f"     counted: {p}")
    check("each kind of failure counted once, the run carried on",
          ledger.attempted == 7 and ledger.failed == 5
          and child.timed_out and "timeout" in problems
          and "stdout differs between repeats" in problems
          and "stdout differs from the oracle" in problems)


def main(argv):
    if not os.path.isfile(os.path.join(SRC, "cupi", "__init__.py")):
        print("error: no src/cupi here; run from the repository root")
        return 2
    workdir = os.path.join(WORK, "selftest")
    os.makedirs(workdir, exist_ok=True)
    test_oracle()
    with Launcher() as launcher:
        test_program(launcher, workdir)
        test_accounting(launcher, workdir)
    failed = [name for name, ok in CHECKS if not ok]
    print(f"{len(CHECKS) - len(failed)} of {len(CHECKS)} checks passed")
    return 1 if failed else 0

"""Benchmark inputs: the complexes, their seeded relabelings, the maps between
them, and each workload's command list with its expected answer.

A relabeling is order preserving and draws every new vertex id from the
4-digit range, so it changes the ids but not the sizes, the costs, the
output lengths or the answers.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import oracle

RP2_FACETS = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
              (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)]


def skeleton(n, k):
    """Facets of the k-skeleton of the simplex on n vertices."""
    return [list(c) for c in itertools.combinations(range(n), k + 1)]


def simplex(d):
    return [list(range(d + 1))]


def subdivide(facets):
    """Barycentric subdivision.  A face of the input becomes a vertex, ids
    ordered by (dimension, face), so every flag is an increasing tuple."""
    closure = oracle.face_closure(facets)
    ids = {s: i for i, s in enumerate(s for k in sorted(closure)
                                      for s in closure[k])}
    out = set()
    for f in facets:
        for perm in itertools.permutations(f):
            out.add(tuple(ids[tuple(sorted(perm[:j + 1]))]
                          for j in range(len(perm))))
    return [list(t) for t in sorted(out)]


def rp2_sd(m):
    facets = [list(f) for f in RP2_FACETS]
    for _ in range(m):
        facets = subdivide(facets)
    return facets


def relabeling(facets, rng):
    """A seeded order-preserving injection of the vertices into 1000..9999."""
    verts = sorted({v for f in facets for v in f})
    new = sorted(rng.sample(range(1000, 10000), len(verts)))
    return dict(zip(verts, new))


def apply(mapping, facets):
    return [[mapping[v] for v in f] for f in facets]


def map_triples(mapping, facets):
    """Chain-map file of the relabeling: each simplex goes to its image."""
    closure = oracle.face_closure(facets)
    return {str(k): [[[mapping[v] for v in s], list(s), 1] for s in closure[k]]
            for k in closure}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class WorkloadFiles:
    """Collects one workload's files and commands in a work directory."""

    def __init__(self, workdir, rng):
        self.workdir = workdir
        self.rng = rng
        self.files = {}
        self.commands = []
        self.sizes = {}
        self.probe = {}

    def write(self, name, obj):
        self.files[name] = obj
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return name

    def complex(self, name, facets):
        """Write a seeded relabeling of `facets`; return (file name,
        relabeled facets)."""
        mapping = relabeling(facets, self.rng)
        relabeled = apply(mapping, facets)
        fname = self.write(f"{name}.json", {"facets": relabeled})
        fv = oracle.f_vector(relabeled)
        self.sizes[name] = {"f_vector": fv,
                            "boundary_shapes": oracle.boundary_shapes(fv)}
        return fname, relabeled

    def command(self, argv, answer=None, rc=0, check=None):
        """answer: the exact expected object; check: a callable returning
        None or a problem, for outputs too large to restate."""
        self.commands.append({"argv": argv, "rc": rc, "check": check,
                              "stdout": None if answer is None
                              else oracle.canonical(answer)})

    def isomorphic_pair(self, name, facets):
        """Two relabelings of one complex and the chain map between them."""
        src, a = self.complex(f"{name}_a", facets)
        tgt, b = self.complex(f"{name}_b", facets)
        iso = {x: y for fa, fb in zip(a, b) for x, y in zip(fa, fb)}
        mp = self.write(f"{name}_map.json", map_triples(iso, a))
        return src, tgt, mp, iso


def cohomology(b):
    for name, facets, homology, squares in (
            ("skel16", skeleton(16, 2), oracle.skeleton_homology(16, 2),
             oracle.skeleton_squares(16, 2)),
            ("sd2rp2", rp2_sd(2), oracle.rp2_homology(), oracle.rp2_squares())):
        f, _ = b.complex(name, facets)
        b.command(["homology", f], homology)
        b.command(["squares", f, "--i", "1"], squares)
        b.probe.setdefault("xi", f)
    b.probe.update(adjoin=f, adjoin_top=2)


def rigidity(b):
    rp2, rp2_f = b.complex("rp2", rp2_sd(0))
    sd1, sd1_f = b.complex("sd1rp2", rp2_sd(1))
    fv_rp2, fv_sd1 = oracle.f_vector(rp2_f), oracle.f_vector(sd1_f)
    b.command(["reconstruct", rp2], oracle.reconstruct_answer(4, fv_rp2))
    b.command(["reconstruct", sd1, "--up-to", "3"],
              oracle.reconstruct_answer(3, fv_sd1))
    b.command(["enumerate", sd1, "--n", "4"], oracle.enumerate_answer(4, sd1_f))
    b.sizes["morphisms"] = {"rp2_up_to_4": [oracle.morphism_count(n, fv_rp2)
                                            for n in range(5)],
                            "sd1rp2_n4": oracle.morphism_count(4, fv_sd1)}
    for name, facets in (("sd1rp2_iso", rp2_sd(1)),
                         ("skel13_iso", skeleton(13, 2))):
        src, tgt, mp, iso = b.isomorphic_pair(name, facets)
        b.command(["is-morphism", src, tgt, mp], oracle.morphism_answer(iso))
        b.command(["lift", src, tgt, mp], oracle.lift_answer(iso))
    # a 2-cycle (a tetrahedron's boundary) added to one triangle's image
    src, tgt, mp, iso = b.isomorphic_pair("skel13_cycle", skeleton(13, 2))
    triples = b.files[mp]
    t = b.rng.choice(triples["2"])[1]
    tet = b.rng.choice([c for c in itertools.combinations(sorted(iso), 4)
                        if not set(t) <= set(c)])
    for p in range(4):
        face = [iso[v] for v in tet[:p] + tet[p + 1:]]
        triples["2"].append([face, t, (-1) ** p])
    b.write(mp, triples)
    b.command(["is-morphism", src, tgt, mp],
              oracle.not_morphism_answer(oracle.perturbed_witness(t)), rc=1)
    # minus the identity on RP^2
    neg = {str(k): [[s, s, -1] for _, s, _ in trips]
           for k, trips in map_triples({v: v for f in rp2_f for v in f},
                                       rp2_f).items()}
    mp = b.write("rp2_neg_map.json", neg)
    b.command(["is-morphism", rp2, rp2, mp],
              oracle.not_morphism_answer(
                  oracle.negation_witness({v for f in rp2_f for v in f})), rc=1)
    src, tgt, mp, _ = b.isomorphic_pair("rp2_iso", rp2_sd(0))
    b.command(["homology-square", src, tgt, mp, "--i-max", "2"],
              oracle.homology_square_answer())
    b.probe.update(xi="skel13_iso_a.json", adjoin=rp2, adjoin_top=4)


def structure(b):
    for name, facets in (("delta8", simplex(8)), ("delta9", simplex(9)),
                         ("skel16", skeleton(16, 2)), ("sd1rp2", rp2_sd(1))):
        f, _ = b.complex(name, facets)
        b.command(["xi-check", f], oracle.structure_pass())
    f, facets = b.complex("skel16_dump", skeleton(16, 2))
    b.command(["xi-dump", f],
              check=lambda text: oracle.check_xi_dump(text, facets, 4))
    b.probe.update(xi=f, adjoin=f, adjoin_top=2)


WORKLOADS = {"cohomology": cohomology, "rigidity": rigidity,
             "structure": structure}


def setup(workload, seed, workdir):
    """Generate, relabel and write a workload's inputs and expected answers."""
    os.makedirs(workdir, exist_ok=True)
    b = WorkloadFiles(workdir, random.Random(f"{workload}:{seed}"))
    WORKLOADS[workload](b)
    b.probe["floor"] = b.isomorphic_pair("floor", rp2_sd(0))[:3]
    return b

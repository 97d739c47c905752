"""Shared test corpus.

Named complexes: standard simplices through dimension 3, the circle and
2-sphere boundaries, the 6-vertex projective plane, a 7-vertex annulus;
plus 50 seeded random face-closed complexes on at most 6 vertices (facet
size capped at 4 to keep exhaustive checks affordable).  rp(n) is a
triangulation of real projective n-space for the checks at scale.
"""

import itertools
import os
import random
import sys

# No bytecode from a test run: a later run from this tree compiles
# src/cupi as a fresh checkout does.  Subprocesses inherit the variable.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import pytest  # noqa: E402

from cupi.simplicial import build_complex, standard_simplex  # noqa: E402
from cupi.steenrod import structure_for  # noqa: E402


RP2_FACETS = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
              (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)]

ANNULUS_FACETS = [(0, 3, 4), (0, 1, 4), (1, 4, 5), (1, 2, 5), (2, 5, 6),
                  (0, 2, 6), (0, 3, 6)]


def rp2():
    return build_complex(RP2_FACETS)


def annulus():
    return build_complex(ANNULUS_FACETS)


def circle():
    return build_complex([(0, 1), (0, 2), (1, 2)])


def sphere():
    return build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def barycentric(facets):
    """Facets of the barycentric subdivision; a face's id orders faces by
    (dimension, vertex list), so every flag is increasing."""
    faces = sorted({c for f in facets for r in range(1, len(f) + 1)
                    for c in itertools.combinations(f, r)},
                   key=lambda s: (len(s), s))
    ids = {s: i for i, s in enumerate(faces)}
    return sorted({tuple(ids[tuple(sorted(p[:j + 1]))] for j in range(len(p)))
                   for f in facets for p in itertools.permutations(f)})


def rp(n):
    """RP^n: the barycentric subdivision of the boundary of the
    (n+1)-cross-polytope, divided by the antipodal map.

    A face of the cross-polytope is a nonempty set of signed coordinates
    +-1 ... +-(n+1) with no coordinate twice; a vertex of RP^n is a class
    {F, -F}, numbered by (|F|, the smaller of the two sorted tuples), so
    every flag F_1 < ... < F_(n+1) is increasing.  The facets are the
    images of the (n+1)! 2^(n+1) maximal flags.
    """
    def canonical(face):
        return min(tuple(sorted(face)), tuple(sorted(-x for x in face)))

    coords = range(1, n + 2)
    flags = [[s * c for s, c in zip(signs, perm)]
             for perm in itertools.permutations(coords)
             for signs in itertools.product((1, -1), repeat=n + 1)]
    classes = sorted({canonical(f[:r]) for f in flags
                      for r in range(1, n + 2)}, key=lambda F: (len(F), F))
    ids = {F: v for v, F in enumerate(classes)}
    return build_complex(sorted({tuple(ids[canonical(f[:r])]
                                       for r in range(1, n + 2))
                                 for f in flags}))


def named_corpus():
    out = {f"delta{n}": standard_simplex(n) for n in range(4)}
    out["circle"] = circle()
    out["sphere"] = sphere()
    out["rp2"] = rp2()
    out["annulus"] = annulus()
    return out


def random_complexes(count=50, seed=20250808, max_vertices=6, max_facet=4):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nverts = rng.randint(1, max_vertices)
        verts = list(range(nverts))
        nfac = rng.randint(1, 6)
        facets = []
        for _ in range(nfac):
            size = rng.randint(1, min(max_facet, nverts))
            facets.append(tuple(sorted(rng.sample(verts, size))))
        X = build_complex(facets)
        if X.simplices:
            out.append(X)
    return out


@pytest.fixture(scope="session")
def corpus():
    return named_corpus()


@pytest.fixture(scope="session")
def random_corpus():
    return random_complexes()


@pytest.fixture(scope="session")
def projective_spaces():
    return {n: rp(n) for n in (2, 3, 4)}


@pytest.fixture(scope="session")
def full_corpus(corpus, random_corpus):
    return list(corpus.values()) + random_corpus


@pytest.fixture
def fresh_structures():
    """structure_for's cache emptied before and after the test.  A structure
    built on tampered tables keeps its tampered entries, so none may outlive
    the test; the fixture's value is cache_clear, for clears between steps."""
    structure_for.cache_clear()
    yield structure_for.cache_clear
    structure_for.cache_clear()

"""Ordered simplicial complexes and degeneracy-free simplicial sets.

An ordered simplicial complex stores its simplices as strictly increasing
vertex tuples, closed under taking faces, and d_i drops vertex i, so the
face identities hold by that rule and the complex is its own delta-core.
Freely adding degeneracies to it gives a degeneracy-free simplicial set,
represented here as pairs (theta, c) of an order-preserving surjection
theta and a core simplex c; the full simplicial set is never materialized,
every dimension is enumerated on demand.  Faces and degeneracies of
(theta, c) are read off their formulas (May, Simplicial Objects in
Algebraic Topology, section 1).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property, lru_cache


class InvalidComplexError(ValueError):
    """Raised when input data violates a complex invariant."""


# ---------------------------------------------------------------------------
# monotone maps n -> m, encoded as tuples of values (f(0), ..., f(n))
# ---------------------------------------------------------------------------

def identity_map(n):
    return tuple(range(n + 1))


def surjections(m, n):
    """All order-preserving surjections m -> n as value tuples, sorted.

    Encoded by the (m-n)-subset of positions in {1..m} where the value
    repeats, so there are binom(m, n) of them.
    """
    if n > m or n < 0:
        return ()
    out = []
    for repeats in itertools.combinations(range(1, m + 1), m - n):
        vals = [0]
        for i in range(1, m + 1):
            vals.append(vals[-1] if i in repeats else vals[-1] + 1)
        out.append(tuple(vals))
    return tuple(sorted(out))


def coface(i, m):
    """delta_i: m-1 -> m, the injection missing value i."""
    return tuple(j if j < i else j + 1 for j in range(m))


def codegeneracy(i, m):
    """sigma_i: m+1 -> m, hitting value i twice."""
    return tuple(j if j <= i else j - 1 for j in range(m + 2))


def epi_mono_factor(values):
    """Factor a weakly monotone map as injection . surjection.

    Returns (surj_values, image_values): the surjection onto {0..r} followed
    by the injection picking out the (sorted) image values.
    """
    image = sorted(set(values))  # a simplex's few values: no index dict
    return tuple(map(image.index, values)), tuple(image)


# ---------------------------------------------------------------------------
# ordered simplicial complexes
# ---------------------------------------------------------------------------

class OrderedComplex:
    """Finite ordered simplicial complex.

    `simplices[k]` lists the k-dimensional simplices as strictly increasing
    vertex tuples, sorted lexicographically.  Instances are immutable and
    hashable, equal when their vertices and simplices are; build one with
    :func:`build_complex`.
    """

    def __init__(self, vertices, simplices):
        self.vertices, self.simplices = vertices, simplices

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.vertices == other.vertices
                and self.simplices == other.simplices)

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    @property
    def dim(self):
        return len(self.simplices) - 1

    def f_vector(self):
        return tuple(len(s) for s in self.simplices)

    def simplices_of_dim(self, k):
        if 0 <= k < len(self.simplices):
            return self.simplices[k]
        return ()

    def all_simplices(self):
        for level in self.simplices:
            yield from level

    @cached_property
    def _simplex_sets(self):
        # derived from simplices, so it stays out of __eq__ and __hash__
        return tuple(frozenset(level) for level in self.simplices)

    def has_simplex(self, simplex):
        k = len(simplex) - 1
        return 0 <= k < len(self.simplices) and simplex in self._simplex_sets[k]

    def face(self, simplex, i):
        """d_i: drop vertex i.  The one copy of the face rule, so an ordered
        complex is its own delta-core: the face identities hold by it."""
        return simplex[:i] + simplex[i + 1:]

    def to_delta(self):
        """An ordered complex is its own delta-core."""
        return self


def build_complex(facets):
    """Face-closure of a facet list; idempotent on already closed input.

    Raises InvalidComplexError on non-increasing or duplicated vertices.
    """
    closed = set()
    for facet in facets:
        facet = tuple(facet)
        if not all(type(v) is int for v in facet):  # bool is not a vertex id
            raise InvalidComplexError(f"facet {facet} has non-integer vertex ids")
        if len(set(facet)) != len(facet):
            raise InvalidComplexError(f"facet {facet} has duplicate vertices")
        if any(a >= b for a, b in zip(facet, facet[1:])):
            raise InvalidComplexError(f"facet {facet} is not strictly increasing")
        for r in range(1, len(facet) + 1):
            closed.update(itertools.combinations(facet, r))
    if not closed:
        return OrderedComplex(vertices=(), simplices=())
    dim = max(len(s) for s in closed) - 1
    by_dim = tuple(tuple(sorted(s for s in closed if len(s) == k + 1))
                   for k in range(dim + 1))
    vertices = tuple(v for (v,) in by_dim[0])
    return OrderedComplex(vertices=vertices, simplices=by_dim)


# Keys are n; the work cap of enumeration and reconstruction admits no n
# above 14 on a nonempty complex (a point at n = 15 is 4 325 343 units), and
# a command reads each n it reaches many times.
_STANDARD_SIMPLEX_CACHE_SIZE = 15


@lru_cache(maxsize=_STANDARD_SIMPLEX_CACHE_SIZE)
def standard_simplex(n):
    """The full n-simplex on vertices 0..n, built once per n (it is
    immutable, so every caller shares it)."""
    return build_complex([tuple(range(n + 1))])


# ---------------------------------------------------------------------------
# degeneracy-free simplicial sets: the functor adding degeneracies
# ---------------------------------------------------------------------------

class SimplicialSetDF(namedtuple("SimplicialSetDF", "core")):
    """Degeneracy-free simplicial set presented by its core, an ordered
    complex or any object with dim, simplices_of_dim and face.

    m-simplices are pairs (theta, c) with theta an order-preserving
    surjection m -> n (a value tuple) and c an n-simplex of the core; only
    the core is stored, dimensions are enumerated on demand.
    """

    __slots__ = ()

    def simplices_of_dim(self, m):
        core = self.core
        return tuple((theta, c) for n in range(min(m, core.dim) + 1)
                     for theta in surjections(m, n)
                     for c in core.simplices_of_dim(n))

    def face(self, simplex, i):
        """d_i(theta, c): drop entry v = theta[i]; if v is then missed,
        renumber the values above it and take the core face d_v c."""
        theta, c = simplex
        v, rest = theta[i], theta[:i] + theta[i + 1:]
        if v in rest:
            return (rest, c)
        return (tuple(t - (t > v) for t in rest), self.core.face(c, v))

    def degeneracy(self, simplex, i):
        """s_i(theta, c): repeat entry i of theta."""
        theta, c = simplex
        return (theta[:i + 1] + theta[i:], c)


def adjoin(core):
    """Freely add degenerate simplices to an ordered complex, read as its
    own delta-core."""
    return SimplicialSetDF(core=core)


# ---------------------------------------------------------------------------
# vertex maps
# ---------------------------------------------------------------------------

class VertexMap(namedtuple("VertexMap", "source target mapping")):
    """A map of vertex sets between ordered complexes: mapping is the
    sorted tuple of (v, image) pairs."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, source, target, mapping):
        return cls(source=source, target=target, mapping=tuple(sorted(mapping.items())))

    def as_dict(self):
        return dict(self.mapping)

    def is_order_preserving(self):
        """phi(a) <= phi(b) on every edge (a, b) of the source.  An ordered
        complex orders only the vertices within each simplex, so vertices
        that share no simplex, such as those of two components, may swap."""
        m = self.as_dict()
        return all(m[a] <= m[b] for a, b in self.source.simplices_of_dim(1))

    def is_simplicial(self):
        """Every simplex image spans a simplex of the target."""
        m = self.as_dict()
        return all(self.target.has_simplex(tuple(sorted({m[v] for v in s})))
                   for s in self.source.all_simplices())


"""Free integer chain complexes, chain maps, tensor chains, and homology.

Everything is exact over the integers: sparse coefficient dicts keyed by
basis labels, and Smith normal form on Python ints (no overflow, no floats).
Signs follow the Koszul convention throughout:
d(a (x) b) = da (x) b + (-1)^(deg a) a (x) db.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict, namedtuple
from functools import cached_property

_EMPTY = {}  # the image or boundary of a label that has none; never written


def _add_into(acc, key, coeff):
    if coeff:
        new = acc.get(key, 0) + coeff
        if new:
            acc[key] = new
        else:
            del acc[key]


# ---------------------------------------------------------------------------
# chains and complexes
# ---------------------------------------------------------------------------

def _terms(d):
    """The sorted (label, coeff) tuple of a coefficient dict, zeros dropped."""
    return tuple(sorted((k, v) for k, v in d.items() if v))


class Chain:
    """Sparse integer combination of hashable labels in one degree: the one
    combination type, behind chains, tensor chains and bar elements.

    coeffs is a sorted tuple of (label, coeff) pairs with no zeros, and is
    treated as immutable.  Degrees must agree for a sum, except that the
    zero combination has no degree: it equals every zero of its type.  A
    subclass holds no state of its own and adds only its operations.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        self.degree, self.coeffs = degree, coeffs

    def __repr__(self):
        return f"{type(self).__name__}({self.degree!r}, {self.coeffs!r})"

    @classmethod
    def from_dict(cls, degree, d):
        return cls(degree, _terms(d))

    def _with(self, degree, d):
        # freeze a dict derived from valid combinations: labels are not
        # re-checked, and _add_into and scale leave no zero coefficients
        return type(self)(degree, tuple(sorted(d.items())))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.coeffs != other.coeffs:
            return False
        return not self.coeffs or self.degree == other.degree

    def __hash__(self):
        return hash((self.degree if self.coeffs else None, self.coeffs))

    def __len__(self):
        return len(self.coeffs)

    def as_dict(self):
        return dict(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.degree != self.degree and self.coeffs and other.coeffs:
            raise ValueError("degree mismatch")
        out = self.as_dict()
        _add_scaled(out, other)
        return self._with(self.degree if self.coeffs else other.degree, out)

    def scale(self, c):
        return self._with(self.degree,
                          {k: c * v for k, v in self.coeffs} if c else {})

    def __sub__(self, other):
        return self + other.scale(-1)


def _add_scaled(acc, combination, c=1):
    """acc += c * combination, in place on a coefficient dict."""
    for k, v in combination.coeffs:
        _add_into(acc, k, c * v)


def _apply(image, terms):
    """The coefficient dict of sum c * image(label) over the (label, c)
    pairs of terms, zeros dropped; image(label) is a dict."""
    out = {}
    for label, c in terms:
        for tgt, v in image(label).items():
            _add_into(out, tgt, c * v)
    return out


class FreeChainComplex:
    """Nonnegatively graded free Z-complex with labeled bases.

    basis[n] lists the degree-n labels (globally unique across degrees);
    diff maps each label to the sparse dict of its boundary.  diff is kept
    as given, not copied, so neither it nor its dicts may change after
    construction.  d.d = 0 is checked at construction.
    """

    def __init__(self, basis, diff):
        self.basis = {n: tuple(labels) for n, labels in basis.items() if labels}
        self.diff = diff
        self.degree_of = {}
        for n, labels in self.basis.items():
            for lb in labels:
                if lb in self.degree_of:
                    raise ValueError(f"duplicate basis label {lb!r}")
                self.degree_of[lb] = n
        self.top_degree = max(self.basis) if self.basis else -1
        self._check_d_squared()

    def _check_d_squared(self):
        for label in self.degree_of:
            acc = {}
            for face, c in self.diff.get(label, {}).items():
                for ff, cc in self.diff.get(face, {}).items():
                    _add_into(acc, ff, c * cc)
            if acc:
                raise ValueError(f"d.d != 0 at basis element {label!r}")

    def rank(self, n):
        return len(self.basis.get(n, ()))

    def generator(self, label):
        return Chain.from_dict(self.degree_of[label], {label: 1})

    def boundary_of(self, label):
        return self.diff.get(label, {})

    def boundary(self, chain):
        return Chain.from_dict(chain.degree - 1,
                               _apply(self.boundary_of, chain.coeffs))

    def boundary_matrix(self, n):
        """Matrix of d_n : C_n -> C_{n-1}, rows indexed by degree n-1 basis."""
        rows = self.basis.get(n - 1, ())
        cols = self.basis.get(n, ())
        ridx = {lb: i for i, lb in enumerate(rows)}
        M = [[0] * len(cols) for _ in rows]
        for j, lb in enumerate(cols):
            for face, c in self.boundary_of(lb).items():
                M[ridx[face]][j] += c
        return M

    @cached_property
    def _cleared(self):
        """{n: E_n}: _present of the columns of d_n off the pivot rows of
        E_(n+1), for n from top_degree down to 1, and of no columns elsewhere.
        No pivot column meets an earlier pivot's row, so a cleared column is a
        Z-combination of the others: E_n keeps d_n's invariants and image."""
        out, pivot_rows = defaultdict(lambda: ((), (), (), ())), ()
        for n in range(self.top_degree, 0, -1):
            out[n] = _present(self.boundary_of(lb) for lb in self.basis[n]
                              if lb not in pivot_rows)
            pivot_rows = {r for r, _, _ in out[n][0]}
        return out


class GradedMap:
    """Graded Z-linear map between complexes, of a fixed degree shift.

    comps maps each source basis label to a sparse dict over target labels
    in degree (source degree + shift).  Not required to commute with d.
    """

    def __init__(self, source, target, shift, comps):
        self.source = source
        self.target = target
        self.shift = shift
        self.comps = {lb: image for lb, d in comps.items()
                      if (image := {k: v for k, v in d.items() if v})}
        for lb, d in self.comps.items():
            if lb not in source.degree_of:
                raise ValueError(f"{lb!r} is not a source basis label")
            n = source.degree_of[lb] + shift
            for tgt in d:
                if target.degree_of.get(tgt) != n:
                    raise ValueError(
                        f"{tgt!r} is not a target basis label"
                        if tgt not in target.degree_of
                        else f"{lb!r} -> {tgt!r} breaks the degree shift")

    def apply_label(self, label):
        return self.comps.get(label, {})

    def apply(self, chain):
        return Chain.from_dict(chain.degree + self.shift,
                               _apply(self.apply_label, chain.coeffs))

    def _residuals(self, labels):
        """Yield (label, df(label)) over the given source labels, where
        df = f . d_source - (-1)^shift d_target . f; the dicts may hold
        zero coefficients."""
        sgn = -((-1) ** self.shift)
        image, d_src = self.comps.get, self.source.diff.get
        d_tgt = self.target.diff.get
        for label in labels:
            acc = {}
            for face, c in d_src(label, _EMPTY).items():
                for tgt, v in image(face, _EMPTY).items():
                    acc[tgt] = acc.get(tgt, 0) + c * v
            for tgt, v in image(label, _EMPTY).items():
                for face, c in d_tgt(tgt, _EMPTY).items():
                    acc[face] = acc.get(face, 0) + sgn * v * c
            yield label, acc

    def is_chain_map(self):
        return self.shift == 0 and self.first_commutator_witness() is None

    def first_commutator_witness(self):
        """Smallest degree where f d != d f, or None; stops at the first."""
        for n in sorted(self.source.basis):
            if any(any(r.values())
                   for _, r in self._residuals(self.source.basis[n])):
                return n
        return None

    def equals(self, other):
        return (self.shift == other.shift and self.comps == other.comps)

    def equals_composite(self, outer, inner):
        """self == outer . inner, compared one source label at a time
        without building the composite."""
        if self.shift != outer.shift + inner.shift:
            return False
        hits = 0
        for lb, d in inner.comps.items():
            image = _apply(outer.apply_label, d.items())
            if image != self.comps.get(lb, {}):
                return False
            hits += bool(image)
        return hits == len(self.comps)

    @classmethod
    def identity(cls, C):
        return cls(C, C, 0, {lb: {lb: 1} for lb in C.degree_of})


# ---------------------------------------------------------------------------
# chain functors
# ---------------------------------------------------------------------------

def _face_sum(cells, face):
    """The free complex with basis cells[n] in degree n and the alternating
    face sum d c = sum_i (-1)^i face(c, i) as its boundary."""
    basis, diff = {}, {}
    for n, level in enumerate(cells):
        basis[n] = level
        for c in level if n else ():  # a vertex has no faces
            acc = {}
            for i in range(n + 1):
                _add_into(acc, face(c, i), (-1) ** i)
            if acc:
                diff[c] = acc
    return FreeChainComplex(basis, diff)


def normalized_chains(X):
    """N(X) of an ordered complex: one generator per simplex, faces X.face.
    The empty complex gives the zero complex."""
    return _face_sum(X.simplices, X.face)


def unnormalized_chains(sset, up_to):
    """C(X) of a degeneracy-free simplicial set, materialized through degree
    up_to; basis elements are (theta, cell) pairs including degeneracies."""
    return _face_sum((sset.simplices_of_dim(m) for m in range(up_to + 1)),
                     sset.face)


def induced_image(phi, s):
    """N(phi)(s) of the normalized chain functor: {phi(s): 1} when the
    vertex map phi is injective on the simplex s, zero (an empty dict)
    otherwise.  phi is anything indexed by the vertices of s: a dict, or a
    tuple of values on positions.  The one copy of the rule."""
    image = {phi[v] for v in s}
    return {tuple(sorted(image)): 1} if len(image) == len(s) else {}


def induced_components(phi, simplices):
    """Components of N(phi) on the given simplices, the zero ones left out."""
    return {s: image for s in simplices if (image := induced_image(phi, s))}


def chain_map_from_vertex_map(vmap, NA, NB):
    """The chain map N(theta): NA -> NB of a simplicial vertex map, with the
    chain-map law checked."""
    f = GradedMap(NA, NB, 0, induced_components(
        vmap.as_dict(), vmap.source.all_simplices()))
    bad = f.first_commutator_witness()
    if bad is not None:
        raise ValueError(f"not a chain map: fails in degree {bad}")
    return f


# ---------------------------------------------------------------------------
# tensor chains over normalized simplex bases
# ---------------------------------------------------------------------------

def simplex_degree(s):
    return len(s) - 1


class TensorChain(Chain):
    """Chain of tensor labels: tuples of simplices, whose length is the
    arity.

    Labels are tuples of strictly increasing vertex tuples; the degree of a
    label is the sum of the factor degrees.  Koszul signs are computed at
    application time, never stored.
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, degree, d):
        for key in d:
            if sum(simplex_degree(s) for s in key) != degree:
                raise ValueError("degree mismatch in tensor label")
        return cls(degree, _terms(d))

    def swap(self):
        """Transposition of an arity-2 tensor with the Koszul sign
        (-1)^(deg a * deg b)."""
        out = {}
        for (a, b), c in self.coeffs:
            sgn = (-1) ** (simplex_degree(a) * simplex_degree(b))
            _add_into(out, (b, a), c * sgn)
        return self._with(self.degree, out)

    def map_factors(self, image):
        """Apply a degree-0 map, image(s) a dict, to every factor (no Koszul
        signs arise)."""
        out = {}
        for key, c in self.coeffs:
            images = [image(s) for s in key]
            if any(not im for im in images):
                continue
            for combo in itertools.product(*[im.items() for im in images]):
                newkey = tuple(t for t, _ in combo)
                coeff = c
                for _, v in combo:
                    coeff *= v
                _add_into(out, newkey, coeff)
        return self._with(self.degree, out)

    def relabel(self, verts):
        """Replace each vertex v of every factor by verts[v].

        verts must be strictly increasing, as a simplex's vertex list is on
        positions: then relabeling keeps the labels distinct and in order,
        and relabeling a table on positions by a simplex gives its value on
        that simplex.
        """
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise ValueError("relabeling needs an increasing vertex list")
        image = {}  # each distinct factor is relabeled once
        coeffs = []
        for key, c in self.coeffs:
            new = []
            for s in key:
                t = image.get(s)
                if t is None:
                    t = image[s] = tuple([verts[v] for v in s])
                new.append(t)
            coeffs.append((tuple(new), c))
        return type(self)(self.degree, tuple(coeffs))


# ---------------------------------------------------------------------------
# Smith normal form and homology
# ---------------------------------------------------------------------------

def smith_normal_form(M):
    """(D, U, V) with D = U M V diagonal, divisibility d1 | d2 | ..., and
    U, V unimodular.  Dense lists of Python ints; exact."""
    m = len(M)
    n = len(M[0]) if m else 0
    D = [row[:] for row in M]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):      # row dst += k * row src
        D[dst] = [a + k * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for row in D:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        # pick pivot of least absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (best is None or abs(D[i][j]) < best):
                    best = abs(D[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, m):
            if D[i][t]:
                q = D[i][t] // D[t][t]
                add_row(i, t, -q)
                dirty = dirty or D[i][t] != 0
        for j in range(t + 1, n):
            if D[t][j]:
                q = D[t][j] // D[t][t]
                add_col(j, t, -q)
                dirty = dirty or D[t][j] != 0
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        if abs(D[t][t]) != 1:
            stray = next(((i, j) for i in range(t + 1, m)
                          for j in range(t + 1, n) if D[i][j] % D[t][t]), None)
            if stray is not None:
                add_row(t, stray[0], 1)
                continue
        if D[t][t] < 0:
            negate_row(t)
        t += 1
    return D, U, V


def _diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i]]


def _eliminate(columns):
    """Unit-pivot elimination of a sparse matrix, given as an iterable of
    columns, each a dict row label -> int.

    Each +-1 pivot is cleared from its row by unimodular column operations:
    the pivot column is subtracted from every other column meeting its row,
    and the pivot column leaves the matrix.  Short columns go first, and
    within a column the unit in the shortest row, to limit fill-in.

    Returns (pivots, rest).  pivots lists (row, unit, column) in order, the
    column without its pivot row; no pivot column meets an earlier pivot's
    row.  rest holds the columns left when no +-1 entry is left; they meet
    no pivot row, and with the pivots they span the lattice of the input.
    """
    cols = {j: dict(c) for j, c in enumerate(columns) if c}
    rows = {}  # row label -> the columns that meet it
    for j, c in cols.items():
        for r in c:
            rows.setdefault(r, set()).add(j)
    pivots = []
    queue = [(len(c), j) for j, c in cols.items()]
    heapq.heapify(queue)
    while queue:
        size, j = heapq.heappop(queue)
        col = cols.get(j)
        if col is None or len(col) != size:
            continue  # stale entry: the column was pivoted or changed
        piv = min((r for r, v in col.items() if v in (1, -1)),
                  key=lambda r: len(rows[r]), default=None)
        if piv is None:
            continue  # requeued if an elimination changes it
        del cols[j]
        for r in col:
            rows[r].discard(j)
        f = col.pop(piv)  # a unit is its own inverse
        for k in rows.pop(piv):
            other = cols[k]
            q = other.pop(piv) * f
            for r, v in col.items():
                new = other.get(r, 0) - q * v
                if new:
                    if r not in other:
                        rows[r].add(k)
                    other[r] = new
                else:
                    del other[r]
                    rows[r].discard(k)
            if other:
                heapq.heappush(queue, (len(other), k))
            else:
                del cols[k]
        pivots.append((piv, f, col))
    return pivots, list(cols.values())


def _present(columns):
    """_eliminate, then smith_normal_form of the leftover block: (pivots,
    the rows the leftover columns meet, U and the nonzero diagonal)."""
    pivots, rest = _eliminate(columns)
    labels = list(dict.fromkeys(r for col in rest for r in col))
    ridx = {r: i for i, r in enumerate(labels)}
    block = [[0] * len(rest) for _ in labels]
    for j, col in enumerate(rest):
        for r, v in col.items():
            block[ridx[r]][j] = v
    D, U, _ = smith_normal_form(block)
    return pivots, labels, U, _diagonal(D)


def kernel_basis(M):
    """Columns forming a Z-basis of ker M (unimodular V columns past the rank)."""
    m = len(M)
    n = len(M[0]) if m else 0
    if n == 0:
        return []
    D, _, V = smith_normal_form(M)
    rank = len(_diagonal(D))
    return [[V[i][j] for i in range(n)] for j in range(rank, n)]


class HomologyGroup(namedtuple("HomologyGroup", "degree betti torsion")):
    __slots__ = ()

    def as_json(self):
        return {"degree": self.degree, "betti": self.betti,
                "torsion": list(self.torsion)}


def homology(C, up_to=None):
    """Integral homology invariants per degree, from C's one cleared pass."""
    top = C.top_degree if up_to is None else up_to
    return [HomologyClasses(C, n).group() for n in range(top + 1)]


class HomologyClasses:
    """Homology classes of one degree, with canonical class coordinates
    and a generating set of cycles, read off C's cleared pass.

    E_(n+1) presents C_n / B_n, since its columns span B_n: clearing the
    pivot rows of a chain leaves its rows off the pivots, and the leftover
    block relates only those.  Two cycles are homologous exactly when their
    class coordinates agree.  Pivot columns are boundaries, so every class
    has a cycle on the labels R off the pivot rows, and d_n has the same
    image on R: E_n holds the columns of d_n on R.
    """

    def __init__(self, C, n):
        self.C = C
        self.n = n
        self.labels = C.basis.get(n, ())
        self.pivots, self.block_rows, self.U, self.invariants = \
            C._cleared[n + 1]
        pivot_rows = {r for r, _, _ in self.pivots}
        self.off = [lb for lb in self.labels if lb not in pivot_rows]  # R
        block = set(self.block_rows)
        self.free_rows = [lb for lb in self.off if lb not in block]

    def group(self):
        """H_n: R less the ranks of d_n on R (E_n) and of the leftover
        block, and the torsion of the leftover block."""
        pivots, _, _, invariants = self.C._cleared[self.n]
        betti = (len(self.off) - len(pivots) - len(invariants)
                 - len(self.invariants))
        return HomologyGroup(self.n, betti,
                             tuple(d for d in self.invariants if abs(d) > 1))

    def generators(self):
        """Cycle chains generating H_n: a Z-basis of ker d_n on R, by one
        _present of the rows of d_n on R, run on the first call only."""
        return self._cycles

    @cached_property
    def _cycles(self):
        rows = {}  # face -> {label: coeff}
        for lb in self.off:
            for face, c in self.C.boundary_of(lb).items():
                rows.setdefault(face, {})[lb] = c
        pivots, block_rows, U, invariants = _present(rows.values())
        solved = {r for r, _, _ in pivots} | set(block_rows)
        starts = [{lb: 1} for lb in self.off if lb not in solved]
        starts += [dict(zip(block_rows, row)) for row in U[len(invariants):]]
        for v in starts:  # no pivot column meets an earlier pivot's row
            for r, f, col in reversed(pivots):
                v[r] = -f * sum(c * v.get(s, 0) for s, c in col.items())
        return tuple(Chain.from_dict(self.n, v) for v in starts)

    def class_coords(self, cycle):
        """Coordinates of [cycle] in C_n / B_n: the leftover rows through U,
        torsion first and reduced, then free; then the untouched rows."""
        if not self.C.boundary(cycle).is_zero():
            raise ValueError("chain is not a cycle")
        v = cycle.as_dict()
        for r, f, col in self.pivots:
            q = v.pop(r, 0) * f
            for s, c in col.items():
                _add_into(v, s, -q * c)
        y = [v.get(r, 0) for r in self.block_rows]
        out = []
        for i, row in enumerate(self.U):
            d = self.invariants[i] if i < len(self.invariants) else 0
            if d != 1:
                w = sum(u * x for u, x in zip(row, y))
                out.append(w % d if d else w)
        return tuple(out + [v.get(lb, 0) for lb in self.free_rows])

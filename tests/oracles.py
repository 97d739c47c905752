"""Independent oracles, kept deliberately separate from the package code.

- brute-force face closure (set arithmetic only) for complex counts;
- the reference delta-core delta_core(X), whose faces are formed by
  slicing the vertex tuple and whose face identities are checked on every
  cell, with core_of and the comparison adjoin(core_of(X)) -> X peeled one
  degeneracy at a time; N(X) read through it, and C(X) built one degree at
  a time, against the shared face-sum builder and OrderedComplex.face;
- composition of graded maps, and the hom-complex differential formed by
  composing with the boundaries, against GradedMap.first_commutator_witness
  and the (theta, delta) squares of the reconstruction;
- a naive recursive Smith normal form and a Fraction-based rank, for
  homology invariants;
- a Z-basis of every n-cycle from the dense Smith normal form of d_n,
  against the homology generators read off the sparse elimination;
- homology from _present of every full d_n, with no clearing, against the
  groups read off each complex's one cleared top-down pass;
- surjection counting by recursion (no binomials);
- the action of any weakly monotone map on the degeneracy completion
  (compose, factor as injection . surjection, apply the missed core faces),
  against its faces and degeneracies read off their formulas;
- a degree-by-degree GF(2) equivariant-extension solver certifying that a
  mod-2 diagonal structure with the pinned top classes exists, and
  re-deriving the mod-2 chain-map equations from scratch;
- the Koszul boundary of a tensor chain on vertex tuples, and the
  integral cup-i tables built with it in TensorChain algebra, against the
  package's build and its boundary on packed (A, B) keys;
- the textbook front/back cochain cup product for the Sq^1 cross-check;
- the GF(2) coboundary by the face rule, simplex by simplex, which
  perturbs cocycle representatives without Mod2Cohomology;
- the row-scanning GF(2) echelon and the cup-i product read simplex by
  simplex through SteenrodStructure.delta, against the pivot-indexed
  echelon and the positional evaluation of steenrod_square_matrix;
- the iterated structure map by nested recursion, against the left fold
  inside xi_iterate;
- the exhaustive per-simplex check of C1-C5 and vanishing, against
  verify_structure, which reads each universal table once, on masks;
- the vertex map of a morphism simplex, read off its (theta, tau) pair,
  and the isomorphism a lift recovers, decided by forming both the map's
  and its inverse's simplex images, against recovered_bijection, which
  compares f-vectors;
- the morphism decision with the structure square formed on every
  (e_j, simplex) pair and the certificate read after it, against
  is_steenrod_morphism, which decides each local type of the vertex map
  once, up to the first simplex where the map leaves N(phi);
- brute search over every chain map N(standard n-simplex) -> N(X) with
  coefficients in [-2, 2], filtered through is_steenrod_morphism, against
  the guided enumerate_morphisms, which takes the rigidity result (every
  morphism out of simplex chains is induced by a vertex map) for granted;
- Steenrod's closed-form cup-i coproduct, mod 2, against the squares of
  the pinned tables;
- each face and degeneracy of the reconstruction decided by forming the
  composite on its own morphism simplex, against ShomSimplicialSet, which
  decides each (codegeneracy, operator) square once on the standard
  simplex and relabels it.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from unittest import mock

from cupi import steenrod
from cupi.chains import (Chain, FreeChainComplex, GradedMap, HomologyGroup,
                         TensorChain, _add_into, _present,
                         chain_map_from_vertex_map, kernel_basis)
from cupi.reconstruct import MorphismVerdict, image_pair, is_steenrod_morphism
from cupi.simplicial import (InvalidComplexError, VertexMap, adjoin,
                             epi_mono_factor, identity_map,
                             standard_simplex)
from cupi.steenrod import BarElement, aw_diagonal, eta, higher_diagonal


# ---------------------------------------------------------------------------
# combinatorial oracles
# ---------------------------------------------------------------------------

def closure_counts(facets):
    """f-vector by brute-force subset enumeration."""
    seen = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            seen.update(itertools.combinations(tuple(f), r))
    if not seen:
        return ()
    top = max(len(s) for s in seen)
    return tuple(sum(1 for s in seen if len(s) == k + 1) for k in range(top))


def count_surjections(m, n):
    """Order-preserving surjections {0..m} ->> {0..n}, counted recursively."""
    if n < 0 or n > m:
        return 0
    if m == 0:
        return 1 if n == 0 else 0
    # last value either repeats the previous step or is fresh
    return count_surjections(m - 1, n) + count_surjections(m - 1, n - 1)


def monotone_spanning_maps(n, X):
    """All weakly monotone vertex tuples of length n+1 spanning a simplex,
    enumerated directly over the vertex set."""
    out = []
    for tup in itertools.combinations_with_replacement(sorted(X.vertices), n + 1):
        image = tuple(sorted(set(tup)))
        if X.has_simplex(image):
            out.append(tup)
    return out


def monotone_action(sset, simplex, phi):
    """(theta, c) acted on by the weakly monotone map phi, contravariantly:
    factor theta . phi as injection . surjection, then apply the core faces
    of the values the injection misses, largest first."""
    theta, c = simplex
    surj, image = epi_mono_factor([theta[j] for j in phi])
    for v in reversed(range(max(theta) + 1)):
        if v not in image:
            c = sset.core.face(c, v)
    return (surj, c)


# ---------------------------------------------------------------------------
# the reference delta-core, and chain complexes through it
# ---------------------------------------------------------------------------

class DeltaComplex:
    """Indexed cells with face operators d_0..d_n per n-cell.

    `cells[n]` is a tuple of hashable labels (globally unique across
    dimensions); `faces[c]` lists (d_0 c, ..., d_n c) for every cell of
    positive dimension.  Treated as immutable after construction.
    """

    __slots__ = ("cells", "faces")

    def __eq__(self, other):
        if not isinstance(other, DeltaComplex):
            return NotImplemented
        return self.same_as(other)

    def __hash__(self):
        return hash(tuple(sorted((n, tuple(cs)) for n, cs in self.cells.items())))

    def __init__(self, cells, faces):
        self.cells, self.faces = cells, faces
        seen = set()
        for n, cs in self.cells.items():
            for c in cs:
                if c in seen:
                    raise InvalidComplexError(f"duplicate cell label {c!r}")
                seen.add(c)
            if n > 0:
                for c in cs:
                    if len(self.faces.get(c, ())) != n + 1:
                        raise InvalidComplexError(f"cell {c!r} lacks {n + 1} faces")
        self._check_face_identities()

    @property
    def dim(self):
        return max(self.cells) if self.cells else -1

    def simplices_of_dim(self, n):
        return self.cells.get(n, ())

    def face(self, cell, i):
        return self.faces[cell][i]

    def _check_face_identities(self):
        # d_i d_j = d_{j-1} d_i for i < j
        for n, cs in self.cells.items():
            if n < 2:
                continue
            for c in cs:
                for j in range(n + 1):
                    for i in range(j):
                        if self.face(self.face(c, j), i) != self.face(self.face(c, i), j - 1):
                            raise InvalidComplexError(
                                f"face identity d_{i} d_{j} fails on {c!r}")

    def same_as(self, other):
        """Exact equality of cell lists (in order) and face operators."""
        if set(self.cells) != set(other.cells):
            return False
        for n in self.cells:
            a = self.cells[n]
            if tuple(a) != tuple(other.cells[n]):
                return False
            if n > 0 and any(self.faces[c] != other.faces[c] for c in a):
                return False
        return True


def delta_core(X):
    """An ordered complex as a DeltaComplex: one cell per simplex, each
    face formed here by dropping one vertex of the tuple, not by X.face."""
    cells = {k: tuple(X.simplices_of_dim(k)) for k in range(X.dim + 1)}
    faces = {s: tuple(s[:i] + s[i + 1:] for i in range(len(s)))
             for k in range(1, X.dim + 1) for s in cells[k]}
    return DeltaComplex(cells=cells, faces=faces)


def core_of(sset):
    """The nondegenerate simplices and their faces (here: the stored core)."""
    return sset.core


def apply_surjection_degeneracies(sset, theta, simplex):
    """theta*(simplex): peel elementary degeneracies off theta one repeat
    position at a time and apply the simplicial-set operators."""
    if theta == identity_map(len(theta) - 1):
        return simplex
    p = next(i for i in range(1, len(theta)) if theta[i] == theta[i - 1])
    shorter = theta[:p] + theta[p + 1:]
    return sset.degeneracy(apply_surjection_degeneracies(sset, shorter, simplex),
                           p - 1)


def core_comparison_is_iso(sset, up_to):
    """Check that the canonical map adjoin(core_of(X)) -> X is an isomorphism
    through dimension up_to, by pairwise simplex matching.

    The map sends (theta, c) to the theta-degeneracy of the nondegenerate
    simplex (id, c), computed through the operator algebra.
    """
    rebuilt = adjoin(core_of(sset))
    for m in range(up_to + 1):
        image = []
        for theta, c in rebuilt.simplices_of_dim(m):
            n = max(theta) if theta else 0
            base = (identity_map(n), c)
            image.append(apply_surjection_degeneracies(sset, theta, base))
        if sorted(image) != sorted(sset.simplices_of_dim(m)):
            return False
    return True


def delta_normalized_chains(X):
    """N(X) read through delta_core(X): one generator per cell, d the
    alternating sum of the stored faces; the DeltaComplex checks the face
    identities on every cell."""
    D = delta_core(X)
    basis = {n: tuple(D.simplices_of_dim(n)) for n in D.cells}
    diff = {}
    for n in D.cells:
        if n == 0:
            continue
        for c in D.simplices_of_dim(n):
            acc = {}
            for i in range(n + 1):
                _add_into(acc, D.face(c, i), (-1) ** i)
            diff[c] = acc
    return FreeChainComplex(basis, diff)


def loop_unnormalized_chains(sset, up_to):
    """C(X) of a degeneracy-free simplicial set through degree up_to, one
    degree at a time."""
    basis = {}
    diff = {}
    for m in range(up_to + 1):
        basis[m] = sset.simplices_of_dim(m)
        if m > 0:
            for s in basis[m]:
                acc = {}
                for i in range(m + 1):
                    _add_into(acc, sset.face(s, i), (-1) ** i)
                if acc:
                    diff[s] = acc
    return FreeChainComplex(basis, diff)


# ---------------------------------------------------------------------------
# graded maps by composition
# ---------------------------------------------------------------------------

def compose(outer, inner):
    """outer . inner (inner applied first), built label by label."""
    comps = {}
    for lb, d in inner.comps.items():
        acc = comps.setdefault(lb, {})
        for mid, c in d.items():
            for tgt, v in outer.apply_label(mid).items():
                acc[tgt] = acc.get(tgt, 0) + c * v
    return GradedMap(inner.source, outer.target, outer.shift + inner.shift,
                     comps)


def boundary_map(C):
    """The differential of C as a graded map of shift -1."""
    return GradedMap(C, C, -1, {lb: C.boundary_of(lb) for lb in C.degree_of})


def commutator_with_boundary(f):
    """The hom-complex differential df = f . d - (-1)^shift d . f."""
    sgn = (-1) ** f.shift
    comps = compose(f, boundary_map(f.source)).comps
    for lb, d in compose(boundary_map(f.target), f).comps.items():
        acc = comps.setdefault(lb, {})
        for tgt, c in d.items():
            acc[tgt] = acc.get(tgt, 0) - sgn * c
    return GradedMap(f.source, f.target, f.shift - 1, comps)


# ---------------------------------------------------------------------------
# integer linear algebra, written independently of the package
# ---------------------------------------------------------------------------

def rational_rank(M):
    rows = [[Fraction(x) for x in row] for row in M]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivval = rows[rank][col]
        rows[rank] = [x / pivval for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def naive_invariant_factors(M):
    """Textbook recursive Smith normal form; returns the nonzero diagonal."""
    M = [row[:] for row in M]

    def smallest_nonzero(A):
        best = None
        where = None
        for i, row in enumerate(A):
            for j, x in enumerate(row):
                if x and (best is None or abs(x) < best):
                    best, where = abs(x), (i, j)
        return where

    def reduce_block(A):
        if not A or not A[0]:
            return []
        pos = smallest_nonzero(A)
        if pos is None:
            return []
        i0, j0 = pos
        A[0], A[i0] = A[i0], A[0]
        for row in A:
            row[0], row[j0] = row[j0], row[0]
        while True:
            changed = False
            for i in range(1, len(A)):
                if A[i][0]:
                    q = A[i][0] // A[0][0]
                    A[i] = [a - q * b for a, b in zip(A[i], A[0])]
                    changed = changed or A[i][0] != 0
            for j in range(1, len(A[0])):
                if A[0][j]:
                    q = A[0][j] // A[0][0]
                    for row in A:
                        row[j] -= q * row[0]
                    changed = changed or A[0][j] != 0
            if not changed:
                break
            pos = smallest_nonzero(A)
            i0, j0 = pos
            A[0], A[i0] = A[i0], A[0]
            for row in A:
                row[0], row[j0] = row[j0], row[0]
        pivot = abs(A[0][0])
        rest = [row[1:] for row in A[1:]]
        bad = next(((i, j) for i, row in enumerate(rest)
                    for j, x in enumerate(row) if x % pivot), None)
        if bad is not None:
            # the bad row goes into the pivot row, whose reduction then
            # leaves a remainder smaller than the pivot
            A[0] = [a + b for a, b in zip(A[0], A[bad[0] + 1])]
            return reduce_block(A)
        return [pivot] + reduce_block(rest)

    return reduce_block(M)


def kernel_generators(H):
    """Cycle chains generating H_n of a HomologyClasses H: a Z-basis of
    every n-cycle, the kernel of the dense d_n by Smith normal form."""
    C, n = H.C, H.n
    dn = C.boundary_matrix(n) if n > 0 else [[0] * len(H.labels)]
    return tuple(Chain.from_dict(n, {lb: c for lb, c in zip(H.labels, col)
                                     if c})
                 for col in kernel_basis(dn))


def full_column_homology(C, up_to=None):
    """HomologyGroups per degree from the invariant factors of each full
    boundary map d_(n+1), read off its sparse columns with no clearing:
    they give the torsion of H_n and the rank of the boundaries in degree
    n + 1."""
    top = C.top_degree if up_to is None else up_to
    invariants = [[]]  # of d_n
    for n in range(1, top + 2):
        pivots, _, _, factors = _present(map(C.boundary_of,
                                             C.basis.get(n, ())))
        invariants.append([1] * len(pivots) + factors)
    out = []
    for n in range(top + 1):
        betti = C.rank(n) - len(invariants[n]) - len(invariants[n + 1])
        torsion = tuple(d for d in invariants[n + 1] if abs(d) > 1)
        out.append(HomologyGroup(n, betti, torsion))
    return out


def naive_homology(C, up_to=None):
    """(betti, sorted torsion) per degree, using only the oracles above."""
    top = C.top_degree if up_to is None else up_to
    out = []
    for n in range(top + 1):
        dn = C.boundary_matrix(n)
        dn1 = C.boundary_matrix(n + 1)
        r_n = rational_rank(dn) if n > 0 and dn else 0
        inv = naive_invariant_factors(dn1) if (dn1 and dn1[0]) else []
        betti = C.rank(n) - r_n - len(inv)
        torsion = tuple(sorted(d for d in inv if d > 1))
        out.append((betti, torsion))
    return out


# ---------------------------------------------------------------------------
# GF(2) equivariant-extension solver
# ---------------------------------------------------------------------------

def _mod2_boundary(pair_vec, k):
    """Boundary of a mod-2 set of (A, B) position pairs on the k-simplex."""
    out = set()
    for (a, b) in pair_vec:
        if len(a) > 1:
            for i in range(len(a)):
                out ^= {(a[:i] + a[i + 1:], b)}
        if len(b) > 1:
            for i in range(len(b)):
                out ^= {(a, b[:i] + b[i + 1:])}
    return out


def _mod2_swap(pair_vec):
    return {(b, a) for (a, b) in pair_vec}


def _pairs_of_degree(k, deg):
    subs = [tuple(c) for r in range(1, k + 2)
            for c in itertools.combinations(range(k + 1), r)]
    return [(a, b) for a in subs for b in subs
            if (len(a) - 1) + (len(b) - 1) == deg]


def _gf2_solve(columns, target, width_index):
    """Solve sum of chosen columns = target over GF(2); None if unsolvable."""
    rows = []
    for j, col in enumerate(columns):
        mask = 0
        for key in col:
            mask |= 1 << width_index[key]
        rows.append((mask, 1 << j))
    tmask = 0
    for key in target:
        tmask |= 1 << width_index[key]
    basis = []
    for vec, tag in rows:
        for pvec, pb, ptag in basis:
            if vec & pvec:
                vec ^= pb
                tag ^= ptag
        if vec:
            basis.append((1 << (vec.bit_length() - 1), vec, tag))
    tag = 0
    for pvec, pb, ptag in basis:
        if tmask & pvec:
            tmask ^= pb
            tag ^= ptag
    if tmask:
        return None
    return {j for j in range(len(columns)) if tag >> j & 1}


def solve_mod2_structure(kmax):
    """Extend the mod-2 Alexander-Whitney diagonal equivariantly, degree by
    degree, on standard simplices through dimension kmax.

    Returns tables {(i, k): set of pairs}.  Asserts solvability at each level
    and that the forced top class is the diagonal pair.  This only uses
    GF(2) elimination and the mod-2 law
        d X(i,k) = X(i-1,k) + swap X(i-1,k) + sum_j X(i, k-1)|face_j.
    """
    tables = {}
    for k in range(kmax + 1):
        top = tuple(range(k + 1))
        tables[(0, k)] = {(top[:p + 1], top[p:]) for p in range(k + 1)}
        for i in range(1, k + 1):
            prev = tables[(i - 1, k)]
            rhs = set(prev) ^ _mod2_swap(prev)
            if i <= k - 1:
                for j in range(k + 1):
                    face = top[:j] + top[j + 1:]
                    for (a, b) in tables[(i, k - 1)]:
                        pa = tuple(face[x] for x in a)
                        pb = tuple(face[x] for x in b)
                        rhs ^= {(pa, pb)}
            if i == k:
                # the only degree-2k chain is the diagonal pair; it must solve
                assert _mod2_boundary({(top, top)}, k) == rhs, \
                    f"mod-2 top class fails at k={k}"
                tables[(i, k)] = {(top, top)}
                continue
            unknowns = _pairs_of_degree(k, k + i)
            widx = {p: idx for idx, p in enumerate(_pairs_of_degree(k, k + i - 1))}
            cols = [_mod2_boundary({p}, k) for p in unknowns]
            sol = _gf2_solve(cols, rhs, widx)
            assert sol is not None, f"mod-2 extension unsolvable at (i={i}, k={k})"
            tables[(i, k)] = {unknowns[j] for j in sol}
    return tables


def mod2_law_holds(table_getter, kmax):
    """Re-check the mod-2 chain-map law for any table source (e.g. the
    package tables reduced mod 2), using only this module's arithmetic."""
    for k in range(kmax + 1):
        top = tuple(range(k + 1))
        for i in range(1, k + 1):
            prev = table_getter(i - 1, k)
            rhs = set(prev) ^ _mod2_swap(prev)
            if i <= k - 1:
                for j in range(k + 1):
                    face = top[:j] + top[j + 1:]
                    for (a, b) in table_getter(i, k - 1):
                        rhs ^= {(tuple(face[x] for x in a),
                                 tuple(face[x] for x in b))}
            if _mod2_boundary(table_getter(i, k), k) != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# the integral tables with TensorChain algebra
# ---------------------------------------------------------------------------

def tensor_boundary(t):
    """Koszul alternating-face boundary of each factor of a TensorChain, on
    vertex tuples: the tuple-side d that steenrod._mask_boundary, on
    packed (A, B) keys, is checked against."""
    out = {}
    for key, c in t.coeffs:
        for pos, s in enumerate(key):
            if len(s) > 1:
                head, tail, sign = key[:pos], key[pos + 1:], c
                for i in range(len(s)):
                    _add_into(out, (*head, s[:i] + s[i + 1:], *tail), sign)
                    sign = -sign
            if len(s) % 2 == 0:  # odd degree: Koszul sign for later factors
                c = -c
    return TensorChain.from_dict(t.degree - 1, out)


def _contract(t):
    """Tensor-square cone contraction H = h (x) 1 + e (x) h, h = prepend 0."""
    out = {}
    for (a, b), c in t.coeffs:
        if a[0] != 0:
            out[((0,) + a, b)] = out.get(((0,) + a, b), 0) + c
        if len(a) == 1 and b[0] != 0:
            out[((0,), (0,) + b)] = out.get(((0,), (0,) + b), 0) + c
    return TensorChain.from_dict(t.degree + 1, out)


def _rhs(tables, i, k):
    """Right side of the chain-map law for the level-(i, k) table."""
    top = tuple(range(k + 1))
    prev = tables[(i - 1, k)]
    out = prev + prev.swap().scale((-1) ** i)
    if i <= k - 1:
        lower = tables[(i, k - 1)]
        for j in range(k + 1):
            out = out + lower.relabel(top[:j] + top[j + 1:]).scale(
                (-1) ** (i + j))
    return out


def build_tables(kmax):
    """The universal tables {(i, k): TensorChain} through level kmax: each
    (i, k) contracts the right side of the chain-map law on vertex tuples,
    and (k - 1, k) takes the even cycle correction that pins (k, k) to
    eta_k top (x) top.  Raises AssertionError on a failed check.

    It checks that each right side R is a cycle first, then the top
    identity, then dD = R, taking every boundary.  The package's build
    takes one boundary per entry, for dD = R, and reads dR only to name a
    failure, in the same order; this is its slow oracle."""
    tables = {(0, 0): aw_diagonal((0,))}
    for k in range(1, kmax + 1):
        top = tuple(range(k + 1))
        tables[(0, k)] = aw_diagonal(top)
        for i in range(1, k + 1):
            R = _rhs(tables, i, k)
            if not tensor_boundary(R).is_zero():
                raise AssertionError(f"rhs not a cycle at {(i, k)}")
            D = _contract(R)
            if i == k:
                want = TensorChain(2 * k, (((top, top), eta(k)),))
                lam = D.as_dict().get((top, top), 0)
                if lam != eta(k):
                    mu = (eta(k) - lam) // 2
                    corr = tensor_boundary(
                        TensorChain(2 * k, (((top, top), 1),)))
                    tables[(k - 1, k)] = tables[(k - 1, k)] + corr.scale(mu)
                    R = _rhs(tables, i, k)
                    D = _contract(R)
                if D != want:
                    raise AssertionError(f"top identity at {(i, k)}")
            if tensor_boundary(D) != R:
                raise AssertionError(f"chain-map law at {(i, k)}")
            tables[(i, k)] = D
    return tables


# ---------------------------------------------------------------------------
# direct cochain cup product (no diagonal tables)
# ---------------------------------------------------------------------------

def direct_cup_square(X, u_edges):
    """(u cup u) on 2-simplices via the front/back formula, mod 2.

    u is a set of edges; returns the set of 2-simplices where the cup square
    is 1.  Independent route for the Sq^1 check on 1-cocycles.
    """
    out = set()
    for s in X.simplices_of_dim(2):
        front = s[:2]
        back = s[1:]
        if (front in u_edges) and (back in u_edges):
            out.add(s)
    return out


def mod2_coboundary(X, u, j):
    """delta u for a GF(2) j-cochain u, a bitmask over X.simplices_of_dim(j),
    by the face rule (delta u)(s) = sum over i of u(d_i s), read simplex by
    simplex: a bitmask over X.simplices_of_dim(j + 1)."""
    cochain = {s for i, s in enumerate(X.simplices_of_dim(j)) if u >> i & 1}
    out = 0
    for n, s in enumerate(X.simplices_of_dim(j + 1)):
        if sum(s[:i] + s[i + 1:] in cochain for i in range(len(s))) % 2:
            out |= 1 << n
    return out


def mod2_cocycle_in_coboundaries(X, two_cochain):
    """Is a 2-cochain a coboundary?  Fraction-free GF(2) elimination over the
    edge-to-triangle incidence."""
    triangles = list(X.simplices_of_dim(2))
    edges = list(X.simplices_of_dim(1))
    tidx = {t: i for i, t in enumerate(triangles)}
    cols = []
    for e in edges:
        mask = 0
        for t in triangles:
            faces = [t[:i] + t[i + 1:] for i in range(3)]
            if faces.count(e) % 2:
                mask |= 1 << tidx[t]
        cols.append(mask)
    target = 0
    for t in two_cochain:
        target |= 1 << tidx[t]
    basis = []
    for vec in cols:
        for pb in basis:
            if vec & (1 << (pb.bit_length() - 1)):
                vec ^= pb
        if vec:
            basis.append(vec)
    for pb in basis:
        if target & (1 << (pb.bit_length() - 1)):
            target ^= pb
    return target == 0


class ScanEchelon:
    """Incremental GF(2) row echelon that scans every stored row.

    Each row is stored reduced against the earlier rows, so one pass in
    insertion order leaves a vector zero at every pivot.
    """

    def __init__(self, rows=()):
        self._rows = []  # (pivot bit, vector, tag)
        for vec, tag in rows:
            self.add(vec, tag)

    def rows(self):
        return [(vec, tag) for _, vec, tag in self._rows]

    def reduce(self, vec, tag=0):
        for pivot, row, row_tag in self._rows:
            if vec & pivot:
                vec ^= row
                tag ^= row_tag
        return vec, tag

    def add(self, vec, tag):
        self._rows.append((1 << (vec.bit_length() - 1), vec, tag))


def cup_product_value(struct, m, u_set, v_set, simplex, p, q):
    """(u cup_m v)(simplex) mod 2 for cochain supports u_set in C^p, v_set
    in C^q, read off the entry struct.delta(m, simplex)."""
    total = 0
    for (a, b), _ in struct.delta(m, simplex).coeffs:
        if len(a) - 1 == p and len(b) - 1 == q and a in u_set and b in v_set:
            total ^= 1
    return total


class ClosedFormDiagonal:
    """Steenrod's closed-form cup-i coproduct, mod 2, read as a structure's
    delta(i, s): over U in {0..n} with |U| = n - i, the pair
    (d_(U^1) s, d_(U^0) s), where d_V s drops the vertices at the positions
    in V, U^0 holds the u_j = j (mod 2), j counted from 0 in increasing
    order, and U^1 = U minus U^0 (Medina-Mardones, "New formulas for cup-i
    products and fast computation of Steenrod squares").  The pair names
    the positions it drops, so no two U share one.  Mod 2 it gives the
    squares of the pinned tables; over Z it is not those tables."""

    def delta(self, i, s):
        n, pairs = len(s) - 1, {}
        for U in itertools.combinations(range(n + 1), n - i) if i <= n else ():
            parts = [{u for j, u in enumerate(U) if (u - j) % 2 == e}
                     for e in (1, 0)]
            pairs[tuple(tuple(v for p, v in enumerate(s) if p not in V)
                        for V in parts)] = 1
        return TensorChain.from_dict(n + i, pairs)


def scan_squares(X, i, struct=None):
    """steenrod_squares(X, i) by the slow path: Mod2Cohomology on the
    scanning echelon, and u cup_(j-i) u summed simplex by simplex over the
    entries of struct, by default a fresh SteenrodStructure."""
    with mock.patch.object(steenrod, "_Echelon", ScanEchelon):
        coh = steenrod.Mod2Cohomology(X)
    struct = struct or steenrod.SteenrodStructure(X)
    out = {}
    for j in range(X.dim + 1):
        source = coh.representatives(j)
        target = j + i
        matrix = [[0] * len(source) for _ in range(coh.betti(target))]
        for c, rep in enumerate(source):
            u = coh.cochain_from_bits(rep, j)
            value = 0
            if 0 <= j - i and target <= X.dim:
                for idx, s in enumerate(coh.simplices[target]):
                    if cup_product_value(struct, j - i, u, u, s, j, j):
                        value |= 1 << idx
            if target <= X.dim:
                for r, bit in enumerate(coh.class_coords(value, target)):
                    matrix[r][c] = bit
        out[j] = matrix
    return out


# ---------------------------------------------------------------------------
# the iterated structure map by nested evaluation
# ---------------------------------------------------------------------------

def nested_xi(struct, chain, bars):
    """The n-fold iterate of xi on a chain, on bar inputs b_1, ..., b_(n-1):
    level j applies xi under the first j - 1 tensor coordinates, by
    recursion on each first factor (xi_iterate folds from the left)."""
    first = struct.xi(bars[0], chain)
    if len(bars) == 1:
        return first
    rest = bars[1:]
    degree = chain.degree + sum(b.degree for b in bars)
    out = {}
    cache = {}
    for (a, b), c in first.coeffs:
        if a not in cache:
            cache[a] = nested_xi(struct, struct.chains.generator(a), rest)
        for key, v in cache[a].coeffs:
            out[key + (b,)] = out.get(key + (b,), 0) + v * c
    return TensorChain.from_dict(degree, out)


# ---------------------------------------------------------------------------
# the structure checks, simplex by simplex
# ---------------------------------------------------------------------------

def scan_structure(S):
    """(ok, check, witness) of the first violation of C1-C5 or of
    vanishing above dim s through S.max_i, found by reading every entry of
    every simplex.

    Simplices are scanned by dimension, so when the C1/C2 loop on s stops
    at dim s + 1, s and its faces have passed the vanishing check: above
    that both sides of C1 and C2 are zero.
    """
    X = S.complex
    for s in X.all_simplices():
        k = len(s) - 1
        if S.delta(0, s) != aw_diagonal(s):
            return False, "C3", (0, s)
        want = TensorChain.from_dict(2 * k, {(s, s): eta(k)})
        if k <= S.max_i and S.delta(k, s) != want:
            return False, "C4", (k, s)
        for i in range(k + 1, S.max_i + 1):
            if not S.delta(i, s).is_zero():
                return False, "vanishing", (i, s)
        gen = S.chains.generator(s)
        ds = S.chains.boundary(gen)
        for i in range(min(S.max_i, k + 1) + 1):
            rhs = {}
            if i >= 1:
                prev = S.delta(i - 1, s)
                for key, c in (prev + prev.swap().scale((-1) ** i)).coeffs:
                    rhs[key] = rhs.get(key, 0) + c
            for face, c in ds.coeffs:
                for key, v in S.delta(i, face).coeffs:
                    rhs[key] = rhs.get(key, 0) + c * (-1) ** i * v
            rhs = tuple(sorted((key, c) for key, c in rhs.items() if c))
            if tensor_boundary(S.delta(i, s)) != \
                    TensorChain(i + k - 1, rhs):
                return False, "C1", (i, s)
            if S.xi(BarElement.te(i), gen) != S.xi(BarElement.e(i), gen).swap():
                return False, "C2", (i, s)
        for i in range(min(k, S.max_i) + 1):
            if S.delta(i, s) != higher_diagonal(i, s):
                return False, "C5", (i, s)
    return True, "", ()


# ---------------------------------------------------------------------------
# the morphism decision, pair by pair
# ---------------------------------------------------------------------------

def vertex_map_components(vm):
    """The components of N(vm), formed here and not by the package: the
    images of a simplex's vertices, sorted, with coefficient 1 when no two
    agree; a simplex on which two agree is left out."""
    m = vm.as_dict()
    comps = {}
    for s in vm.source.all_simplices():
        image = sorted(m[v] for v in s)
        if all(a != b for a, b in zip(image, image[1:])):
            comps[s] = {tuple(image): 1}
    return comps


def morphism_vertex_map(ms):
    """The vertex map p -> tau[theta[p]] of a morphism simplex
    (theta, tau), on the standard n-simplex."""
    return VertexMap.from_dict(
        standard_simplex(len(ms.surjection) - 1), ms.target,
        {p: ms.simplex[t] for p, t in enumerate(ms.surjection)})


def inverse_simplicial_bijection(vm):
    """vm when it is a bijection of vertices whose inverse vertex map is
    simplicial too, else None: recovered_bijection by its definition,
    with both simplicial checks formed here."""
    m = vm.as_dict()
    if sorted(m.values()) != sorted(vm.target.vertices):
        return None
    inverse = {w: v for v, w in m.items()}
    for A, B, g in ((vm.source, vm.target, m), (vm.target, vm.source, inverse)):
        if not all(B.has_simplex(tuple(sorted(g[v] for v in s)))
                   for s in A.all_simplices()):
            return None
    return vm


def scan_morphism(f, source, target):
    """is_steenrod_morphism by the full scan: the chain-map law and the
    augmentation, then (f (x) f) . xi_src = xi_tgt . (1 (x) f) formed on
    every (e_j, simplex) pair with j + dim(simplex) <= 2 dim(target), in
    scan order.  Only after the square holds everywhere is the certificate
    read, here and not by the package: the unit vertex images, when they
    form an order-preserving simplicial vertex map whose induced components
    are f's."""
    S_src = steenrod.structure_for(source)
    S_tgt = steenrod.structure_for(target)
    NA = S_src.chains
    if f.shift != 0:
        return MorphismVerdict("not_chain_map", witness=f.shift)
    bad_deg = f.first_commutator_witness()
    if bad_deg is not None:
        return MorphismVerdict("not_chain_map", witness=bad_deg)
    for (v,) in source.simplices_of_dim(0):
        if sum(f.apply_label((v,)).values()) != 1:
            return MorphismVerdict("not_morphism", witness=("augmentation", (v,)))
    bound = 2 * target.dim
    for s in source.all_simplices():
        k = len(s) - 1
        for j in range(min(k, max(bound - k, 0)) + 1):
            left = S_src.delta(j, s).map_factors(f.apply_label)
            right = S_tgt.xi(BarElement.e(j), f.apply(NA.generator(s)))
            if left != right:
                return MorphismVerdict("not_morphism", witness=(j, s))
    images = {v: f.apply_label((v,)) for (v,) in source.simplices_of_dim(0)}
    if any(len(img) != 1 or 1 not in img.values() for img in images.values()):
        return MorphismVerdict("morphism")
    vm = VertexMap.from_dict(source, target,
                             {v: w for v, img in images.items()
                              for (w,) in img})
    if not (vm.is_order_preserving() and vm.is_simplicial()
            and vertex_map_components(vm) == f.comps):
        vm = None
    return MorphismVerdict("morphism", certificate=vm)


# ---------------------------------------------------------------------------
# morphism enumeration by brute search
# ---------------------------------------------------------------------------

BRUTE_BOUND = 2
BRUTE_MAX_SOURCE_VERTICES = 4
BRUTE_MAX_TARGET_VERTICES = 6
BRUTE_MAX_VECTORS_PER_DEGREE = 2_000_000


def _bounded_vectors(length):
    return itertools.product(range(-BRUTE_BOUND, BRUTE_BOUND + 1),
                             repeat=length)


# a morphism found by brute search, with the vertex map of its certificate
# and the (surjection, simplex) pair read off it, (None, None) without one
BruteMorphism = namedtuple("BruteMorphism",
                           "chain_map vertex_map surjection simplex")


def brute_morphisms(n, X):
    """All morphisms N(standard n-simplex) -> N(X) with coefficients in
    [-2, 2], by exhausting chain maps degree by degree: degree-0 candidates
    are pre-filtered by the (e_0, vertex) square and augmentation, which
    every morphism must satisfy; all other degrees are exhausted against
    the chain-map law alone; every candidate is then decided by
    is_steenrod_morphism.  Inputs above the caps raise ValueError."""
    if n + 1 > BRUTE_MAX_SOURCE_VERTICES:
        raise ValueError(f"source has {n + 1} vertices")
    if len(X.vertices) > BRUTE_MAX_TARGET_VERTICES:
        raise ValueError(f"target has {len(X.vertices)} vertices")
    source = standard_simplex(n)
    NA = steenrod.structure_for(source).chains
    NB = steenrod.structure_for(X).chains
    S_tgt = steenrod.structure_for(X)

    # degree-0 candidates: bounded 0-chains c with AW(c) = c (x) c and
    # augmentation 1 -- exhausted, not assumed
    verts = list(X.simplices_of_dim(0))
    if (2 * BRUTE_BOUND + 1) ** len(verts) > BRUTE_MAX_VECTORS_PER_DEGREE:
        raise ValueError("degree-0 search space too large")
    vertex_candidates = []
    for vec in _bounded_vectors(len(verts)):
        if sum(vec) != 1:
            continue
        chain = Chain.from_dict(0, {verts[i]: v for i, v in enumerate(vec)})
        awc = S_tgt.xi(BarElement.e(0), chain)
        square = {}
        for (a, ca) in chain.coeffs:
            for (b, cb) in chain.coeffs:
                square[(a, b)] = square.get((a, b), 0) + ca * cb
        if awc == TensorChain.from_dict(0, square):
            vertex_candidates.append(dict(chain.coeffs))

    # bucket bounded d-chains by their boundary, once per needed degree
    buckets = {}
    for d in range(1, n + 1):
        labels = list(X.simplices_of_dim(d))
        if (2 * BRUTE_BOUND + 1) ** len(labels) > BRUTE_MAX_VECTORS_PER_DEGREE:
            raise ValueError(f"degree-{d} search space too large")
        bucket = {}
        faces = list(X.simplices_of_dim(d - 1))
        fidx = {s: i for i, s in enumerate(faces)}
        cols = []
        for lb in labels:
            col = [0] * len(faces)
            for face, c in NB.boundary_of(lb).items():
                col[fidx[face]] += c
            cols.append(col)
        for vec in _bounded_vectors(len(labels)):
            b = tuple(sum(v * col[i] for v, col in zip(vec, cols))
                      for i in range(len(faces)))
            bucket.setdefault(b, []).append(
                {labels[i]: v for i, v in enumerate(vec) if v})
        buckets[d] = (bucket, faces)

    results = []
    seen = set()
    src_by_dim = [source.simplices_of_dim(d) for d in range(n + 1)]

    def extend(d, comps):
        if d > n:
            f = GradedMap(NA, NB, 0, {k: v for k, v in comps.items() if v})
            verdict = is_steenrod_morphism(f, source, X)
            if verdict.ok:
                key = tuple(sorted((lb, tuple(sorted(img.items())))
                                   for lb, img in f.comps.items()))
                if key not in seen:
                    seen.add(key)
                    vm = verdict.certificate
                    pair = (None, None) if vm is None else epi_mono_factor(
                        [vm.as_dict()[p] for p in range(n + 1)])
                    results.append(BruteMorphism(f, vm, *pair))
            return
        if d == 0:
            for assignment in itertools.product(vertex_candidates,
                                                repeat=len(src_by_dim[0])):
                new = dict(comps)
                for (v,), img in zip(src_by_dim[0], assignment):
                    new[(v,)] = img
                extend(1, new)
            return
        bucket, faces = buckets[d]
        options = []
        for s in src_by_dim[d]:
            target_bdry = [0] * len(faces)
            fidx = {lb: i for i, lb in enumerate(faces)}
            for face, c in NA.boundary_of(s).items():
                for lb, v in comps.get(face, {}).items():
                    target_bdry[fidx[lb]] += c * v
            opts = bucket.get(tuple(target_bdry), [])
            if not opts:
                return
            options.append((s, opts))
        for combo in itertools.product(*[opts for _, opts in options]):
            new = dict(comps)
            for (s, _), img in zip(options, combo):
                new[s] = img
            extend(d + 1, new)

    extend(0, {})
    results.sort(key=lambda ms: (ms.simplex is None, ms.simplex or (),
                                 ms.surjection or ()))
    return results


# ---------------------------------------------------------------------------
# faces and degeneracies of the reconstruction, one composite per simplex
# ---------------------------------------------------------------------------

def precompose_by_composite(shom, ms, values, dim, operators):
    """The stored dim-simplex of shom equal to ms precomposed with N(values),
    found by the image pair of ms's vertex map and compared by forming
    stored = ms . N(values) on this morphism simplex, or None.  operators,
    the caller's dict, keeps each N(values) by (n, values)."""
    n = len(ms.surjection) - 1
    if (n, values) not in operators:
        small, big = standard_simplex(dim), standard_simplex(n)
        operators[n, values] = chain_map_from_vertex_map(
            VertexMap.from_dict(small, big, dict(enumerate(values))),
            steenrod.structure_for(small).chains,
            steenrod.structure_for(big).chains)
    stored = shom._by_pair[dim].get(
        image_pair(morphism_vertex_map(ms).as_dict(),
                   (values, tuple(range(n + 1)))))
    if stored is None:
        return None
    composite = compose(ms.chain_map, operators[n, values])
    return stored if composite.equals(stored.chain_map) else None

"""Iterated diagonals, the coalgebra-morphism decision procedure, morphism
enumeration, reconstruction of the simplicial set from normalized chains, and
lifting of coalgebra morphisms to simplicial maps.

The separation device: evaluating the iterated structure maps of a chain c on
the vector rho_m = (eta_m E_{2,m}, eta_m^2 E_{3,m}, ...) sends a simplex
generator to (c, c (x) c, c (x) c (x) c, ...) and nothing else to such a
tuple, so single simplices are recognizable inside the chain complex.  From
that, coalgebra morphisms out of simplex chains are exactly the chain maps
induced by weakly order-preserving vertex maps, and the functor sending a
complex to its coalgebra-morphism simplicial set rebuilds the complex with
all degeneracies freely added.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb

from .chains import (GradedMap, TensorChain, _add_into, _apply, _present,
                     _terms, HomologyClasses, induced_components,
                     induced_image, simplex_degree, unnormalized_chains)
from .simplicial import (VertexMap, adjoin, coface, codegeneracy,
                         epi_mono_factor, identity_map, standard_simplex,
                         surjections)
from .steenrod import eta, higher_diagonal, square_failure, structure_for


# Enumeration and reconstruction: the most units of work one call may do,
# summed over the dimensions n it reaches (_refuse_oversized_work).  A unit
# took 0.28 us (enumerate on a triangle at n = 9: 1 009 767 units, 0.28 s)
# to 4.9 us (reconstruct on RP^5 through 4: 893 088 units, 4.4 s, 318 MB)
# on a 2-core x86 VM, so an admitted run takes at most about 10 s there.
# It admits every input of the earlier caps of 20 000 morphisms and 50 000
# (morphism, face) pairs, up to enumerate on a point at n = 14 (2 031 569).
GUIDED_MAX_WORK = 2_100_000


def _refuse_oversized_work(X, dims):
    """Raise before any work when the work at the n in dims is more than
    GUIDED_MAX_WORK units.  At n there are M = sum over k of C(n, k) f_k
    morphism simplices, one per n-simplex of the degeneracy completion of
    X, each built, sorted and looked up once, and T = sum over
    k <= min(n, dim X) of C(n, k) codegeneracies.  Each codegeneracy is
    decided over the 2^(n+1) - 1 faces of the n-simplex, and each of its
    2n + 3 face and degeneracy squares, like the chain map of each of those
    operators, reads about as many faces.  So work(n) is
    max(n + 1, M) + (2^(n+1) - 1)(T + 1)(2n + 3), and n + 1 on the empty
    complex, where nothing is built: that floor ends the scan of a huge
    range within a few thousand values of n.  Past the cap's bit length,
    one face term alone exceeds the cap, so the exponent is bounded."""
    f = X.f_vector()  # () on the empty complex
    total = 0
    for n in dims:
        total += max(n + 1, sum(comb(n, k) * fk for k, fk in enumerate(f)))
        if f:
            faces = 2 ** min(n + 1, GUIDED_MAX_WORK.bit_length() + 1) - 1
            thetas = sum(comb(n, k) for k in range(min(n, X.dim) + 1))
            total += faces * (thetas + 1) * (2 * n + 3)
        if total > GUIDED_MAX_WORK:
            raise ValueError(
                f"more than {GUIDED_MAX_WORK} units of work to enumerate")


# ---------------------------------------------------------------------------
# iterated structure maps
# ---------------------------------------------------------------------------

def xi_iterate(struct, chain, K=3):
    """Evaluate the iterated structure maps of a homogeneous chain on rho_m.

    Returns the tuple of its K components, of arities 1 through K; a simplex
    generator yields exactly (c, c (x) c, ..., c^(x K)).  Computed as a left
    fold: each step expands the leftmost tensor factor s through its entry
    Delta_m(s) = xi(e_m (x) s).
    """
    if K < 2:
        raise ValueError("truncation K must be at least 2")
    m = chain.degree
    # each step contributes one factor of the rho coefficient, so the
    # arity-k component carries eta_m^(k-1)
    sign = eta(m)
    comps = [TensorChain(m, tuple(((s,), c) for s, c in chain.coeffs))]
    current = comps[0]
    for k in range(2, K + 1):
        deg = current.degree + m
        out = {}
        for key, c in current.coeffs:
            for (a, b), v in struct.delta(m, key[0]).coeffs:
                _add_into(out, (a, b) + key[1:], sign * c * v)
        current = TensorChain(deg, _terms(out))
        comps.append(current)
    return tuple(comps)


# ---------------------------------------------------------------------------
# the morphism decision procedure
# ---------------------------------------------------------------------------

class MorphismVerdict(namedtuple("MorphismVerdict",
                                 "status witness certificate",
                                 defaults=(None, None))):
    # status is "morphism", "not_morphism" or "not_chain_map"
    __slots__ = ()

    @property
    def ok(self):
        return self.status == "morphism"

    def as_json(self):
        w = self.witness
        if isinstance(w, tuple):
            w = [list(x) if isinstance(x, tuple) else x for x in w]
        cert = None
        if self.certificate is not None:
            cert = {str(v): img for v, img in self.certificate.mapping}
        return {"status": self.status, "witness": w, "certificate": cert}


def is_steenrod_morphism(f, source, target, types=None):
    """Decide whether a graded map N(source) -> N(target) is a morphism of
    the diagonal structures.

    Checks, in order: degree-0 shift and chain-map law; augmentation
    preservation in degree 0; then the structure square
    (f (x) f) . xi_src = xi_tgt . (1 (x) f) on every pair (e_j, simplex) with
    j + dim(simplex) <= 2 dim(target) (both sides vanish above that range),
    one simplex at a time in scan order, each by steenrod.square_failure.

    The vertex map phi is read off the unit vertex images, in the loop of
    the augmentation check, when it is order-preserving; the scan alone
    decides whether it is simplicial.  On a simplex s write
    phi|s = tau . theta with theta: [n] ->> [k] a codegeneracy and tau
    injective.  Delta_j(s) is the universal table relabeled by s on both
    structures, and relabeling by tau is injective and commutes with
    map_factors, so the square of N(phi) on s is the square of N(theta) on
    the top simplex of the standard n-simplex, relabeled by tau: each local
    type theta is decided once (_type_failure), with its first failing j.
    Let s0 be the first simplex with f(s0) != N(phi)(s0).  The square on s
    reads f on the faces of s only, and faces come before their simplex in
    scan order, so before s0 the square is N(phi)'s and its type decides
    it, with the pair the scan would report, whatever phi does on later
    simplices.  From s0 on, and from the first simplex when there is no
    phi, every square reads f and the entries of both structures.
    When no s0 is met, phi is simplicial: f's labels are simplices of the
    target, so the image of each s on which phi is injective is one, and
    any other image is the image of such a face of s.
    types, when given, is a dict from theta to its j (or None) shared by
    calls on the same tables.

    Returns a verdict whose witness re-checks by direct evaluation; a
    positive verdict carries phi as certificate when no s0 was met, that is
    when f = N(phi).
    """
    S_src = structure_for(source)
    S_tgt = structure_for(target)
    if (f.source.basis != S_src.chains.basis
            or f.target.basis != S_tgt.chains.basis):
        raise ValueError("map is not between the chains of the given complexes")
    if f.shift != 0:
        return MorphismVerdict("not_chain_map", witness=f.shift)
    bad_deg = f.first_commutator_witness()
    if bad_deg is not None:
        return MorphismVerdict("not_chain_map", witness=bad_deg)
    m = {}  # phi's mapping, or None when a vertex image is not one vertex
    for (v,) in source.simplices_of_dim(0):
        image = f.apply_label((v,))
        if sum(image.values()) != 1:
            return MorphismVerdict("not_morphism", witness=("augmentation", (v,)))
        if m is not None and list(image.values()) == [1]:
            (m[v],), = image
        else:
            m = None
    phi = None if m is None else VertexMap.from_dict(source, target, m)
    if phi is not None and not phi.is_order_preserving():
        phi = None
    types = {} if types is None else types
    for s in source.all_simplices():
        if phi is not None:
            if f.apply_label(s) == induced_image(m, s):
                theta = epi_mono_factor([m[v] for v in s])[0]
                if theta not in types:
                    types[theta] = _type_failure(theta)
                j = types[theta]
            else:
                phi = None  # s is s0: f leaves N(phi) here
        if phi is None:
            j = square_failure(S_src.delta, S_tgt.delta, f.apply_label, s,
                               2 * target.dim)
        if j is not None:
            return MorphismVerdict("not_morphism", witness=(j, s))
    return MorphismVerdict("morphism", certificate=phi)


def _type_failure(theta):
    """The first j at which the structure square of N(theta) fails on the
    top simplex, for a codegeneracy theta: [n] ->> [k], or None.  Both sides
    read higher_diagonal, as SteenrodStructure.delta does, and N(theta) is
    read by induced_image on faces of positions."""
    return square_failure(higher_diagonal, higher_diagonal,
                          lambda face: induced_image(theta, face),
                          identity_map(len(theta) - 1), 2 * theta[-1])


# ---------------------------------------------------------------------------
# morphism enumeration
# ---------------------------------------------------------------------------

class MorphismSimplex(namedtuple("MorphismSimplex",
                                 "surjection simplex target")):
    """The verified morphism N(tau . theta): N(standard n-simplex) ->
    N(target) of a codegeneracy theta = surjection: [n] ->> [k] and a
    k-simplex tau = simplex of the target.  Every morphism is one such
    pair, so the pair is the morphism: its chain map is formed when read."""

    __slots__ = ()

    @property
    def pair(self):
        return (self.surjection, self.simplex)

    def is_nondegenerate(self):
        return self.surjection == identity_map(len(self.surjection) - 1)

    @property
    def chain_map(self):
        return _induced(tuple([self.simplex[t] for t in self.surjection]),
                        self.target)


def _induced(values, target):
    """N(phi): N(standard m-simplex) -> N(target) of the vertex map
    phi: p -> values[p], given by its m + 1 values."""
    source = standard_simplex(len(values) - 1)
    return GradedMap(structure_for(source).chains,
                     structure_for(target).chains, 0,
                     induced_components(values, source.all_simplices()))


def image_pair(m, pair):
    """The vertex map m, a dict, applied to a (surjection, simplex) pair: the
    vertices simplex[surjection[t]], mapped by m and epi-mono factored into
    the (surjection, simplex) pair of the image."""
    theta, tau = pair
    return epi_mono_factor(tuple(m[tau[t]] for t in theta))


def enumerate_morphisms(n, X):
    """All diagonal-structure morphisms N(standard n-simplex) -> N(X).

    Each one is N(tau . theta) for one pair of a codegeneracy theta of the
    n-simplex onto the k-simplex and a k-simplex tau of X, k <= dim X, and
    the walk visits these pairs directly.  The full decision procedure runs
    once per theta, on N(theta) into the standard k-simplex, with one memo
    of local types for the whole call; every k-simplex tau then gives the
    record (theta, tau, X), and nothing is built per tau.  That is sound:
    Delta_j(t) is the universal table relabeled by t on both structures,
    and relabeling by tau is injective and commutes with map_factors, the
    boundary and the augmentation, so N(tau . theta), N(theta) relabeled
    by tau, is a morphism with N(theta).  The bound 2 dim X in place of 2k
    only adds pairs whose two sides are zero.  The thetas are decided in
    surjections order within each k, so a failing theta raises with its
    own verdict.  Inputs above the work cap are refused before any work.
    """
    _refuse_oversized_work(X, (n,))
    if not X.simplices:
        return []
    source = standard_simplex(n)
    types = {}  # local type -> its first failing j, for every theta
    out = []
    for k in range(min(n, X.dim) + 1):
        target = standard_simplex(k)
        for theta in surjections(n, k):
            verdict = is_steenrod_morphism(_induced(theta, target), source,
                                           target, types)
            if not verdict.ok:
                raise RuntimeError(
                    f"internal: induced map failed verification: {verdict}")
            out.extend(MorphismSimplex(theta, tau, X)
                       for tau in X.simplices_of_dim(k))
    out.sort(key=lambda ms: (ms.simplex, ms.surjection))
    return out


# ---------------------------------------------------------------------------
# the reconstruction functor and its verification
# ---------------------------------------------------------------------------

# Keys are (n, values): verify_reconstruction reads the n + 1 cofaces, and
# later the n + 1 codegeneracies, of one level n at a time, and the work cap
# admits no n above 14, so one level's operators always fit.
_OPERATOR_CACHE_SIZE = 16


@lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _operator(n, values):
    """N(delta): N(standard dim-simplex) -> N(standard n-simplex) of the
    monotone map delta: p -> values[p], with the chain-map law checked."""
    operator = _induced(values, standard_simplex(n))
    bad = operator.first_commutator_witness()
    if bad is not None:  # N of a monotone map is a chain map
        raise RuntimeError(f"internal: N{values} is not a chain "
                           f"map: fails in degree {bad}")
    return operator


class ShomSimplicialSet:
    """The simplicial set whose n-simplices are the verified morphisms out
    of n-simplex chains, with faces and degeneracies by precomposition.

    Materialized through dimension up_to, as (theta, tau) records.  An
    operator returns the stored simplex equal to the composite, or None, so
    simplicial identities are checkable directly.  Write
    theta . delta = iota . theta' (epi-mono).  Relabeling by the injective
    tau is injective on chains and commutes with precomposition, so
    N(tau . theta) . N(delta) is N(tau . iota . theta') exactly when
    N(iota . theta') = N(theta) . N(delta) on the standard simplices; the
    answer is then the record filed under (theta', tau . iota), if its own.
    """

    def __init__(self, X, up_to):
        _refuse_oversized_work(X, range(up_to + 1))
        self.complex = X
        self.levels = {n: enumerate_morphisms(n, X)
                       for n in range(up_to + 1)}
        self._by_pair = {n: {ms.pair: ms for ms in level}
                         for n, level in self.levels.items()}

    def simplices_of_dim(self, n):
        return self.levels[n]

    def _precompose(self, ms, values, dim):
        """The stored dim-simplex equal to ms precomposed with the chain map
        of the monotone map `values`, or None if the composite is not it.
        N(theta) is applied by induced_image to the components of the
        cached N(values), and no other map is built."""
        theta, tau = ms.pair
        composite = {face: image for face, d in
                     _operator(len(theta) - 1, values).comps.items()
                     if (image := _apply(lambda t: induced_image(theta, t),
                                         d.items()))}
        theta2, iota = epi_mono_factor([theta[v] for v in values])
        if composite != induced_components(
                tuple([iota[t] for t in theta2]),
                standard_simplex(dim).all_simplices()):
            return None
        pair = (theta2, tuple([tau[t] for t in iota]))
        stored = self._by_pair[dim].get(pair)
        if stored is None or stored.pair != pair:  # filed under another pair
            return None
        return stored

    def face(self, ms, i):
        n = len(ms.surjection) - 1
        return self._precompose(ms, coface(i, n), n - 1)

    def degeneracy(self, ms, i):
        n = len(ms.surjection) - 1
        return self._precompose(ms, codegeneracy(i, n), n + 1)


class ReconstructionReport(namedtuple("ReconstructionReport",
                                      "ok detail counts", defaults=("", ()))):
    __slots__ = ()

    def as_json(self):
        return {"status": "pass" if self.ok else "fail",
                "detail": self.detail,
                "counts": [list(c) for c in self.counts]}


def verify_reconstruction(X, up_to):
    """Check that the morphism simplicial set equals the one obtained by
    freely adding degeneracies to X, through dimension up_to.

    Both sides are enumerated independently (morphism search vs surjection
    combinatorics) as (surjection, simplex) pairs, and must agree; the
    bijection must commute with every face and degeneracy operator, and the
    canonical inclusion of X must land exactly on the nondegenerate
    simplices.  On a record (theta, tau), ShomSimplicialSet answers an
    operator delta by (theta', tau . iota), from its square on
    (theta, delta), and adjoin by (theta'', tau) or (theta'', X.face(tau, v)),
    tau without position v: one answer on (theta, the top k-simplex)
    relabeled by the injective tau.  So they agree on every tau when they
    agree on one, and only the first record of each theta is compared; per
    record, what is left is that its lookup finds it under its own pair.
    """
    shom = ShomSimplicialSet(X, up_to)
    levels = shom.levels
    df = adjoin(X)
    counts = []
    for n in range(up_to + 1):
        ms_pairs = sorted(m.pair for m in levels[n])
        df_pairs = sorted(df.simplices_of_dim(n))
        counts.append((n, len(ms_pairs), len(df_pairs)))
        if ms_pairs != df_pairs:
            return ReconstructionReport(False, f"dimension {n}: pair sets differ",
                                        tuple(counts))
    # operators commute with the classification bijection
    firsts = {n: {} for n in levels}  # theta -> its first record
    for n, level in levels.items():
        for ms in level:
            firsts[n].setdefault(ms.surjection, ms)
    for n in range(1, up_to + 1):
        for ms in firsts[n].values():
            for i in range(n + 1):
                got = shom.face(ms, i)
                if got is None or got.pair != df.face(ms.pair, i):
                    return ReconstructionReport(
                        False, f"face d_{i} disagrees at {ms.pair} in dim {n}",
                        tuple(counts))
    for n in range(up_to):
        for ms in firsts[n].values():
            for i in range(n + 1):
                got = shom.degeneracy(ms, i)
                if got is None or got.pair != df.degeneracy(ms.pair, i):
                    return ReconstructionReport(
                        False, f"degeneracy s_{i} disagrees at {ms.pair}",
                        tuple(counts))
    # every record is the one filed under its own pair
    for n, level in levels.items():
        for ms in level:
            if shom._by_pair[n].get(ms.pair) is not ms:
                return ReconstructionReport(
                    False, f"record {ms.pair} is filed under another pair "
                    f"in dim {n}", tuple(counts))
    # the canonical inclusion lands exactly on the nondegenerate part
    for n in range(min(X.dim, up_to) + 1):
        incl = {(identity_map(n), tau) for tau in X.simplices_of_dim(n)}
        nondeg = {m.pair for m in levels[n] if m.is_nondegenerate()}
        if incl != nondeg:
            return ReconstructionReport(False, f"inclusion image wrong in dim {n}",
                                        tuple(counts))
    return ReconstructionReport(True, "isomorphism verified", tuple(counts))


# ---------------------------------------------------------------------------
# lifting morphisms to simplicial maps
# ---------------------------------------------------------------------------

class LiftedMap(namedtuple("LiftedMap", "vertex_map")):
    """The simplicial map between freely degenerate complexes induced by a
    verified morphism, in (surjection, simplex) coordinates: its vertex
    map is the verdict's certificate, simplicial by the scan that gave it."""

    __slots__ = ()

    def recovered_bijection(self):
        """When the underlying morphism is an isomorphism, the vertex map is
        a bijection exhibiting source = target as ordered complexes.  An
        injective simplicial map sends the k-simplices of the source
        injectively to k-simplices of the target, so with equal f-vectors
        every target simplex is an image and the inverse is simplicial."""
        phi = self.vertex_map
        image = {w for _, w in phi.mapping}
        if (len(image) != len(phi.mapping)
                or image != set(phi.target.vertices)
                or phi.source.f_vector() != phi.target.f_vector()):
            return None
        return phi


def lift_morphism(g, verdict, X, Y):
    """Lift a verified morphism N(X) -> N(Y) to the induced simplicial map.

    Refuses unverified input.  The lift acts on morphism-simplices by
    postcomposition; on (surjection, simplex) pairs this is
    image_pair(vertex_map.as_dict(), pair).
    """
    if verdict is None or not verdict.ok:
        raise ValueError("refusing to lift an unverified morphism")
    phi = verdict.certificate
    if phi is None:
        # every morphism is N(phi) for an order-preserving simplicial phi,
        # so a verified one without phi is a fault here, not in the input
        raise RuntimeError(
            "internal: verified morphism lacks a vertex-map certificate")
    if (phi.source, phi.target) != (X, Y):
        raise ValueError("refusing to lift a verdict on other complexes")
    return LiftedMap(phi)


# ---------------------------------------------------------------------------
# the homology square
# ---------------------------------------------------------------------------

def nondegenerate_inclusion(X, up_to):
    """j_X: N(X) -> C(adjoin X) truncated, sending a simplex to its
    identity-surjection pair."""
    NX = structure_for(X).chains
    CX = unnormalized_chains(adjoin(X), up_to)
    comps = {}
    for s in X.all_simplices():
        k = simplex_degree(s)
        if k <= up_to:
            comps[s] = {(identity_map(k), s): 1}
    return GradedMap(NX, CX, 0, comps), CX


def unnormalized_map_of_lift(lift, CX, CY):
    """C(g-hat): basis pairs go to their image pairs, coefficient 1."""
    m = lift.vertex_map.as_dict()
    return GradedMap(CX, CY, 0, {pair: {image_pair(m, pair): 1}
                                 for pair in CX.degree_of})


class HomologySquareReport(namedtuple("HomologySquareReport", "ok detail",
                                      defaults=("",))):
    __slots__ = ()

    def as_json(self):
        return {"status": "pass" if self.ok else "fail", "detail": self.detail}


def homology_square(g, verdict, X, Y, i_max):
    """Check commutativity of the square relating g and its lift on homology:
    H_i(j_Y) . H_i(g) = H_i(C(g-hat)) . H_i(j_X) for i <= i_max, and that the
    inclusions induce isomorphisms.  Every group above both dimensions is
    zero and passes, so no degree above them is read."""
    lift = lift_morphism(g, verdict, X, Y)
    top = min(i_max, max(X.dim, Y.dim))
    jX, CX = nondegenerate_inclusion(X, top + 1)
    jY, CY = nondegenerate_inclusion(Y, top + 1)
    chat = unnormalized_map_of_lift(lift, CX, CY)
    NX, NY = jX.source, jY.source
    for i in range(top + 1):
        HX = HomologyClasses(NX, i)
        HCY = HomologyClasses(CY, i)
        for z in HX.generators():
            route1 = jY.apply(g.apply(z))
            route2 = chat.apply(jX.apply(z))
            if HCY.class_coords(route1) != HCY.class_coords(route2):
                return HomologySquareReport(False, f"square fails in degree {i}")
        if not (_inclusion_is_iso(HX, HomologyClasses(CX, i), jX) and
                _inclusion_is_iso(HomologyClasses(NY, i), HCY, jY)):
            return HomologySquareReport(False,
                                        f"inclusion not iso in degree {i}")
    return HomologySquareReport(True, "square commutes")


def _inclusion_is_iso(HN, HC, j):
    """H_i(j) bijective: equal groups, and H_i(j) onto (f.g. abelian groups
    are Hopfian, so a surjection between isomorphic groups is iso).

    Onto is read off HC's class coordinates in C_i / B_i: the images of
    HN's generators, with the relation d e_r of each torsion coordinate r,
    generate the preimage of H_i exactly when their invariant factors are
    one 1 per torsion coordinate and per Betti number.  That preimage is
    saturated, because C_i / Z_i, a copy of B_(i-1), is free.
    """
    group = HC.group()
    if HN.group() != group:
        return False
    cols = [{r: v for r, v in enumerate(HC.class_coords(j.apply(z))) if v}
            for z in HN.generators()]
    cols += [{r: d} for r, d in enumerate(group.torsion)]
    pivots, _, _, factors = _present(cols)
    return len(pivots) + factors.count(1) == len(group.torsion) + group.betti

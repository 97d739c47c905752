"""Iterated diagonals, morphism decisions, enumeration, reconstruction,
lifting, and the homology square."""

import copy
import functools
import itertools
import random
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cupi.chains import (Chain, GradedMap, HomologyClasses, TensorChain,
                         _add_into, chain_map_from_vertex_map,
                         induced_components)
from cupi.simplicial import (VertexMap, adjoin, build_complex,
                             epi_mono_factor, identity_map, standard_simplex,
                             surjections)
from cupi import chains, reconstruct, steenrod
from cupi.steenrod import (BarElement, SteenrodStructure, aw_diagonal, eta,
                           higher_diagonal, structure_for)
from cupi.reconstruct import (LiftedMap, MorphismVerdict, ShomSimplicialSet,
                              _inclusion_is_iso, enumerate_morphisms,
                              homology_square,
                              image_pair, is_steenrod_morphism, lift_morphism,
                              nondegenerate_inclusion,
                              unnormalized_map_of_lift, verify_reconstruction,
                              xi_iterate)

import oracles
from conftest import (RP2_FACETS, barycentric, circle, named_corpus,
                      random_complexes, rp, rp2)
from test_chains import _count_eliminations, facet_lists
from test_steenrod import complexes


def _as_key(f):
    return tuple(sorted((lb, tuple(sorted(img.items())))
                        for lb, img in f.comps.items()))


def _assert_fold_matches_nested(S, chain, K=5):
    """Every component of xi_iterate against the nested evaluation of the
    oracle, scaled by the rho coefficient eta_m^(k-1) of arity k."""
    m = chain.degree
    comps = xi_iterate(S, chain, K=K)
    assert comps[0].as_dict() == {(s,): c for s, c in chain.coeffs}
    for k in range(2, K + 1):
        nested = oracles.nested_xi(S, chain, [BarElement.e(m)] * (k - 1))
        assert comps[k - 1] == nested.scale(eta(m) ** (k - 1))


class TestAdjointAlpha:
    # the adjoint structure map of a chain c evaluates b to xi(b (x) c)
    def test_at_e0_is_aw(self):
        X = standard_simplex(1)
        S = structure_for(X)
        got = S.xi(BarElement.e(0), S.chains.generator((0, 1)))
        assert got == aw_diagonal((0, 1))

    def test_at_e1_is_top_identity(self):
        X = standard_simplex(1)
        S = structure_for(X)
        got = S.xi(BarElement.e(1), S.chains.generator((0, 1))).as_dict()
        assert got == {((0, 1), (0, 1)): -1}

    def test_every_arity_matches_the_nested_route(self):
        # chain degrees 1-4 give eta_m = -1, -1, +1, +1, so the sign folded
        # into each step of xi_iterate shows at every even arity
        X = standard_simplex(5)
        S = structure_for(X)
        for m in range(1, 5):
            a, b, c = X.simplices_of_dim(m)[:3]
            _assert_fold_matches_nested(
                S, Chain.from_dict(m, {a: 1, b: -2, c: 3}))

    def test_alpha_routes_agree_on_chains(self, monkeypatch):
        S = structure_for(circle())
        c = S.chains.generator((0, 1)) + S.chains.generator((1, 2)).scale(-2)
        _assert_fold_matches_nested(S, c)
        # a scaled top table (m, m), read by both routes: it is the only
        # entry xi_iterate reads on an m-chain, so no entry puts a face of
        # s in the first factor, and the fold never expands one
        X = standard_simplex(4)
        steenrod.ensure_tables(X.dim)
        for m in range(1, 4):
            monkeypatch.setitem(steenrod._TABLES, (m, m),
                                steenrod._TABLES[(m, m)].scale(-3))
            a, b, c = X.simplices_of_dim(m)[:3]
            _assert_fold_matches_nested(
                SteenrodStructure(X), Chain.from_dict(m, {a: 1, b: -2, c: 3}))


class TestXiIterate:
    def test_simplex_generators_give_tensor_powers(self, corpus):
        for X in corpus.values():
            S = structure_for(X)
            for s in X.all_simplices():
                c1, c2, c3 = xi_iterate(S, S.chains.generator(s), K=3)
                assert c1.as_dict() == {(s,): 1}
                assert c2.as_dict() == {(s, s): 1}
                assert c3.as_dict() == {(s, s, s): 1}

    def test_zero_chain(self):
        X = circle()
        S = structure_for(X)
        im = xi_iterate(S, Chain.from_dict(1, {}), K=3)
        assert len(im) == 3 and all(c.is_zero() for c in im)

    def test_sum_of_two_simplices_separates(self):
        X = circle()
        S = structure_for(X)
        c = S.chains.generator((0, 1)) + S.chains.generator((1, 2))
        _, c2, c3 = xi_iterate(S, c, K=3)
        assert c2.as_dict() == {((0, 1), (0, 1)): 1, ((1, 2), (1, 2)): 1}
        singles = {xi_iterate(S, S.chains.generator(s), 3)[1:]
                   for s in X.simplices_of_dim(1)}
        assert (c2, c3) not in singles

    def test_scaled_single_simplex_separates(self):
        X = circle()
        S = structure_for(X)
        c = S.chains.generator((0, 1)).scale(2)
        _, c2, _ = xi_iterate(S, c, K=3)
        assert c2.as_dict() == {((0, 1), (0, 1)): 2}

    def test_requires_k_at_least_two(self):
        S = structure_for(circle())
        with pytest.raises(ValueError):
            xi_iterate(S, S.chains.generator((0, 1)), K=1)

    def test_higher_truncation(self):
        # the tensor-power pattern continues at every arity
        X = standard_simplex(2)
        S = structure_for(X)
        s = (0, 1, 2)
        im = xi_iterate(S, S.chains.generator(s), K=5)
        assert len(im) == 5
        for k, c in enumerate(im, 1):
            assert c.as_dict() == {(s,) * k: 1}


class TestIsSteenrodMorphism:
    def test_induced_maps_are_morphisms(self, corpus):
        X = corpus["delta2"]
        for Y in (corpus["circle"], corpus["delta3"]):
            for vm_target in Y.simplices_of_dim(1)[:2]:
                vm = VertexMap.from_dict(X, Y, {0: vm_target[0],
                                                1: vm_target[0],
                                                2: vm_target[1]})
                f = chain_map_from_vertex_map(vm, structure_for(X).chains,
                                              structure_for(Y).chains)
                verdict = is_steenrod_morphism(f, X, Y)
                assert verdict.ok
                assert verdict.certificate is not None

    def test_orientation_reversal_rejected_with_witness(self):
        # swap two vertices of the triangle, negating the edge between them:
        # a chain isomorphism, but the e_1 square fails on that edge
        X = standard_simplex(2)
        N = structure_for(X).chains
        comps = {(0,): {(1,): 1}, (1,): {(0,): 1}, (2,): {(2,): 1},
                 (0, 1): {(0, 1): -1}, (0, 2): {(1, 2): 1}, (1, 2): {(0, 2): 1},
                 (0, 1, 2): {(0, 1, 2): -1}}
        f = GradedMap(N, N, 0, comps)
        assert f.is_chain_map()
        verdict = is_steenrod_morphism(f, X, X)
        assert verdict.status == "not_morphism"
        j, s = verdict.witness
        # the witness re-checks by direct evaluation; the reversal already
        # breaks the base square (front/back diagonals are order-sensitive)
        S = structure_for(X)
        left = higher_diagonal(j, s).map_factors(f.apply_label)
        right = S.xi(BarElement.e(j), f.apply(N.generator(s)))
        assert left != right
        assert len(s) == 2

    def test_doubling_on_point_rejected(self):
        X = standard_simplex(0)
        N = structure_for(X).chains
        f = GradedMap(N, N, 0, {(0,): {(0,): 2}})
        verdict = is_steenrod_morphism(f, X, X)
        assert verdict.status == "not_morphism"
        # doubling scales the left square leg by 2 and the right by 4
        assert verdict.witness == ("augmentation", (0,))

    def test_zero_map_rejected(self):
        X = standard_simplex(0)
        N = structure_for(X).chains
        f = GradedMap(N, N, 0, {})
        assert is_steenrod_morphism(f, X, X).status == "not_morphism"

    def test_non_chain_map_rejected_early(self):
        X = standard_simplex(1)
        N = structure_for(X).chains
        f = GradedMap(N, N, 0, {(0,): {(0,): 1}, (1,): {(1,): 1},
                                (0, 1): {(0, 1): -1}})
        verdict = is_steenrod_morphism(f, X, X)
        assert verdict.status == "not_chain_map"
        assert verdict.witness == 1  # lowest failing degree

    def test_cycle_adding_iso_rejected(self):
        # unipotent chain iso on N(circle): adds the fundamental cycle to an
        # edge image; chain map, bijective, fails the e_1 square
        X = circle()
        N = structure_for(X).chains
        z = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
        comps = {lb: {lb: 1} for lb in N.degree_of}
        img = dict(z)
        img[(0, 1)] = img.get((0, 1), 0) + 1
        comps[(0, 1)] = img
        f = GradedMap(N, N, 0, comps)
        assert f.is_chain_map()
        verdict = is_steenrod_morphism(f, X, X)
        assert verdict.status == "not_morphism"


def _shifted(X):
    """X with every vertex v renamed 2v + 1, an order-preserving relabeling,
    and the vertex map that does it."""
    Y = build_complex([tuple(2 * v + 1 for v in s) for s in X.all_simplices()])
    return Y, VertexMap.from_dict(X, Y, {v: 2 * v + 1 for v in X.vertices})


def _components(X):
    """The vertex tuples of the connected components of X."""
    parts = {v: {v} for v in X.vertices}
    for a, b in X.simplices_of_dim(1):
        merged = parts[a] | parts[b]
        for v in merged:
            parts[v] = merged
    return sorted({tuple(sorted(p)) for p in parts.values()})


def _add_homotopy(comps, NA, NB, t, u):
    """Add dh + hd, in place, to the components of a map NA -> NB, for the
    homotopy h sending the simplex t to the simplex u one dimension up and
    every other simplex to zero: a chain map stays one, with the same
    augmentation."""
    img = comps.setdefault(t, {})
    for face, c in NB.boundary_of(u).items():  # d h on t
        _add_into(img, face, c)
    for s in NA.basis.get(len(t), ()):  # h d on the cofaces of t
        _add_into(comps.setdefault(s, {}), u, NA.boundary_of(s).get(t, 0))


def _fill_in_the_cone(comps, NA, NB, apex):
    """Complete the components of a map NA -> NB, in place and degree by
    degree, to a chain map into a cone NB whose apex is its last vertex:
    where f(ds) - d f(s) = r is not zero, add h(r), for the cone
    contraction h(t) = (-1)^(dim t + 1) (t, apex) on the simplices t
    without the apex and zero on the others.  dh + hd is the identity in
    positive degrees and on the 0-chains of augmentation 0, so r = dh(r)."""
    for n in sorted(NA.basis):
        for s in NA.basis[n]:
            img = comps.setdefault(s, {})
            r = {}
            for face, c in NA.boundary_of(s).items():
                for t, v in comps.get(face, {}).items():
                    _add_into(r, t, c * v)
            for t, v in img.items():
                for face, c in NB.boundary_of(t).items():
                    _add_into(r, face, -c * v)
            for t, v in r.items():
                if t[-1] != apex:
                    _add_into(img, t + (apex,), (-1) ** len(t) * v)


@st.composite
def maps(draw, complexes,
         changes=("none", "negate", "perturb", "cycle", "homotopy")):
    """(f, X, Y, phi): N(phi) for an order-preserving vertex map phi (a
    relabeling, a relabeling that permutes the components, a collapse onto
    a simplex of X, a weakly monotone map into a standard simplex, or one
    spread over the vertices of a cone, on X's codimension-1 skeleton or
    on another complex, which need not be simplicial),
    taken as is, negated, with one coefficient perturbed, with a cycle added
    to the image of a maximal simplex, or plus dh + hd for h sending a
    simplex t to a coface of its image.  A spread phi keeps only the
    components whose image is a simplex of Y, and may have the others
    filled in by the cone contraction, so f can be a chain map and meet
    the augmentation although phi is not simplicial."""
    X = draw(complexes)
    kind = draw(st.sampled_from(["relabel", "permute", "collapse", "simplex",
                                 "spread"]))
    if kind == "relabel":
        Y, vm = _shifted(X)
    elif kind == "permute":
        # numbered block by block in a drawn order of the components: the
        # order is kept within every simplex, not on all vertices
        blocks = draw(st.permutations(_components(X)))
        new = {v: n for n, v in enumerate(v for b in blocks for v in b)}
        Y = build_complex([tuple(new[v] for v in s)
                           for s in X.all_simplices()])
        vm = VertexMap.from_dict(X, Y, new)
    elif kind == "spread":
        # the cone on X's codimension-1 skeleton holds no top simplex of X
        skeleton = build_complex(X.simplices[max(X.dim - 1, 0)])
        Z = draw(st.one_of(st.just(skeleton), complexes))
        apex = Z.vertices[-1] + 1
        Y = build_complex([s + (apex,) for s in Z.all_simplices()])
        # distinct images where Y has enough vertices: phi is then
        # injective, so it sends each simplex of X to a simplex of Y or
        # to a vertex set that Y lacks
        images = sorted(draw(st.lists(
            st.sampled_from(Y.vertices), min_size=len(X.vertices),
            max_size=len(X.vertices),
            unique=len(X.vertices) <= len(Y.vertices))))
        vm = VertexMap.from_dict(X, Y, dict(zip(X.vertices, images)))
    else:
        if kind == "collapse":
            Y = X
            onto = draw(st.sampled_from(list(X.all_simplices())))
        else:
            Y = standard_simplex(draw(st.integers(min_value=0, max_value=4)))
            onto = Y.vertices
        images = sorted(draw(st.lists(st.sampled_from(onto),
                                      min_size=len(X.vertices),
                                      max_size=len(X.vertices))))
        vm = VertexMap.from_dict(X, Y, dict(zip(X.vertices, images)))
    NA, NB = structure_for(X).chains, structure_for(Y).chains
    comps = induced_components(vm.as_dict(), X.all_simplices())
    if kind == "spread":
        comps = {s: img for s, img in comps.items() if Y.has_simplex(*img)}
        if draw(st.booleans()):
            _fill_in_the_cone(comps, NA, NB, apex)
    change = draw(st.sampled_from(changes))
    if change == "negate":
        comps = {s: {t: -c for t, c in img.items()} for s, img in comps.items()}
    elif change == "perturb":
        s = draw(st.sampled_from(list(X.all_simplices())))
        t = draw(st.sampled_from(Y.simplices_of_dim(len(s) - 1) or [None]))
        if t is not None:
            img = comps.setdefault(s, {})
            img[t] = img.get(t, 0) + draw(st.sampled_from([-1, 1, 2]))
    elif change == "cycle":
        # d of a (d+1)-simplex added to the image of a d-simplex with no
        # coface keeps the chain-map law and the augmentation
        pairs = [(s, u) for s in X.all_simplices() if len(s) > 1
                 and not any(set(s) < set(c)
                             for c in X.simplices_of_dim(len(s)))
                 for u in Y.simplices_of_dim(len(s))]
        if pairs:
            s, u = draw(st.sampled_from(pairs))
            img = comps.setdefault(s, {})
            for t, c in NB.boundary_of(u).items():
                img[t] = img.get(t, 0) + c
    elif change == "homotopy":
        m = vm.as_dict()
        pairs = [(t, u) for t in X.all_simplices()
                 for u in Y.simplices_of_dim(len(t))
                 if {m[v] for v in t} <= set(u)]
        if pairs:
            _add_homotopy(comps, NA, NB, *draw(st.sampled_from(pairs)))
    return GradedMap(NA, NB, 0, comps), X, Y, vm


@st.composite
def codegeneracies(draw):
    """(f, X, Y, phi): phi a codegeneracy of the n-simplex onto [k] with
    2k - n >= 1, n <= 5, followed by an injection of [k] into [m], m <= 5."""
    n = draw(st.integers(min_value=3, max_value=5))
    k = draw(st.integers(min_value=n // 2 + 1, max_value=n - 1))
    theta = draw(st.sampled_from(surjections(n, k)))
    m = draw(st.integers(min_value=k, max_value=5))
    tau = sorted(draw(st.sets(st.integers(min_value=0, max_value=m),
                              min_size=k + 1, max_size=k + 1)))
    X, Y = standard_simplex(n), standard_simplex(m)
    vm = VertexMap.from_dict(X, Y, {v: tau[t] for v, t in enumerate(theta)})
    f = GradedMap(structure_for(X).chains, structure_for(Y).chains, 0,
                  induced_components(vm.as_dict(), X.all_simplices()))
    return f, X, Y, vm


corpus_complexes = st.one_of(
    st.sampled_from(list(named_corpus().values()) + random_complexes()),
    facet_lists.map(build_complex))


@given(maps(corpus_complexes))
@settings(max_examples=150, deadline=None)
def test_per_type_decision_agrees_with_the_scan(case):
    f, X, Y, vm = case
    verdict = is_steenrod_morphism(f, X, Y)
    assert verdict == oracles.scan_morphism(f, X, Y)
    if f.comps == oracles.vertex_map_components(vm):  # certified by phi
        assert verdict == MorphismVerdict("morphism", certificate=vm)


@given(maps(corpus_complexes))
@settings(max_examples=150, deadline=None)
def test_first_commutator_witness_is_the_lowest_residual_degree(case):
    # oracle for the early exit: the lowest source degree of the full
    # residual, which is f.d - d.f formed by composition
    f = case[0]
    resid = oracles.commutator_with_boundary(f)
    assert f.first_commutator_witness() == min(
        (f.source.degree_of[lb] for lb in resid.comps), default=None)
    assert f.is_chain_map() == (not resid.comps)


@pytest.mark.parametrize("kind", ["flip", "drop", "double", "add"])
@given(case=st.one_of(codegeneracies(),
                      maps(corpus_complexes,
                           ("none", "perturb", "cycle", "homotopy"))),
       data=st.data())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_per_type_decision_agrees_with_the_scan_on_tampered_tables(
        fresh_structures, kind, case, data):
    """One universal table (i, k), 1 <= i <= k <= dim X, changed: its sign
    flipped, its first term dropped, doubled, or one term of its degree
    added; both decisions read fresh structures.  Only a local type theta:
    [n] ->> [k] with k < n and 2k - n >= 1 can fail, by a term whose
    factors theta keeps: the codegeneracies have such types."""
    f, X, Y, vm = case
    # the levels (i, n) that a local type theta: [n] ->> [k], k < n, of phi
    # reads; a term whose factors theta keeps, added there, makes it fail.
    # phi is the map the decision reads, f's unit vertex images, which a
    # "homotopy" change can move off the drawn vm
    m = vm.as_dict()
    units = {v: f.apply_label((v,)) for v in X.vertices}
    if all(list(image.values()) == [1] for image in units.values()):
        m = {v: next(iter(image))[0] for v, image in units.items()}
    read = [(i, len(s) - 1, theta) for s in X.all_simplices()
            for theta in [epi_mono_factor([m[v] for v in s])[0]]
            if theta[-1] < len(s) - 1
            for i in range(1, 2 * theta[-1] - len(s) + 2)]
    if kind == "add" and read:
        i, k, theta = data.draw(st.sampled_from(read))
    else:
        levels = [(i, k) for k in range(1, X.dim + 1) for i in range(1, k + 1)]
        i, k = data.draw(st.sampled_from(levels) if levels else st.nothing())
        theta = identity_map(k)
    key = (i, k)
    # every level either side reads is built before the tampering, so no
    # level is built from the tampered one
    steenrod.ensure_tables(max(X.dim, Y.dim))
    built = steenrod._LEVEL_BUILT
    table = steenrod._TABLES[key]
    if kind == "flip":
        table = table.scale(-1)
    elif kind == "drop":
        table = TensorChain(table.degree, table.coeffs[1:])
    elif kind == "double":
        table = table.scale(2)
    else:
        faces = [c for r in range(1, k + 2)
                 for c in itertools.combinations(range(k + 1), r)
                 if len({theta[p] for p in c}) == r]
        term = data.draw(st.sampled_from(
            [(a, b) for a in faces for b in faces
             if len(a) + len(b) - 2 == i + k]))
        table = table + TensorChain.from_dict(i + k, {term: 1})
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(steenrod._TABLES, key, table)
        try:
            fresh_structures()
            got = is_steenrod_morphism(f, X, Y)
            fresh_structures()
            want = oracles.scan_morphism(f, X, Y)
        finally:
            fresh_structures()
    assert steenrod._LEVEL_BUILT == built
    assert got == want


def spy_on_type_decisions(monkeypatch):
    """The list of local types is_steenrod_morphism decides, in order."""
    decided = []
    decide = reconstruct._type_failure

    def spy(theta):
        decided.append(theta)
        return decide(theta)

    monkeypatch.setattr(reconstruct, "_type_failure", spy)
    return decided


def test_relabeled_rp3_decides_one_type_per_dimension(monkeypatch):
    # an order-preserving relabeling is injective on every simplex, so its
    # local types are the identities of [0] ... [3]
    X = rp(3)
    Y, vm = _shifted(X)
    decided = spy_on_type_decisions(monkeypatch)
    f = chain_map_from_vertex_map(vm, structure_for(X).chains,
                                  structure_for(Y).chains)
    verdict = is_steenrod_morphism(f, X, Y)
    assert verdict.ok and verdict.certificate == vm
    assert len(decided) <= X.dim + 1


def _identity_plus_homotopy(X, where):
    """(id + dh + hd on N(X), t) for h sending the (n-1)-simplex t, the
    first, middle or last in scan order, to its first coface: its vertex
    map is the identity, and it leaves N(id) first at t."""
    N = structure_for(X).chains
    faces = X.simplices_of_dim(X.dim - 1)
    t = faces[{"first": 0, "middle": len(faces) // 2, "last": -1}[where]]
    u = next(s for s in X.simplices_of_dim(X.dim) if set(t) < set(s))
    comps = {s: {s: 1} for s in X.all_simplices()}
    _add_homotopy(comps, N, N, t, u)
    return GradedMap(N, N, 0, comps), t


@pytest.mark.parametrize("n, where", [(3, "first"), (3, "middle"),
                                      (3, "last"), (4, "last")])
def test_a_map_off_n_phi_agrees_with_the_scan(projective_spaces, n, where):
    # a vertex map phi exists, but f != N(phi): types decide up to t, the
    # scan from t on; by rigidity f is no morphism
    X = projective_spaces[n]
    f, _ = _identity_plus_homotopy(X, where)
    verdict = is_steenrod_morphism(f, X, X)
    assert verdict.status == "not_morphism"
    assert verdict == oracles.scan_morphism(f, X, X)


def test_squares_are_formed_only_from_where_f_leaves_n_phi(
        monkeypatch, projective_spaces):
    # the scan's squares read the structures' entries; the local types
    # read higher_diagonal
    X = projective_spaces[4]
    f, t = _identity_plus_homotopy(X, "last")
    decided = spy_on_type_decisions(monkeypatch)
    formed = []
    square = reconstruct.square_failure

    def spy(delta_src, delta_tgt, image, s, bound):
        if delta_src is not higher_diagonal:
            formed.append(s)
        return square(delta_src, delta_tgt, image, s, bound)

    monkeypatch.setattr(reconstruct, "square_failure", spy)
    assert not is_steenrod_morphism(f, X, X).ok
    position = {s: p for p, s in enumerate(X.all_simplices())}
    assert min(map(position.get, formed)) == position[t]
    # every simplex before t is injective under the identity
    assert decided == [identity_map(k) for k in range(X.dim)]
    del formed[:], decided[:]
    assert is_steenrod_morphism(GradedMap.identity(f.source), X, X).ok
    assert formed == []
    assert decided == [identity_map(k) for k in range(X.dim + 1)]


def test_a_phi_off_the_target_is_decided_by_its_types_up_to_s0(monkeypatch):
    # phi = id from the triangle into the cone on its boundary is
    # order-preserving, not simplicial: the triangle's image is no simplex.
    # Filled in by the cone contraction, f is a chain map that leaves N(phi)
    # first at the triangle, so the vertices and edges are decided by their
    # local types, the triangle by the scan, and no certificate is given
    X = standard_simplex(2)
    Y = build_complex([(0, 1, 3), (0, 2, 3), (1, 2, 3)])
    vm = VertexMap.from_dict(X, Y, {0: 0, 1: 1, 2: 2})
    NA, NB = structure_for(X).chains, structure_for(Y).chains
    comps = induced_components(vm.as_dict(), X.all_simplices())
    del comps[0, 1, 2]
    _fill_in_the_cone(comps, NA, NB, 3)
    f = GradedMap(NA, NB, 0, comps)
    assert f.is_chain_map() and not vm.is_simplicial()
    decided = spy_on_type_decisions(monkeypatch)
    formed = []
    square = reconstruct.square_failure

    def spy(delta_src, delta_tgt, image, s, bound):
        formed.append(s)
        return square(delta_src, delta_tgt, image, s, bound)

    monkeypatch.setattr(reconstruct, "square_failure", spy)
    verdict = is_steenrod_morphism(f, X, Y)
    assert verdict == MorphismVerdict("not_morphism", witness=(0, (0, 1, 2)))
    assert decided == [(0,), (0, 1)]
    assert formed == [(0,), (0, 1), (0, 1, 2)]  # the two types, then s0
    assert verdict == oracles.scan_morphism(f, X, Y)


class TestEnumerate:
    def test_point_to_point(self):
        X = standard_simplex(0)
        assert len(enumerate_morphisms(0, X)) == 1
        assert len(oracles.brute_morphisms(0, X)) == 1

    def test_counts_match_binomial_formula(self, corpus):
        for name in ("delta1", "delta2", "circle", "rp2"):
            X = corpus[name]
            for n in range(3):
                got = len(enumerate_morphisms(n, X))
                want = sum(comb(n, k) * len(X.simplices_of_dim(k))
                           for k in range(X.dim + 1))
                assert got == want

    def test_one_vertex_map_per_codegeneracy_and_none_per_simplex(
            self, monkeypatch, corpus):
        # a morphism simplex is its pair (theta, tau): the decision of each
        # theta builds theta's vertex map into the standard k-simplex as its
        # certificate (N(theta) is formed from theta's values), and no tau
        # builds one into X
        built = []
        from_dict = VertexMap.from_dict.__func__

        def spy(cls, source, target, mapping):
            built.append((target.dim, tuple(sorted(mapping.items()))))
            assert target is not X
            return from_dict(cls, source, target, mapping)

        monkeypatch.setattr(VertexMap, "from_dict", classmethod(spy))
        X = corpus["rp2"]
        for n in range(4):
            del built[:]
            found = enumerate_morphisms(n, X)
            thetas = [(k, tuple(enumerate(theta)))
                      for k in range(min(n, X.dim) + 1)
                      for theta in surjections(n, k)]
            assert set(built) == set(thetas)
            assert len(built) == len(thetas) < len(found)

    def test_each_codegeneracy_is_decided_once(self, monkeypatch, corpus):
        # one decision per theta: [n] ->> [k], k <= min(n, dim X), in
        # order of k, however many k-simplices X has
        decided = []
        decide = reconstruct.is_steenrod_morphism

        def spy(f, source, target, types=None):
            decided.append(target.dim)
            return decide(f, source, target, types)

        monkeypatch.setattr(reconstruct, "is_steenrod_morphism", spy)
        for X in (corpus["rp2"], corpus["annulus"], standard_simplex(0)):
            for n in range(5):
                del decided[:]
                enumerate_morphisms(n, X)
                assert decided == [k for k in range(min(n, X.dim) + 1)
                                   for _ in range(comb(n, k))]

    def test_interval_into_circle_guided_equals_brute(self):
        X = circle()
        guided = enumerate_morphisms(1, X)
        brute = oracles.brute_morphisms(1, X)
        assert len(guided) == 6
        assert {_as_key(m.chain_map) for m in guided} == \
               {_as_key(m.chain_map) for m in brute}

    def test_automorphism_rigidity_brute(self):
        # the only self-morphism of simplex chains that is a top-degree
        # isomorphism is the identity (checked without assuming it)
        for n in (1, 2):
            X = standard_simplex(n)
            top = tuple(range(n + 1))
            isos = [m for m in oracles.brute_morphisms(n, X)
                    if m.chain_map.apply_label(top).get(top, 0) in (1, -1)]
            assert len(isos) == 1
            ident = GradedMap.identity(structure_for(X).chains)
            assert isos[0].chain_map.equals(ident)

    def test_automorphism_rigidity_guided_n3(self):
        X = standard_simplex(3)
        top = (0, 1, 2, 3)
        isos = [m for m in enumerate_morphisms(3, X)
                if m.chain_map.apply_label(top).get(top, 0) in (1, -1)]
        assert len(isos) == 1
        assert oracles.morphism_vertex_map(isos[0]).as_dict() == \
            {i: i for i in range(4)}

    def test_degeneracy_classification_brute(self):
        # surjective morphisms of simplex chains correspond exactly to
        # order-preserving surjections of vertex sets
        for n in (1, 2):
            for m in range(n):
                X = standard_simplex(m)
                found = oracles.brute_morphisms(n, X)
                surjective = []
                for ms in found:
                    covered = {t for img in ms.chain_map.comps.values()
                               for t in img}
                    if covered == set(X.all_simplices()):
                        surjective.append(ms)
                assert len(surjective) == oracles.count_surjections(n, m)

    def test_brute_refuses_oversized(self):
        with pytest.raises(ValueError, match="source has 5 vertices"):
            oracles.brute_morphisms(4, standard_simplex(4))

    def test_into_a_point_builds_no_table_level(self, monkeypatch):
        # into a point only Delta_0, Alexander-Whitney, is ever read
        from cupi import steenrod

        def built(k):
            raise AssertionError(f"table level {k} built")

        monkeypatch.setattr(steenrod, "ensure_tables", built)
        found = enumerate_morphisms(12, standard_simplex(0))
        assert [oracles.morphism_vertex_map(ms).as_dict()
                for ms in found] == [{v: 0 for v in range(13)}]

    def test_empty_complex_builds_no_standard_simplex(self, monkeypatch):
        from cupi import reconstruct, simplicial

        def built(n):
            raise AssertionError(f"standard {n}-simplex built")

        monkeypatch.setattr(reconstruct, "standard_simplex", built)
        monkeypatch.setattr(simplicial, "standard_simplex", built)
        assert enumerate_morphisms(13, build_complex([])) == []

    def test_each_local_type_is_decided_once_per_call(self, monkeypatch):
        # the codegeneracies of the 3-simplex onto [0], [1] and [2] share
        # the local types of their faces
        decided = spy_on_type_decisions(monkeypatch)
        # C(3, 0) 3 + C(3, 1) 3 + C(3, 2) 1 vertex maps
        assert len(enumerate_morphisms(3, standard_simplex(2))) == 15
        assert len(decided) == len(set(decided))

    def test_tampered_table_fails_the_codegeneracy_check(self, monkeypatch,
                                                         fresh_structures):
        # the extra term of Delta_1 on the 3-simplex survives the
        # codegeneracy (0, 1, 2, 2) onto the 2-simplex, which kills the
        # 3-simplex itself: the first failing vertex map's verdict
        from cupi import steenrod
        steenrod.ensure_tables(3)
        extra = TensorChain.from_dict(4, {((0, 1, 2), (0, 1, 3)): 1})
        monkeypatch.setitem(steenrod._TABLES, (1, 3),
                            steenrod._TABLES[(1, 3)] + extra)
        # structures made before the tampering hold the true entries
        fresh_structures()
        with pytest.raises(RuntimeError) as err:
            enumerate_morphisms(3, standard_simplex(2))
        assert str(err.value) == (
            "internal: induced map failed verification: MorphismVerdict("
            "status='not_morphism', witness=(1, (0, 1, 2, 3)), "
            "certificate=None)")


@given(complexes, st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_guided_morphisms_pass_the_per_map_check(X, n):
    # oracle for the one check per codegeneracy: every guided morphism
    # passes the full decision procedure on its own, certified by its
    # vertex map, and there is one per n-simplex of adjoin(X)
    source = standard_simplex(n)
    found = enumerate_morphisms(n, X)
    for ms in found:
        verdict = is_steenrod_morphism(ms.chain_map, source, X)
        assert verdict.ok
        assert verdict.certificate == oracles.morphism_vertex_map(ms)
    assert len(found) == sum(comb(n, k) * len(X.simplices_of_dim(k))
                             for k in range(X.dim + 1))


def _admitted_by_the_earlier_caps(X, dims):
    """The caps the work cap replaced: at most 20000 morphisms, one charged
    per n at least, and 50000 (morphism, face of the n-simplex) pairs."""
    morphisms = pairs = 0
    for n in dims:
        count = max(1, sum(comb(n, k) * len(X.simplices_of_dim(k))
                           for k in range(X.dim + 1)))
        morphisms += count
        pairs += count * (2 ** (n + 1) - 1)
        if morphisms > 20000 or pairs > 50000:
            return False
    return True


@pytest.mark.parametrize("X", [
    build_complex([]), standard_simplex(0), build_complex([(0,), (1,)]),
    standard_simplex(1), standard_simplex(2), standard_simplex(4), circle(),
    rp2(), build_complex(barycentric(RP2_FACETS)),
], ids=["empty", "point", "two-points", "delta1", "delta2", "delta4",
        "circle", "rp2", "sd1rp2"])
def test_the_work_cap_admits_what_the_earlier_caps_admitted(X):
    # so every enumerate and reconstruct run the earlier caps let through
    # still runs, with the same output
    for n in range(40):
        for dims in ((n,), range(n + 1)):
            if _admitted_by_the_earlier_caps(X, dims):
                reconstruct._refuse_oversized_work(X, dims)


def test_the_empty_complex_is_charged_n_plus_1_per_dimension():
    # no morphism simplices at all, so only the floor of n + 1 per level
    # refuses a huge --up-to within a few thousand values of n: at n = 2048
    with pytest.raises(ValueError):
        reconstruct._refuse_oversized_work(build_complex([]), range(2100))


def test_rp4_at_its_default_depth_is_admitted():
    # one lookup per morphism simplex, not one per (simplex, operator):
    # 523693 units through dim + 2 = 6
    reconstruct._refuse_oversized_work(rp(4), range(7))


class TestSFunctor:
    def test_point_tower(self):
        shom = ShomSimplicialSet(standard_simplex(0), 4)
        assert [len(shom.simplices_of_dim(n)) for n in range(5)] == [1] * 5

    def test_interval_counts(self):
        shom = ShomSimplicialSet(standard_simplex(1), 2)
        assert [len(shom.simplices_of_dim(n)) for n in range(3)] == [2, 3, 4]

    def test_rp2_dimension_two_count(self):
        shom = ShomSimplicialSet(rp2(), 2)
        assert len(shom.simplices_of_dim(2)) == 6 + 2 * 15 + 10  # 46

    def test_canonical_ordering(self):
        shom = ShomSimplicialSet(circle(), 2)
        for n in range(3):
            keys = [(m.simplex, m.surjection) for m in shom.simplices_of_dim(n)]
            assert keys == sorted(keys)

    def test_simplicial_identities_by_precomposition(self):
        shom = ShomSimplicialSet(circle(), 3)
        for n in (2, 3):
            for ms in shom.simplices_of_dim(n):
                for j in range(n + 1):
                    for i in range(j):
                        assert shom.face(shom.face(ms, j), i) is \
                            shom.face(shom.face(ms, i), j - 1)
        for n in (0, 1):
            for ms in shom.simplices_of_dim(n):
                for j in range(n + 1):
                    for i in range(j + 1):
                        if n + 2 <= 3:
                            assert shom.degeneracy(shom.degeneracy(ms, j), i) \
                                is shom.degeneracy(shom.degeneracy(ms, i), j + 1)
                for j in range(n + 1):
                    for i in range(n + 2):
                        left = shom.face(shom.degeneracy(ms, j), i)
                        if i < j:
                            assert left is shom.degeneracy(shom.face(ms, i), j - 1)
                        elif i in (j, j + 1):
                            assert left is ms
                        else:
                            assert left is shom.degeneracy(shom.face(ms, i - 1), j)


class TestVerifyReconstruction:
    def test_delta2_through_dim4(self):
        report = verify_reconstruction(standard_simplex(2), 4)
        assert report.ok, report.detail

    def test_circle_through_dim3(self):
        report = verify_reconstruction(circle(), 3)
        assert report.ok, report.detail

    def test_wrong_stored_morphism_is_a_failing_report(self, monkeypatch):
        # a stored record filed under another pair: the face that looks
        # that pair up finds another morphism, and the report fails
        # instead of raising
        from cupi import reconstruct
        X = standard_simplex(1)
        shom = ShomSimplicialSet(X, 2)
        ms, other = shom.levels[0]
        shom._by_pair[0][ms.pair] = other
        monkeypatch.setattr(reconstruct, "ShomSimplicialSet",
                            lambda X, up_to: shom)
        report = verify_reconstruction(X, 2)
        assert not report.ok
        assert report.detail.startswith("face d_")

    def test_counts_recorded(self):
        report = verify_reconstruction(standard_simplex(1), 2)
        assert report.counts == ((0, 2, 2), (1, 3, 3), (2, 4, 4))

    @pytest.mark.parametrize("X, up_to, want", [
        (rp2(), None, 144), (rp2(), 3, 61), (rp(2), None, 144),
        (build_complex(barycentric(RP2_FACETS)), 3, 61),
        (build_complex(barycentric(RP2_FACETS)), 4, 144),
    ], ids=["rp2", "rp2-3", "rp(2)", "sd1rp2-3", "sd1rp2-4"])
    def test_each_square_is_decided_once_per_codegeneracy_and_operator(
            self, monkeypatch, X, up_to, want):
        # one composite, and one operator lookup, per (theta, face or
        # degeneracy) through up_to, by default dim X + 2 as in the CLI,
        # however many simplices X has; one lookup per (morphism simplex,
        # operator) made 1644 calls on rp2 and 4065 on sd1rp2 through 3
        calls = []
        lookups = []
        compare = GradedMap.equals_composite
        precompose = ShomSimplicialSet._precompose

        def spy(self, outer, inner):
            calls.append(outer)
            return compare(self, outer, inner)

        def lookup(self, ms, values, dim):
            lookups.append((ms.surjection, values))
            return precompose(self, ms, values, dim)

        monkeypatch.setattr(GradedMap, "equals_composite", spy)
        monkeypatch.setattr(ShomSimplicialSet, "_precompose", lookup)
        assert verify_reconstruction(X, up_to or X.dim + 2).ok
        assert len(calls) == want
        assert len(lookups) == len(set(lookups)) == want


def _by_composites(shom):
    """shom with each face and degeneracy decided by the oracle, forming the
    composite on every morphism simplex, on the same stored simplices."""
    oracle = copy.copy(shom)
    oracle._precompose = functools.partial(oracles.precompose_by_composite,
                                           shom, operators={})
    return oracle


def _file(shom, ms, pair):
    """File the record ms under pair, in its level and its lookup, in place
    of the record of that pair."""
    n = len(pair[0]) - 1
    level = shom.levels[n]
    level[[m.pair for m in level].index(pair)] = ms
    shom._by_pair[n][pair] = ms


def _double(shom):
    """The first stored 2-simplex filed a second time, under the pair of
    the last one."""
    level = shom.levels[2]
    shom._by_pair[2][level[-1].pair] = level[0]


def _swap(shom, a, b):
    """Two stored records, each filed under the other's pair."""
    _file(shom, a, b.pair)
    _file(shom, b, a.pair)


def _swap_bases(shom):
    """The two stored 2-simplices on the last edge, each filed under the
    other codegeneracy's pair."""
    edge = shom.complex.simplices_of_dim(1)[-1]
    _swap(shom, *[ms for ms in shom.levels[2] if ms.simplex == edge])


def _swap_vertices(shom):
    """The stored 0-simplices of the first two vertices, each filed under
    the other vertex."""
    _swap(shom, *shom.levels[0][:2])


_OPERATOR_CASES = [
    pytest.param(X, up_to, tamper, id=f"{name}-{tamper_id}")
    for name, X, up_to in [(name, X, X.dim + 2)
                           for name, X in named_corpus().items()]
    + [("rp(2)", rp(2), 3),
       ("sd1rp2", build_complex(barycentric(RP2_FACETS)), 3)]
    for tamper_id, tamper in [("as-built", None), ("doubled", _double),
                              ("swapped-bases", _swap_bases),
                              ("swapped-vertices", _swap_vertices)]
    if tamper is None or X.dim >= 1]


@pytest.mark.parametrize("X, up_to, tamper", _OPERATOR_CASES)
def test_operators_agree_with_the_composite_oracle(monkeypatch, X, up_to,
                                                   tamper):
    # every face and degeneracy of ShomSimplicialSet is the stored simplex
    # the per-simplex composite finds, and verify_reconstruction's report is
    # the oracle's.  With stored records filed under another pair (one
    # record filed twice, or two swapped: the two codegeneracies onto one
    # edge, or two vertices), the reports still agree and fail, and an
    # operator gives the oracle's simplex or None: a record found under a
    # pair that is not its own is not the composite
    shom = ShomSimplicialSet(X, up_to)
    if tamper:
        tamper(shom)
    oracle = _by_composites(shom)
    for n, level in shom.levels.items():
        for ms in level:
            for i in range(n + 1):
                for op, top in (("face", 0), ("degeneracy", up_to)):
                    if n == top:
                        continue
                    got = getattr(shom, op)(ms, i)
                    want = getattr(oracle, op)(ms, i)
                    assert got is want or (tamper and got is None)
    reports = []
    for built in (shom, oracle):
        monkeypatch.setattr(reconstruct, "ShomSimplicialSet",
                            lambda X, up_to, built=built: built)
        reports.append(verify_reconstruction(X, up_to))
    assert reports[0] == reports[1]
    assert reports[0].ok == (tamper is None)


class TestLift:
    def test_edge_inclusion_functoriality(self):
        X = standard_simplex(1)
        Y = standard_simplex(2)
        vm = VertexMap.from_dict(X, Y, {0: 0, 1: 2})
        g = chain_map_from_vertex_map(vm, structure_for(X).chains,
                                      structure_for(Y).chains)
        verdict = is_steenrod_morphism(g, X, Y)
        lift = lift_morphism(g, verdict, X, Y)
        dX = adjoin(X)
        for m in range(3):
            for theta, tau in dX.simplices_of_dim(m):
                values = tuple(vm.as_dict()[tau[t]] for t in theta)
                assert image_pair(lift.vertex_map.as_dict(), (theta, tau)) == \
                    epi_mono_factor(values)

    def test_identity_on_rp2(self):
        X = rp2()
        g = GradedMap.identity(structure_for(X).chains)
        verdict = is_steenrod_morphism(g, X, X)
        lift = lift_morphism(g, verdict, X, X)
        assert lift.vertex_map.as_dict() == {v: v for v in X.vertices}
        assert lift.recovered_bijection() is not None

    def test_relabeled_circle_recovery(self):
        # abstract circle on {3, 5, 9} mapped onto the standard one
        A = build_complex([(3, 5), (3, 9), (5, 9)])
        B = circle()
        vm = VertexMap.from_dict(A, B, {3: 0, 5: 1, 9: 2})
        g = chain_map_from_vertex_map(vm, structure_for(A).chains,
                                      structure_for(B).chains)
        verdict = is_steenrod_morphism(g, A, B)
        lift = lift_morphism(g, verdict, A, B)
        assert lift.vertex_map.as_dict() == {3: 0, 5: 1, 9: 2}
        assert lift.recovered_bijection() is not None

    def test_refuses_unverified(self):
        X = circle()
        g = GradedMap.identity(structure_for(X).chains)
        bad = MorphismVerdict("not_morphism", witness=(1, (0, 1)))
        with pytest.raises(ValueError):
            lift_morphism(g, bad, X, X)

    def test_refuses_a_verdict_on_other_complexes(self):
        X = circle()
        g = GradedMap.identity(structure_for(X).chains)
        verdict = is_steenrod_morphism(g, X, X)
        with pytest.raises(ValueError, match="other complexes"):
            lift_morphism(g, verdict, X, rp2())

    def test_a_certified_path_into_a_hollow_triangle_is_no_isomorphism(self):
        # phi = id is simplicial, certified, and a bijection of vertices,
        # but its inverse sends the edge (0, 2) to no simplex
        X = build_complex([(0, 1), (1, 2)])
        Y = build_complex([(0, 1), (1, 2), (0, 2)])
        vm = VertexMap.from_dict(X, Y, {v: v for v in X.vertices})
        g = chain_map_from_vertex_map(vm, structure_for(X).chains,
                                      structure_for(Y).chains)
        verdict = is_steenrod_morphism(g, X, Y)
        assert verdict == MorphismVerdict("morphism", certificate=vm)
        assert lift_morphism(g, verdict, X, Y).recovered_bijection() is None
        assert oracles.inverse_simplicial_bijection(vm) is None

    def test_one_vertex_map_per_lift_decision(self, monkeypatch):
        # the decision builds phi once, as its certificate; the lift and
        # the recovered isomorphism read it and build no inverse
        X = rp2()
        Y, vm = _shifted(X)
        g = chain_map_from_vertex_map(vm, structure_for(X).chains,
                                      structure_for(Y).chains)
        built = []
        from_dict = VertexMap.from_dict.__func__

        def spy(cls, source, target, mapping):
            built.append((source, target))
            return from_dict(cls, source, target, mapping)

        monkeypatch.setattr(VertexMap, "from_dict", classmethod(spy))
        verdict = is_steenrod_morphism(g, X, Y)
        assert lift_morphism(g, verdict, X, Y).recovered_bijection() == vm
        assert built == [(X, Y)]

    def test_lift_identity_is_identity(self):
        X = circle()
        g = GradedMap.identity(structure_for(X).chains)
        lift = lift_morphism(g, is_steenrod_morphism(g, X, X), X, X)
        dX = adjoin(X)
        for m in range(3):
            for pair in dX.simplices_of_dim(m):
                assert image_pair(lift.vertex_map.as_dict(), pair) == pair

    def test_lift_composes(self):
        A = build_complex([(3, 5), (3, 9), (5, 9)])
        B = circle()
        vm1 = VertexMap.from_dict(A, B, {3: 0, 5: 1, 9: 2})
        vm2 = VertexMap.from_dict(B, A, {0: 3, 1: 5, 2: 9})
        g1 = chain_map_from_vertex_map(vm1, structure_for(A).chains,
                                       structure_for(B).chains)
        g2 = chain_map_from_vertex_map(vm2, structure_for(B).chains,
                                       structure_for(A).chains)
        l1 = lift_morphism(g1, is_steenrod_morphism(g1, A, B), A, B)
        l2 = lift_morphism(g2, is_steenrod_morphism(g2, B, A), B, A)
        dA = adjoin(A)
        for m in range(3):
            for pair in dA.simplices_of_dim(m):
                once = image_pair(l1.vertex_map.as_dict(), pair)
                assert image_pair(l2.vertex_map.as_dict(), once) == pair

    def test_direct_route_agrees(self):
        A = build_complex([(3, 5), (3, 9), (5, 9)])
        B = circle()
        vm = VertexMap.from_dict(A, B, {3: 0, 5: 1, 9: 2})
        g = chain_map_from_vertex_map(vm, structure_for(A).chains,
                                      structure_for(B).chains)
        lift = lift_morphism(g, is_steenrod_morphism(g, A, B), A, B)
        for ms in enumerate_morphisms(1, A):
            # postcompose the morphism-simplex with g and reclassify
            composite = oracles.compose(g, ms.chain_map)
            lifted = lift.vertex_map.as_dict()
            own = oracles.morphism_vertex_map(ms).as_dict()
            values = tuple(lifted[own[i]] for i in range(2))
            assert epi_mono_factor(values) == \
                image_pair(lift.vertex_map.as_dict(), ms.pair)
            induced = chain_map_from_vertex_map(
                VertexMap.from_dict(standard_simplex(1), B,
                                    dict(enumerate(values))),
                structure_for(standard_simplex(1)).chains,
                structure_for(B).chains)
            assert composite.equals(induced)


@given(complexes, st.data())
@settings(max_examples=100, deadline=None)
def test_recovered_bijection_is_the_inverse_simplicial_oracle(X, data):
    # a relabeling of X's vertices, in any order and not always injective,
    # into the complex its simplex images span, with some facets added: a
    # simplicial map, as every certificate is, and an isomorphism exactly
    # when nothing is merged or added
    n = len(X.vertices)
    labels = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n,
                                unique=data.draw(st.booleans())))
    m = dict(zip(X.vertices, labels))
    extra = data.draw(st.lists(st.sets(st.integers(0, 9), min_size=1,
                                       max_size=3), max_size=2))
    Y = build_complex([tuple(sorted({m[v] for v in s}))
                       for s in X.all_simplices()]
                      + [tuple(sorted(f)) for f in extra])
    vm = VertexMap.from_dict(X, Y, m)
    got = LiftedMap(vm).recovered_bijection()
    assert got == oracles.inverse_simplicial_bijection(vm)
    assert (got is None) == (len(set(labels)) < n or Y.f_vector()
                             != X.f_vector())


class TestHomologySquare:
    def test_identity_on_circle(self):
        X = circle()
        g = GradedMap.identity(structure_for(X).chains)
        verdict = is_steenrod_morphism(g, X, X)
        assert homology_square(g, verdict, X, X, 2).ok

    def test_edge_collapse(self):
        X = standard_simplex(1)
        Y = standard_simplex(0)
        vm = VertexMap.from_dict(X, Y, {0: 0, 1: 0})
        g = chain_map_from_vertex_map(vm, structure_for(X).chains,
                                      structure_for(Y).chains)
        verdict = is_steenrod_morphism(g, X, Y)
        assert homology_square(g, verdict, X, Y, 1).ok

    def test_relabeled_rp2_iso(self):
        relabel = {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}
        A = rp2()
        B = build_complex([tuple(sorted(relabel[v] for v in f))
                           for f in RP2_FACETS])
        vm = VertexMap.from_dict(A, B, relabel)
        g = chain_map_from_vertex_map(vm, structure_for(A).chains,
                                      structure_for(B).chains)
        verdict = is_steenrod_morphism(g, A, B)
        assert verdict.ok
        assert homology_square(g, verdict, A, B, 2).ok


def _changed(g, X, Y, change):
    """The chain map g: N(X) -> N(Y) as is, negated, plus dh + hd for the
    homotopy h sending the first vertex of X to the first edge of Y, or
    with the first top cycle of Y, if there is one, added to the image of
    the first top simplex of X; each is again a chain map."""
    comps = {lb: dict(img) for lb, img in g.comps.items()}
    NY = g.target
    if change == "negate":
        comps = {lb: {t: -c for t, c in img.items()}
                 for lb, img in comps.items()}
    elif change == "homotopy" and Y.dim >= 1:
        _add_homotopy(comps, g.source, NY, (X.vertices[0],), Y.simplices[1][0])
    elif change == "cycle":
        n = X.dim
        cycles = oracles.kernel_generators(HomologyClasses(NY, n))
        if cycles:
            img = comps.setdefault(X.simplices[n][0], {})
            for t, c in cycles[0].coeffs:
                _add_into(img, t, c)
    f = GradedMap(g.source, NY, 0, comps)
    assert f.is_chain_map()
    return f


@pytest.mark.parametrize("change", ["none", "negate", "homotopy", "cycle"])
@pytest.mark.parametrize("relabeled", [False, True])
@pytest.mark.parametrize("name", list(named_corpus()))
def test_homology_square_agrees_with_the_kernel_oracle(
        monkeypatch, name, relabeled, change):
    # the map is changed after the identity's (or relabeling's) verdict, so
    # the square itself decides, and can fail; the old path takes the
    # oracle's Z-basis of every cycle in place of the sparse generators
    X = named_corpus()[name]
    Y, vm = _shifted(X) if relabeled else (X, VertexMap.from_dict(
        X, X, {v: v for v in X.vertices}))
    g = chain_map_from_vertex_map(vm, structure_for(X).chains,
                                  structure_for(Y).chains)
    verdict = is_steenrod_morphism(g, X, Y)
    assert verdict.ok
    f = _changed(g, X, Y, change)
    new = homology_square(f, verdict, X, Y, 2)
    monkeypatch.setattr(HomologyClasses, "generators",
                        oracles.kernel_generators)
    assert homology_square(f, verdict, X, Y, 2) == new
    if change == "negate":
        assert new.detail == "square fails in degree 0"


@pytest.mark.parametrize("n, want", [(2, 20), (3, 21)])
def test_homology_square_runs_one_elimination_per_boundary_map(
        monkeypatch, fresh_structures, n, want):
    # identity on RP^n, --i-max 2: one cleared pass of N(X), shared by both
    # sides (n eliminations), and of each C(adjoin X) through degree 3
    # (3 + 3); generators() once per degree 0..2 on each side (3 + 3); one
    # onto check per inclusion and degree (6)
    X = rp(n)
    g = GradedMap.identity(structure_for(X).chains)
    verdict = is_steenrod_morphism(g, X, X)
    calls = _count_eliminations(monkeypatch)
    assert homology_square(g, verdict, X, X, 2) == (True, "square commutes")
    assert len(calls) == want


def test_homology_square_builds_no_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("homology_square built a dense kernel")
    X = build_complex(barycentric(RP2_FACETS))
    g = GradedMap.identity(structure_for(X).chains)
    verdict = is_steenrod_morphism(g, X, X)
    monkeypatch.setattr(chains.FreeChainComplex, "boundary_matrix", refuse)
    monkeypatch.setattr(chains, "kernel_basis", refuse)
    assert homology_square(g, verdict, X, X, 2) == (True, "square commutes")


def test_the_lift_on_chains_reads_the_vertex_map_once(monkeypatch):
    X = rp2()
    g = GradedMap.identity(structure_for(X).chains)
    lift = lift_morphism(g, is_steenrod_morphism(g, X, X), X, X)
    _, C = nondegenerate_inclusion(X, 3)
    calls = []
    as_dict = VertexMap.as_dict

    def counted(self):
        calls.append(self)
        return as_dict(self)

    monkeypatch.setattr(VertexMap, "as_dict", counted)
    chat = unnormalized_map_of_lift(lift, C, C)
    assert calls == [lift.vertex_map]
    assert chat.equals(GradedMap.identity(C))


@pytest.mark.parametrize("X", [
    circle(), rp2(), build_complex(barycentric(RP2_FACETS)),
    build_complex(RP2_FACETS + [(1, 7), (7, 8), (1, 8)]),
], ids=["circle", "rp2", "sd1rp2", "rp2_wedge_s1"])
def test_inclusion_iso_needs_an_onto_map(X):
    # H_1 is Z on the circle, Z/2 on RP^2 and on sd^1 RP^2 (whose elimination
    # leaves a nonempty block), and Z + Z/2 on RP^2 wedge a circle; twice the
    # nondegenerate inclusion j induces multiplication by 2: the groups
    # agree, but the map is not onto
    j, C = nondegenerate_inclusion(X, 2)
    twice = GradedMap(j.source, C, 0,
                      {lb: {t: 2 * c for t, c in img.items()}
                       for lb, img in j.comps.items()})
    HN, HC = HomologyClasses(j.source, 1), HomologyClasses(C, 1)
    assert HN.group() == HC.group()
    assert _inclusion_is_iso(HN, HC, j) is True
    assert _inclusion_is_iso(HN, HC, twice) is False

"""Complexes, the degeneracy functors, and their unit/counit."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cupi.simplicial import (InvalidComplexError, VertexMap, adjoin,
                             build_complex, codegeneracy, coface,
                             identity_map, standard_simplex, surjections)

from cupi.chains import unnormalized_chains
from cupi.reconstruct import enumerate_morphisms

import oracles
from conftest import RP2_FACETS, circle, rp2


# The other side of the adjunction with adjoin, built here only to check it.

def forget(sset, up_to):
    """Drop degeneracy operators: every simplex through dimension up_to
    becomes a cell of a delta-complex."""
    cells = {}
    faces = {}
    for m in range(up_to + 1):
        cells[m] = sset.simplices_of_dim(m)
        if m > 0:
            for s in cells[m]:
                faces[s] = tuple(sset.face(s, i) for i in range(m + 1))
    return oracles.DeltaComplex(cells=cells, faces=faces)


def unit(core):
    """The inclusion of a delta-complex into forget(adjoin(core)): c -> (id, c)."""
    def iota(cell):
        for n, cs in core.cells.items():
            if cell in cs:
                return (identity_map(n), cell)
        raise KeyError(cell)
    return iota


def counit(sset):
    """The map adjoin(forget(X)) -> X sending a promoted degenerate back to
    its original: (phi, x) -> x . phi."""
    def g(pair):
        phi, x = pair  # x is itself a simplex (theta, c) of sset
        theta, c = x
        return (tuple(theta[j] for j in phi), c)
    return g


class TestBuildComplex:
    def test_triangle_closure(self):
        X = build_complex([(0, 1, 2)])
        assert X.f_vector() == (3, 3, 1)
        assert X.simplices_of_dim(1) == ((0, 1), (0, 2), (1, 2))

    def test_empty(self):
        X = build_complex([])
        assert X.f_vector() == ()
        assert X.dim == -1

    def test_rp2_f_vector_against_bruteforce_closure(self):
        X = rp2()
        assert X.f_vector() == oracles.closure_counts(RP2_FACETS)
        assert X.f_vector() == (6, 15, 10)

    def test_idempotent_on_closed_input(self):
        X = build_complex([(0, 1, 2), (1, 2, 3)])
        again = build_complex(list(X.all_simplices()))
        assert again == X

    def test_rejects_unsorted_facet(self):
        with pytest.raises(InvalidComplexError):
            build_complex([(2, 1)])

    def test_equal_facets_give_one_structure(self):
        # equality and hash read the vertices and simplices only, so a
        # rebuilt complex finds the cached structure of the first
        from cupi.steenrod import structure_for
        X, Y = build_complex(RP2_FACETS), build_complex(RP2_FACETS)
        assert X is not Y
        assert X.has_simplex((1, 2, 4))         # fills X's simplex sets
        assert X == Y and hash(X) == hash(Y)
        assert X != (X.vertices, X.simplices)
        assert X != build_complex(RP2_FACETS[1:])
        assert structure_for(X) is structure_for(Y)
        assert oracles.delta_core(X) == oracles.delta_core(Y)
        assert hash(oracles.delta_core(X)) == hash(oracles.delta_core(Y))
        m = {v: v for v in X.vertices}
        assert VertexMap.from_dict(X, Y, m) == VertexMap.from_dict(Y, X, m)
        assert VertexMap.from_dict(X, X, m) != VertexMap.from_dict(
            X, X, {**m, 1: 2})

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(InvalidComplexError):
            build_complex([(1, 1, 2)])

    def test_face_closure_invariant(self, full_corpus):
        for X in full_corpus:
            for s in X.all_simplices():
                for r in range(1, len(s)):
                    for sub in itertools.combinations(s, r):
                        assert X.has_simplex(sub)


facet_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4,
             unique=True).map(lambda v: tuple(sorted(v))),
    min_size=0, max_size=6)


@given(facet_lists)
@settings(max_examples=60, deadline=None)
def test_build_complex_always_face_closed(facets):
    X = build_complex(facets)
    for s in X.all_simplices():
        for i in range(len(s)):
            if len(s) > 1:
                assert X.has_simplex(s[:i] + s[i + 1:])


class TestSurjections:
    def test_counts_match_recursive_oracle(self):
        for m in range(6):
            for n in range(m + 1):
                assert len(surjections(m, n)) == oracles.count_surjections(m, n)
                assert len(surjections(m, n)) == comb(m, n)

    def test_all_are_monotone_surjections(self):
        for theta in surjections(4, 2):
            assert theta[0] == 0 and theta[-1] == 2
            assert all(b - a in (0, 1) for a, b in zip(theta, theta[1:]))


class TestAdjoin:
    def test_an_ordered_complex_is_its_own_delta_core(self, full_corpus,
                                                      projective_spaces):
        # adjoin(X) against the reference adjoin(delta_core(X)) through
        # dim X + 2: the same simplices, faces, degeneracies and chains
        for X in [*full_corpus, projective_spaces[3]]:
            assert X.to_delta() is X
            direct, ref = adjoin(X), adjoin(oracles.delta_core(X))
            top = X.dim + 2
            for m in range(top + 1):
                level = direct.simplices_of_dim(m)
                assert level == ref.simplices_of_dim(m)
                for s in level:
                    for i in range(m + 1):
                        if m:
                            assert direct.face(s, i) == ref.face(s, i)
                        assert direct.degeneracy(s, i) == ref.degeneracy(s, i)
            C, R = unnormalized_chains(direct, top), unnormalized_chains(ref, top)
            assert (C.basis, C.diff) == (R.basis, R.diff)

    def test_point_one_simplex_per_dimension(self):
        dpt = adjoin(standard_simplex(0))
        assert [len(dpt.simplices_of_dim(m)) for m in range(6)] == [1] * 6

    def test_interval_dimension_two(self):
        dd1 = adjoin(standard_simplex(1))
        assert len(dd1.simplices_of_dim(2)) == 4

    def test_circle_dimension_one(self):
        assert len(adjoin(circle()).simplices_of_dim(1)) == 6

    def test_counts_binomial_formula(self, full_corpus):
        for X in full_corpus:
            dX = adjoin(X)
            for m in range(6):
                want = sum(comb(m, n) * len(X.simplices_of_dim(n))
                           for n in range(X.dim + 1))
                assert len(dX.simplices_of_dim(m)) == want

    def test_simplicial_identities(self, corpus):
        # d_i d_j = d_{j-1} d_i (i<j); s_i s_j = s_{j+1} s_i (i<=j); mixed
        for X in corpus.values():
            dX = adjoin(X)
            for m in range(1, 4):
                for s in dX.simplices_of_dim(m):
                    if m >= 2:
                        for j in range(m + 1):
                            for i in range(j):
                                assert dX.face(dX.face(s, j), i) == \
                                    dX.face(dX.face(s, i), j - 1)
                    for j in range(m + 1):
                        for i in range(j + 1):
                            assert dX.degeneracy(dX.degeneracy(s, j), i) == \
                                dX.degeneracy(dX.degeneracy(s, i), j + 1)
                    for j in range(m + 1):
                        for i in range(m + 2):
                            left = dX.face(dX.degeneracy(s, j), i)
                            if i < j:
                                assert left == dX.degeneracy(dX.face(s, i), j - 1)
                            elif i in (j, j + 1):
                                assert left == s
                            else:
                                assert left == dX.degeneracy(dX.face(s, i - 1), j)

    def test_faces_and_degeneracies_match_the_monotone_action(self, corpus):
        # the formulas against the general action of a coface or a
        # codegeneracy, also on a core that is not an ordered complex
        interval = adjoin(standard_simplex(1))
        cases = [(adjoin(X), 4) for X in corpus.values()]
        cases.append((adjoin(forget(interval, 2)), 3))
        for dX, top in cases:
            for m in range(top + 1):
                for s in dX.simplices_of_dim(m):
                    for i in range(m + 1):
                        if m > 0:
                            assert dX.face(s, i) == oracles.monotone_action(
                                dX, s, coface(i, m))
                        assert dX.degeneracy(s, i) == oracles.monotone_action(
                            dX, s, codegeneracy(i, m))


class TestForget:
    def test_point_tower(self):
        dpt = adjoin(standard_simplex(0))
        f = forget(dpt, 4)
        assert [len(f.simplices_of_dim(m)) for m in range(5)] == [1] * 5

    def test_interval_dim1_three_cells(self):
        f = forget(adjoin(standard_simplex(1)), 2)
        assert len(f.simplices_of_dim(1)) == 3

    def test_cell_count_formula(self, corpus):
        for X in corpus.values():
            dX = adjoin(X)
            f = forget(dX, 4)
            for m in range(5):
                want = sum(comb(m, n) * len(X.simplices_of_dim(n))
                           for n in range(X.dim + 1))
                assert len(f.simplices_of_dim(m)) == want


_TRIANGLE = oracles.delta_core(standard_simplex(2))


@pytest.mark.parametrize("cells, faces, message", [
    ({**_TRIANGLE.cells, 1: _TRIANGLE.cells[1] + ((0,),)}, _TRIANGLE.faces,
     r"duplicate cell label \(0,\)"),
    (_TRIANGLE.cells, {**_TRIANGLE.faces, (0, 2): ((2,),)},
     r"cell \(0, 2\) lacks 2 faces"),
    # d_0 and d_1 of the edge (0, 1) swapped: d_0 d_2 != d_1 d_0
    (_TRIANGLE.cells, {**_TRIANGLE.faces, (0, 1): ((0,), (1,))},
     r"face identity d_0 d_2 fails on \(0, 1, 2\)"),
], ids=["duplicate-label", "too-few-faces", "broken-identity"])
def test_the_reference_delta_core_refuses(cells, faces, message):
    with pytest.raises(InvalidComplexError, match=message):
        oracles.DeltaComplex(cells=cells, faces=faces)


class TestCoreAndComparison:
    def test_core_of_adjoin_is_identity(self, full_corpus):
        for X in full_corpus:
            Y = oracles.delta_core(X)
            assert oracles.core_of(adjoin(Y)).same_as(Y)

    def test_core_of_triangle(self):
        Y = oracles.core_of(adjoin(oracles.delta_core(standard_simplex(2))))
        assert tuple(len(Y.simplices_of_dim(k)) for k in range(3)) == (3, 3, 1)

    def test_comparison_iso_rp2(self):
        assert oracles.core_comparison_is_iso(adjoin(rp2()), 3)


class TestUnitCounit:
    def test_counit_bijection_on_point(self):
        X = adjoin(standard_simplex(0))
        g = counit(X)
        for m in range(4):
            fX = forget(X, m)
            dfX = adjoin(fX)
            image = {g(p) for p in dfX.simplices_of_dim(m)}
            assert image == set(X.simplices_of_dim(m))
            assert len(dfX.simplices_of_dim(m)) >= len(image)

    def test_unit_hits_exactly_nondegenerates(self):
        Y = oracles.delta_core(circle())
        X = adjoin(Y)
        iota = unit(Y)
        fdY = forget(X, 1)
        image = {iota(c) for n in Y.cells for c in Y.simplices_of_dim(n)}
        nondeg = {(theta, c) for m in range(2)
                  for theta, c in fdY.simplices_of_dim(m)
                  if theta == identity_map(m)}
        assert image == nondeg
        assert len(image) == 6  # 3 vertices + 3 edges

    def test_triangle_identity_fg_iotaf(self):
        # (forget g) . (unit on forget X) = id on forget(adjoin(interval))
        X = adjoin(standard_simplex(1))
        fX = forget(X, 2)
        g = counit(X)
        iota = unit(fX)
        for m in range(3):
            for cell in fX.simplices_of_dim(m):
                assert g(iota(cell)) == cell

    def test_triangle_identity_gd_diota(self):
        # g_{adjoin Y} . adjoin(unit_Y) = id on adjoin(Y)
        Y = oracles.delta_core(circle())
        X = adjoin(Y)
        iota = unit(Y)
        g = counit(X)
        for m in range(3):
            for theta, c in X.simplices_of_dim(m):
                assert g((theta, iota(c))) == (theta, c)

    def test_counit_surjective_unit_injective(self, corpus):
        for X in corpus.values():
            dX = adjoin(X)
            g = counit(dX)
            iota = unit(oracles.delta_core(X))
            for m in range(3):
                targets = set(dX.simplices_of_dim(m))
                image = {g(p) for p in adjoin(forget(dX, m)).simplices_of_dim(m)}
                assert image == targets
            seen = set()
            for s in X.all_simplices():
                v = iota(s)
                assert v not in seen
                seen.add(v)



def _vertex_maps(n, X):
    """The vertex maps of the morphisms N(standard n-simplex) -> N(X)."""
    return [oracles.morphism_vertex_map(ms)
            for ms in enumerate_morphisms(n, X)]


class TestSimplicialMaps:
    def test_point(self):
        assert len(_vertex_maps(0, standard_simplex(0))) == 1

    def test_interval(self):
        assert len(_vertex_maps(1, standard_simplex(1))) == 3

    def test_circle_dim2(self):
        assert len(_vertex_maps(2, circle())) == 9

    def test_against_direct_enumeration(self, corpus):
        # one morphism per weakly monotone vertex tuple spanning a simplex,
        # with that tuple as its vertex map
        for X in corpus.values():
            for n in range(3):
                got = [tuple(vm.as_dict()[p] for p in range(n + 1))
                       for vm in _vertex_maps(n, X)]
                assert sorted(got) == oracles.monotone_spanning_maps(n, X)

    def test_maps_are_simplicial_and_monotone(self):
        for vm in _vertex_maps(2, rp2()):
            assert vm.is_order_preserving()
            assert vm.is_simplicial()

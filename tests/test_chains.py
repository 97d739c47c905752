"""Chain complexes, Koszul signs, the Hom differential, and homology."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cupi import chains
from cupi.chains import (Chain, FreeChainComplex, GradedMap, HomologyClasses,
                         TensorChain, _present, homology, kernel_basis,
                         normalized_chains, smith_normal_form,
                         unnormalized_chains)
from cupi.simplicial import (VertexMap, adjoin, build_complex,
                             standard_simplex)

import oracles
from conftest import circle, rp2, sphere


class TestNormalizedChains:
    def test_interval_boundary(self):
        N = normalized_chains(standard_simplex(1))
        assert N.boundary_of((0, 1)) == {(1,): 1, (0,): -1}

    def test_triangle_boundary(self):
        N = normalized_chains(standard_simplex(2))
        assert N.boundary_of((0, 1, 2)) == {(1, 2): 1, (0, 2): -1, (0, 1): 1}

    def test_rp2_ranks(self):
        N = normalized_chains(rp2())
        assert [N.rank(n) for n in range(3)] == [6, 15, 10]
        # boundary ranks forced by H_2 = 0 (kernel of d_2 is trivial) and
        # betti_0 = 1; cross-checked with the Fraction elimination oracle
        for n, rank in ((2, 10), (1, 5)):
            pivots, _, _, invariants = _present(map(N.boundary_of, N.basis[n]))
            assert len(pivots) + len(invariants) == rank
        assert oracles.rational_rank(N.boundary_matrix(2)) == 10
        assert oracles.rational_rank(N.boundary_matrix(1)) == 5

    def test_d_squared_enforced(self):
        with pytest.raises(ValueError):
            # a fake complex where d.d != 0
            from cupi.chains import FreeChainComplex
            FreeChainComplex({0: ["a", "b"], 1: ["e"], 2: ["t"]},
                             {"e": {"a": 1}, "t": {"e": 1}})


class TestUnnormalizedChains:
    def test_point_tower(self):
        C = unnormalized_chains(adjoin(standard_simplex(0)), 2)
        assert [C.rank(n) for n in range(3)] == [1, 1, 1]
        assert C.boundary_matrix(1) == [[0]]
        assert C.boundary_matrix(2) == [[1]]

    def test_interval_rank_one(self):
        C = unnormalized_chains(adjoin(standard_simplex(1)), 1)
        assert C.rank(1) == 3

    def test_homology_agrees_with_normalized_core(self, corpus):
        for X in corpus.values():
            up_to = min(X.dim + 2, 4)
            C = unnormalized_chains(adjoin(X), up_to)
            N = normalized_chains(X)
            hc = homology(C, up_to=up_to - 1)
            hn = homology(N)
            for i in range(up_to):
                want = ((hn[i].betti, hn[i].torsion) if i < len(hn)
                        else (0, ()))
                assert (hc[i].betti, hc[i].torsion) == want


class TestHomDifferential:
    def test_chain_map_goes_to_zero(self):
        N = normalized_chains(standard_simplex(1))
        identity = GradedMap.identity(N)
        assert not oracles.commutator_with_boundary(identity).comps

    def test_boundary_of_boundary_vanishes(self):
        rng = random.Random(11)
        N = normalized_chains(standard_simplex(2))
        comps = {}
        for lb, n in N.degree_of.items():
            img = {t: rng.randint(-3, 3) for t in N.basis.get(n + 1, ())}
            img = {t: c for t, c in img.items() if c}
            if img:
                comps[lb] = img
        f = GradedMap(N, N, 1, comps)
        df = oracles.commutator_with_boundary(f)
        assert not oracles.commutator_with_boundary(df).comps

    def test_zero_detects_chain_maps(self):
        N = normalized_chains(circle())
        f = GradedMap(N, N, 0, {(0, 1): {(0, 1): 1}})  # partial map, not chain
        assert oracles.commutator_with_boundary(f).comps
        assert not f.is_chain_map()


def test_equals_composite_agrees_with_compose():
    # random degree-0 maps on N(Delta^2), sparse enough to leave labels
    # with a zero image and composites that cancel
    rng = random.Random(7)
    N = normalized_chains(standard_simplex(2))

    def random_map():
        return GradedMap(N, N, 0, {
            lb: {t: rng.choice([-1, 0, 0, 1]) for t in N.basis[n]}
            for lb, n in N.degree_of.items()})

    for _ in range(200):
        f, g = random_map(), random_map()
        fg = oracles.compose(f, g)
        # fg with one label dropped, and with one label added
        fewer = dict(list(fg.comps.items())[1:])
        more = {lb: {lb: 1} for lb in N.degree_of if lb not in fg.comps}
        more = {**dict(list(more.items())[:1]), **fg.comps}
        for h in (fg, random_map(), GradedMap.identity(N),
                  GradedMap(N, N, 0, fewer), GradedMap(N, N, 0, more)):
            assert h.equals_composite(f, g) == h.equals(fg)
        assert fg.equals_composite(f, g)
    shifted = GradedMap(N, N, 1, {})
    assert not shifted.equals_composite(GradedMap(N, N, 0, {}),
                                        GradedMap(N, N, 0, {}))


def test_a_label_outside_either_complex_is_refused_by_name():
    # N(phi) of the edge onto two points names (0, 1), which the target
    # lacks; a component on a label the source lacks is named too
    edge = build_complex([(0, 1)])
    points = build_complex([(0,), (1,)])
    NE, NP = normalized_chains(edge), normalized_chains(points)
    with pytest.raises(ValueError,
                       match=r"^\(0, 1\) is not a target basis label$"):
        chains.chain_map_from_vertex_map(
            VertexMap.from_dict(edge, points, {0: 0, 1: 1}), NE, NP)
    with pytest.raises(ValueError,
                       match=r"^\(0, 1\) is not a source basis label$"):
        GradedMap(NP, NE, 0, {(0, 1): {(0, 1): 1}})
    with pytest.raises(ValueError, match="breaks the degree shift"):
        GradedMap(NE, NE, 0, {(0,): {(0, 1): 1}})


def test_induced_image_reads_a_dict_or_values_on_positions(full_corpus):
    # N(phi)(s) is phi(s) when phi is injective on s and zero otherwise,
    # for phi a dict on vertices or a tuple of values on positions; the
    # components agree with the oracle's own loop
    rng = random.Random(11)
    for X in full_corpus:
        values = tuple(sorted(rng.choice(range(4)) for _ in X.vertices))
        phi = dict(zip(X.vertices, values))
        assert chains.induced_components(phi, X.all_simplices()) == \
            oracles.vertex_map_components(VertexMap.from_dict(X, X, phi))
    for values in [(0, 0, 1, 2), (0, 1, 1, 1), (1, 3, 4, 5), (2, 0, 1, 0)]:
        for s in standard_simplex(3).all_simplices():
            image = sorted(values[p] for p in s)
            want = {tuple(image): 1} if len(set(image)) == len(s) else {}
            assert chains.induced_image(values, s) == want
            assert chains.induced_image(dict(enumerate(values)), s) == want


class TestTensorChain:
    def test_boundary_koszul_sign(self):
        t = TensorChain.from_dict(2, {((0, 1), (0, 1)): 1})
        b = oracles.tensor_boundary(t).as_dict()
        assert b == {((1,), (0, 1)): 1, ((0,), (0, 1)): -1,
                     ((0, 1), (1,)): -1, ((0, 1), (0,)): 1}

    def test_swap_sign(self):
        t = TensorChain.from_dict(2, {((0, 1), (1, 2)): 1})
        assert t.swap().as_dict() == {((1, 2), (0, 1)): -1}

    def test_from_dict_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            TensorChain.from_dict(2, {((0, 1), (1,)): 1})       # degree 1

    def test_sum_rejects_degree_mismatch(self):
        a = TensorChain.from_dict(1, {((0,), (0, 1)): 1})
        b = TensorChain.from_dict(2, {((0, 1), (0, 1)): 1})
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            Chain.from_dict(0, {(0,): 1}) + Chain.from_dict(1, {(0, 1): 1})

    def test_zero_is_equal_across_degrees(self):
        for x, y in ((Chain(0, ()), Chain(3, ())),
                     (TensorChain(1, ()), TensorChain(4, ()))):
            assert x == y
            assert hash(x) == hash(y)
        assert Chain.from_dict(1, {(0, 1): 1}) != Chain.from_dict(2, {(0, 1): 1})

    def test_len_counts_terms(self):
        t = TensorChain.from_dict(1, {((0,), (0, 1)): 2, ((0, 1), (1,)): -1,
                                         ((1,), (0, 1)): 0})
        assert len(t) == 2
        assert len(t - t) == 0

    def test_relabel_maps_every_factor(self):
        t = TensorChain.from_dict(2, {((0, 1), (1, 2)): 3, ((0,), (0, 1, 2)): -1})
        assert t.relabel((4, 7, 9)).as_dict() == \
            {((4, 7), (7, 9)): 3, ((4,), (4, 7, 9)): -1}
        # the labels of a relabeled chain stay sorted only under an
        # increasing vertex list
        for verts in [(4, 9, 7), (4, 4, 9)]:
            with pytest.raises(ValueError):
                t.relabel(verts)


facet_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4,
             unique=True).map(lambda v: tuple(sorted(v))),
    min_size=1, max_size=5)


@given(facet_lists)
@settings(max_examples=40, deadline=None)
def test_boundary_squares_to_zero_on_random_complexes(facets):
    # the constructor asserts d.d = 0; re-check explicitly on generators,
    # and on the degeneracy completion through degree 3
    X = build_complex(facets)
    if not X.simplices:
        return
    N = normalized_chains(X)
    for lb in N.degree_of:
        assert N.boundary(N.boundary(N.generator(lb))).is_zero()
    C = unnormalized_chains(adjoin(X), 3)
    for lb in C.degree_of:
        assert C.boundary(C.boundary(C.generator(lb))).is_zero()


def test_builders_agree_with_the_reference_loops(full_corpus,
                                                projective_spaces):
    # the shared face-sum builder against N(X) read through delta_core(X)
    # and against C(X) built one degree at a time
    complexes = (full_corpus + list(projective_spaces.values())
                 + [standard_simplex(n) for n in range(10)])
    for X in complexes:
        got, want = normalized_chains(X), oracles.delta_normalized_chains(X)
        assert (got.basis, got.diff) == (want.basis, want.diff)
        sset = adjoin(X)
        got = unnormalized_chains(sset, 3)
        want = oracles.loop_unnormalized_chains(sset, 3)
        assert (got.basis, got.diff) == (want.basis, want.diff)


# Two mutants of the face-sum builder on the 3-simplex: the face that drops
# vertex (i + 1) mod (n + 1) in place of vertex i, and the builder with every
# sign +1.  The d.d = 0 check must refuse both, also under python -O.
_MUTANTS = """
import inspect
from cupi import chains
from cupi.simplicial import standard_simplex

def rotated(s, i):
    j = (i + 1) % len(s)
    return s[:j] + s[j + 1:]

source = inspect.getsource(chains._face_sum)
if source.count("(-1) ** i") != 1:
    raise SystemExit("no sign (-1) ** i in chains._face_sum to mutate")
unsigned = dict(vars(chains))
exec(source.replace("(-1) ** i", "1"), unsigned)
cells = standard_simplex(3).simplices
for build in (lambda: chains._face_sum(cells, rotated),
              lambda: unsigned["_face_sum"](cells,
                                            lambda s, i: s[:i] + s[i + 1:])):
    try:
        build()
    except ValueError as exc:
        print(exc)
    else:
        print("built")
"""


def test_d_squared_check_refuses_broken_face_sums(capsys):
    exec(_MUTANTS, {})
    want = "d.d != 0 at basis element (0, 1, 2)\n" * 2
    assert capsys.readouterr().out == want
    src = Path(chains.__file__).resolve().parents[1]
    optimized = subprocess.run(
        [sys.executable, "-O", "-c", _MUTANTS], capture_output=True,
        text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert optimized.stdout == want


class TestSmithNormalForm:
    def test_transforms_are_consistent(self):
        rng = random.Random(3)
        for trial in range(20):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            D, U, V = smith_normal_form(M)
            # D = U M V
            UM = [[sum(U[i][k] * M[k][j] for k in range(m)) for j in range(n)]
                  for i in range(m)]
            UMV = [[sum(UM[i][k] * V[k][j] for k in range(n)) for j in range(n)]
                   for i in range(m)]
            assert UMV == D
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert D[i][j] == 0
            diag = [D[i][i] for i in range(min(m, n)) if D[i][i]]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            # invariant factors agree with the naive oracle
            assert [abs(d) for d in diag] == oracles.naive_invariant_factors(M)

    def test_solve_and_kernel(self):
        M = [[2, 0, 4], [0, 3, 6]]
        K = kernel_basis(M)
        assert len(K) == 1
        col = K[0]
        assert [sum(r * v for r, v in zip(row, col)) for row in M] == [0, 0]


def _columns(M):
    """The sparse columns {row: entry} of a dense matrix."""
    return [{i: row[j] for i, row in enumerate(M) if row[j]}
            for j in range(len(M[0]))]


sparse_matrices = st.tuples(st.integers(1, 7), st.integers(0, 7)).flatmap(
    lambda mn: st.lists(st.lists(st.one_of(st.just(0), st.integers(-3, 3)),
                                 min_size=mn[1], max_size=mn[1]),
                        min_size=mn[0], max_size=mn[0]))


@given(sparse_matrices, st.booleans())
@settings(max_examples=150, deadline=None)
def test_sparse_invariants_against_naive_oracle(M, doubled):
    # 2M has no unit entry, so all of it is left to the dense block
    if doubled:
        M = [[2 * a for a in row] for row in M]
    pivots, _, _, invariants = _present(_columns(M))
    assert [1] * len(pivots) + [abs(d) for d in invariants] == \
        oracles.naive_invariant_factors(M)
    assert len(pivots) + len(invariants) == oracles.rational_rank(M)


@given(facet_lists)
@settings(max_examples=40, deadline=None)
def test_homology_against_naive_oracle_on_random_complexes(facets):
    N = normalized_chains(build_complex(facets))
    got = [(g.betti, tuple(sorted(map(abs, g.torsion)))) for g in homology(N)]
    assert got == oracles.naive_homology(N)


def _in_boundary_lattice(C, n, z):
    """Whether z lies in the lattice spanned by the columns of d_(n+1):
    adding z as a column leaves the naive invariant factors unchanged."""
    d = C.boundary_matrix(n + 1)
    coeffs = z.as_dict()
    with_z = [row + [coeffs.get(lb, 0)] for row, lb in zip(d, C.basis[n])]
    return oracles.naive_invariant_factors(with_z) == \
        oracles.naive_invariant_factors(d)


def _check_homology_classes(C, top, rng):
    """HomologyClasses of C through degree top against the naive oracles:
    the group, class coordinates constant on z + dc and zero exactly on
    the boundary lattice, and non-cycles refused."""
    want = oracles.naive_homology(C, up_to=top)
    for n in range(top + 1):
        H = HomologyClasses(C, n)
        got = H.group()
        assert (got.betti, tuple(sorted(got.torsion))) == want[n]
        d = C.boundary_matrix(n) if n > 0 else [[0] * C.rank(n)]
        cycles = [Chain.from_dict(n, dict(zip(C.basis[n], col)))
                  for col in kernel_basis(d)]
        if not cycles:
            continue

        def combination(chains):
            out = Chain(n, ())
            for c in chains:
                out += c.scale(rng.randint(-2, 2))
            return out

        for _ in range(2):
            z = combination(cycles)
            dc = C.boundary(combination(map(C.generator,
                                            C.basis.get(n + 1, ()))))
            assert H.class_coords(z + dc) == H.class_coords(z)
            for y in (z, dc, z.scale(2) + dc):
                assert (not any(H.class_coords(y))) == \
                    _in_boundary_lattice(C, n, y)
        if n > 0:
            chain = combination(map(C.generator, C.basis[n]))
            if not C.boundary(chain).is_zero():
                with pytest.raises(ValueError):
                    H.class_coords(chain)


@given(facet_lists, st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_homology_classes_against_naive_oracle(facets, unnormalized, rng):
    # unnormalized chains truncated at degree 3 have exact homology through
    # degree 2
    X = build_complex(facets)
    if unnormalized:
        _check_homology_classes(unnormalized_chains(adjoin(X), 3), 2, rng)
    else:
        C = normalized_chains(X)
        _check_homology_classes(C, C.top_degree, rng)


@pytest.mark.parametrize("unnormalized", [False, True])
def test_homology_classes_with_torsion(unnormalized):
    # H_1(RP^2) = Z/2 puts a torsion coordinate in degree 1
    rng = random.Random(13)
    if unnormalized:
        _check_homology_classes(unnormalized_chains(adjoin(rp2()), 3), 2, rng)
    else:
        _check_homology_classes(normalized_chains(rp2()), 2, rng)


def _cycle_lattice_check(C, n, gens):
    """(rank, index) of span(B_n, gens) in its saturation, from the dense
    [d_(n+1) | gens] through the Fraction rank and the naive invariant
    factors: it equals the oracle kernel basis's exactly when gens, with
    the boundaries, span every n-cycle."""
    cols = [g.as_dict() for g in gens]
    M = [row + [c.get(lb, 0) for c in cols]
         for row, lb in zip(C.boundary_matrix(n + 1), C.basis.get(n, ()))]
    if not (M and M[0]):
        return 0, 1
    index = 1
    for f in oracles.naive_invariant_factors(M):
        index *= f
    return oracles.rational_rank(M), index


def _check_generators(C, top):
    """The generators of HomologyClasses are cycles and, with B_n, span
    the same lattice as the oracle's Z-basis of every n-cycle."""
    for n in range(top + 1):
        H = HomologyClasses(C, n)
        gens = H.generators()
        assert all(C.boundary(z).is_zero() for z in gens)
        assert _cycle_lattice_check(C, n, gens) == \
            _cycle_lattice_check(C, n, oracles.kernel_generators(H))


@given(facet_lists, st.booleans())
@settings(max_examples=40, deadline=None)
def test_homology_generators_against_kernel_oracle(facets, unnormalized):
    X = build_complex(facets)
    if unnormalized:
        _check_generators(unnormalized_chains(adjoin(X), 3), 2)
    else:
        C = normalized_chains(X)
        _check_generators(C, C.top_degree)


@pytest.mark.parametrize("unnormalized", [False, True])
@pytest.mark.parametrize("X", [circle(), rp2()], ids=["circle", "rp2"])
def test_dropping_a_generator_fails_the_lattice_check(X, unnormalized):
    C = (unnormalized_chains(adjoin(X), 3) if unnormalized
         else normalized_chains(X))
    dropped = 0
    for n in range(3):
        H = HomologyClasses(C, n)
        gens = H.generators()
        want = _cycle_lattice_check(C, n, oracles.kernel_generators(H))
        assert _cycle_lattice_check(C, n, gens) == want
        for i in range(len(gens)):
            assert _cycle_lattice_check(C, n, gens[:i] + gens[i + 1:]) != want
            dropped += 1
    assert dropped


def _count_eliminations(monkeypatch):
    """A list that gains one entry per call of chains._eliminate."""
    calls = []
    eliminate = chains._eliminate

    def counted(columns):
        calls.append(1)
        return eliminate(columns)

    monkeypatch.setattr(chains, "_eliminate", counted)
    return calls


def test_homology_generators_are_computed_once(monkeypatch):
    # homology and HomologyClasses in every degree read one cleared pass,
    # one elimination each of d_1 and d_2 of N(RP^2); generators() adds one
    # elimination, of d_n's rows off the pivots, on its first call only
    calls = _count_eliminations(monkeypatch)
    N = normalized_chains(rp2())
    assert [(g.betti, g.torsion) for g in homology(N)] == \
        [(1, ()), (0, (2,)), (0, ())]
    classes = [HomologyClasses(N, n) for n in range(3)]
    assert len(calls) == 2
    for n, H in enumerate(classes):
        first = H.generators()
        assert H.generators() is first and len(calls) == 3 + n
        assert all(N.boundary(z).is_zero() for z in first)


def _check_cleared_groups(C):
    """The groups read off C's cleared pass, through homology and through
    HomologyClasses, equal the full-column reference in every degree, also
    when homology stops below or reads past the top degree."""
    for up_to in (C.top_degree, C.top_degree - 1, C.top_degree + 1):
        want = oracles.full_column_homology(C, up_to)
        assert homology(C, up_to) == want
        assert [HomologyClasses(C, n).group()
                for n in range(up_to + 1)] == want
    assert homology(C) == oracles.full_column_homology(C)


def test_cleared_groups_against_full_columns_on_the_corpus(full_corpus,
                                                           projective_spaces):
    for X in full_corpus + [projective_spaces[3]]:
        _check_cleared_groups(normalized_chains(X))
        _check_cleared_groups(unnormalized_chains(adjoin(X), 3))


@given(facet_lists, st.booleans())
@settings(max_examples=60, deadline=None)
def test_cleared_groups_against_full_columns(facets, unnormalized):
    X = build_complex(facets)
    _check_cleared_groups(unnormalized_chains(adjoin(X), 3)
                          if unnormalized else normalized_chains(X))


class TestHomology:
    def test_circle(self):
        h = homology(normalized_chains(circle()))
        assert [(g.betti, g.torsion) for g in h] == [(1, ()), (1, ())]

    def test_rp2(self):
        h = homology(normalized_chains(rp2()))
        assert [(g.betti, g.torsion) for g in h] == [(1, ()), (0, (2,)), (0, ())]

    def test_solid_simplex_is_acyclic(self):
        h = homology(normalized_chains(standard_simplex(3)))
        assert [(g.betti, g.torsion) for g in h] == [(1, ())] + [(0, ())] * 3

    def test_sphere(self):
        h = homology(normalized_chains(sphere()))
        assert [(g.betti, g.torsion) for g in h] == [(1, ()), (0, ()), (1, ())]

    def test_against_naive_oracle(self, full_corpus):
        for X in full_corpus[:30]:
            N = normalized_chains(X)
            got = [(g.betti, tuple(sorted(map(abs, g.torsion))))
                   for g in homology(N)]
            assert got == oracles.naive_homology(N)

    def test_basis_order_invariance(self):
        # homology must not depend on the order of basis labels
        X = rp2()
        N = normalized_chains(X)
        shuffled = {n: tuple(reversed(labels)) for n, labels in N.basis.items()}
        from cupi.chains import FreeChainComplex
        N2 = FreeChainComplex(shuffled, N.diff)
        assert [(g.betti, g.torsion) for g in homology(N)] == \
               [(g.betti, g.torsion) for g in homology(N2)]

    def test_builds_no_dense_matrix(self, monkeypatch):
        def refuse(self, n):
            raise AssertionError("homology built a dense boundary matrix")
        monkeypatch.setattr(FreeChainComplex, "boundary_matrix", refuse)
        h = homology(normalized_chains(rp2()))
        assert [(g.betti, g.torsion) for g in h] == [(1, ()), (0, (2,)), (0, ())]

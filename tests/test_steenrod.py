"""The bar resolution, cup-i diagonals, structure contracts, and squares."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cupi.chains import TensorChain, homology, normalized_chains
from cupi.simplicial import VertexMap, build_complex, standard_simplex
from cupi import chains, cli, steenrod
from cupi.steenrod import (BarElement, Mod2Cohomology, SteenrodStructure,
                           aw_diagonal, bar_augmentation, bar_boundary,
                           eta, higher_diagonal, naturality_holds,
                           steenrod_square_matrix, steenrod_squares,
                           structure_for, verify_structure)

import oracles
from conftest import circle, named_corpus, rp2, sphere
from test_chains import facet_lists


@pytest.fixture
def cold_tables(monkeypatch):
    """No table level built and no verdict recorded: the next ensure_tables
    builds from level 0."""
    monkeypatch.setattr(steenrod, "_TABLES",
                        {(0, 0): steenrod._TABLES[(0, 0)]})
    monkeypatch.setattr(steenrod, "_LEVEL_BUILT", 0)
    monkeypatch.setattr(steenrod, "_CHECKED", {})


class TestBarResolution:
    def test_e0_is_a_cycle(self):
        assert bar_boundary(BarElement.e(0)).is_zero()

    def test_e1_boundary(self):
        # convention: d e_n = (1 + (-1)^n T) e_{n-1}, so d e_1 = (1 - T) e_0
        got = bar_boundary(BarElement.e(1))
        assert got == BarElement.e(0) - BarElement.te(0)

    def test_boundary_squares_to_zero(self):
        for n in range(2, 6):
            assert bar_boundary(bar_boundary(BarElement.e(n))).is_zero()
            assert bar_boundary(bar_boundary(BarElement.te(n))).is_zero()

    def test_equivariance(self):
        for n in range(1, 5):
            b = BarElement.e(n)
            assert bar_boundary(b.t_action()) == bar_boundary(b).t_action()

    def test_augmentation(self):
        assert bar_augmentation(BarElement.e(0)) == 1
        assert bar_augmentation(bar_boundary(BarElement.e(1))) == 0

    def test_t_squared_is_identity(self):
        b = BarElement.e(3) + BarElement.te(3).scale(5)
        assert b.t_action().t_action() == b


class TestEta:
    def test_table(self):
        assert [eta(k) for k in (1, 2, 3, 4)] == [-1, -1, 1, 1]

    def test_period_four(self):
        for k in range(1, 20):
            assert eta(k) == eta(k + 4)
            assert eta(k) in (1, -1)


class TestAwDiagonal:
    def test_vertex(self):
        assert aw_diagonal((0,)).as_dict() == {((0,), (0,)): 1}

    def test_edge(self):
        assert aw_diagonal((0, 1)).as_dict() == \
            {((0,), (0, 1)): 1, ((0, 1), (1,)): 1}

    def test_triangle(self):
        assert aw_diagonal((0, 1, 2)).as_dict() == \
            {((0,), (0, 1, 2)): 1, ((0, 1), (1, 2)): 1, ((0, 1, 2), (2,)): 1}

    def test_coassociative(self):
        # (AW (x) 1) AW = (1 (x) AW) AW on simplex generators
        for s in [(0, 1), (0, 1, 2), (1, 3, 5, 7)]:
            left = {}
            right = {}
            for (a, b), c in aw_diagonal(s).coeffs:
                for (a1, a2), c2 in aw_diagonal(a).coeffs:
                    left[(a1, a2, b)] = left.get((a1, a2, b), 0) + c * c2
                for (b1, b2), c2 in aw_diagonal(b).coeffs:
                    right[(a, b1, b2)] = right.get((a, b1, b2), 0) + c * c2
            assert left == right

    def test_natural_under_relabeling(self):
        # positional: applying to a relabeled simplex relabels the output
        d = aw_diagonal((10, 20, 35)).as_dict()
        assert ((10, 20), (20, 35)) in d


# the faces of the standard 4-simplex, as increasing position tuples
faces_of_delta4 = st.sets(st.integers(0, 4), min_size=1).map(
    lambda v: tuple(sorted(v)))


class TestHigherDiagonal:
    def test_vertex_delta1_vanishes(self):
        assert higher_diagonal(1, (0,)).is_zero()

    def test_top_identities_with_eta(self):
        assert higher_diagonal(1, (0, 1)).as_dict() == {((0, 1), (0, 1)): -1}
        assert higher_diagonal(2, (0, 1, 2)).as_dict() == \
            {((0, 1, 2), (0, 1, 2)): -1}
        assert higher_diagonal(3, (0, 1, 2, 3)).as_dict() == \
            {((0, 1, 2, 3), (0, 1, 2, 3)): 1}

    def test_vanishes_above_dimension(self):
        for s in [(0,), (0, 1), (0, 1, 2)]:
            k = len(s) - 1
            for i in range(k + 1, k + 4):
                assert higher_diagonal(i, s).is_zero()

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            higher_diagonal(-1, (0, 1))

    def test_unit_coefficients(self):
        for k in range(6):
            for i in range(k + 1):
                table = higher_diagonal(i, tuple(range(k + 1))).as_dict()
                assert set(map(abs, table.values())) <= {1}

    def test_integrity_checks_raise_with_level(self, cold_tables,
                                               monkeypatch):
        # a broken contraction must stop a fresh build, also under python -O
        contract = steenrod._mask_contract
        monkeypatch.setattr(steenrod, "_mask_contract", lambda t, w: {
            key: 2 * c for key, c in contract(t, w).items()})
        with pytest.raises(RuntimeError, match=r"\(1, 1\)"):
            steenrod.ensure_tables(1)

    @pytest.mark.parametrize("tamper, message", [
        ("table", r"rhs not a cycle at \(1, 2\)"),
        ("top", r"top identity at \(2, 2\)"),
        ("extra", r"chain-map law at \(1, 2\)"),
        ("table4", r"rhs not a cycle at \(2, 4\)"),
        ("top33", r"top identity at \(3, 3\)"),
    ])
    def test_each_build_check_raises_with_its_level(
            self, cold_tables, monkeypatch, tamper, message):
        # the levels below k build as they should; then level 2 reads a
        # doubled (1, 1) table, or a contraction that doubles its (A, A)
        # terms or adds the term (0, 1) (x) (0); level 4 reads a doubled
        # (2, 3) table; level 3 reads a contraction that adds
        # (0, 1, 2, 3) (x) (0) where it gives (0, 1, 2, 3) (x) (0, 1, 2, 3),
        # which on level 3 only (3, 3) does
        k = {"table4": 4, "top33": 3}.get(tamper, 2)
        steenrod.ensure_tables(k - 1)
        contract = steenrod._mask_contract
        if tamper == "table":
            steenrod._TABLES[(1, 1)] = steenrod._TABLES[(1, 1)].scale(2)
        elif tamper == "table4":
            steenrod._TABLES[(2, 3)] = steenrod._TABLES[(2, 3)].scale(2)
        elif tamper == "top":
            monkeypatch.setattr(steenrod, "_mask_contract", lambda t, w: {
                key: 2 * c if key >> w == key & ((1 << w) - 1) else c
                for key, c in contract(t, w).items()})
        elif tamper == "top33":
            def add_at_top(t, w):
                out = contract(t, w)
                return {**out, 0b1111 << w | 0b1: 1} \
                    if 0b1111 << w | 0b1111 in out else out
            monkeypatch.setattr(steenrod, "_mask_contract", add_at_top)
        else:
            monkeypatch.setattr(steenrod, "_mask_contract",
                                lambda t, w: {**contract(t, w),
                                              0b11 << w | 0b1: 1})
        with pytest.raises(RuntimeError, match=message):
            steenrod.ensure_tables(k)

    def test_a_failed_build_leaves_its_level_unbuilt(self, cold_tables,
                                                     monkeypatch):
        contract = steenrod._mask_contract
        with monkeypatch.context() as m:
            m.setattr(steenrod, "_mask_contract",
                      lambda t, w: {key: 2 * c
                                    for key, c in contract(t, w).items()})
            with pytest.raises(RuntimeError, match=r"top identity"):
                steenrod.ensure_tables(1)
        assert steenrod._LEVEL_BUILT == 0
        assert set(steenrod._TABLES) == {(0, 0)}
        steenrod.ensure_tables(1)
        assert higher_diagonal(1, (0, 1)).as_dict() == {((0, 1), (0, 1)): -1}

    def test_each_entry_takes_one_boundary(self, cold_tables, monkeypatch):
        # the law dD = R is checked on each entry (i, k), 1 <= i <= k <= 9,
        # as stored, and top (x) top takes a boundary once per top
        # correction, before (k - 1, k) is checked; no right side's boundary
        # is taken, since dR = ddD = 0 is implied
        calls = {}
        boundary = steenrod._mask_boundary

        def spy(t, w):
            # a copy: the table as it was when its boundary was taken
            calls.setdefault(steenrod._LEVEL_BUILT + 1, []).append(dict(t))
            return boundary(t, w)

        monkeypatch.setattr(steenrod, "_mask_boundary", spy)
        steenrod.ensure_tables(9)
        assert sorted(calls) == list(range(1, 10))
        assert sum(map(len, calls.values())) == 45 + 4
        corrected = 0
        for k, tables in calls.items():
            w = k + 1
            top = (1 << w) - 1
            assert tables[-1] == {top << w | top: eta(k)}
            fixed = len(tables) == k + 1
            if fixed:
                corrected += 1
                assert tables.pop(-3) == {top << w | top: 1}
            assert len(tables) == k
            # each checked table is the stored entry (i, k)
            assert tables == [steenrod._masks(steenrod._TABLES[(i, k)], w)
                              for i in range(1, k + 1)]
            # contracted: h sets bit 0 of every A, except in (k - 1, k)
            # after the top correction adds mu d(top (x) top)
            if fixed:
                del tables[k - 2]
            assert all(key >> w & 1 for t in tables for key in t)
        assert corrected == 4

    def test_tables_equal_the_tensor_chain_build(self, cold_tables):
        steenrod.ensure_tables(9)
        want = oracles.build_tables(9)
        assert set(steenrod._TABLES) == set(want)
        for key, table in want.items():
            got = steenrod._TABLES[key]
            assert (type(got), got.degree, got.coeffs) == \
                (type(table), table.degree, table.coeffs), key

    @given(st.dictionaries(st.tuples(st.integers(1, 1023),
                                     st.integers(1, 1023)),
                           st.integers(-9, 9).filter(bool), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_mask_boundary_squares_to_zero(self, t):
        # d.d = 0, which makes the law dD = R imply that R is a cycle
        t = {a << 10 | b: c for (a, b), c in t.items()}
        assert steenrod._mask_boundary(steenrod._mask_boundary(t, 10),
                                       10) == {}

    @given(st.dictionaries(st.tuples(faces_of_delta4, faces_of_delta4),
                           st.integers(-9, 9).filter(bool), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_mask_boundary_is_the_tensor_boundary(self, terms):
        # the build's d on packed (A, B) keys against the oracle's on
        # vertex tuples, one degree at a time
        for degree in {len(a) + len(b) - 2 for a, b in terms}:
            t = TensorChain.from_dict(degree, {
                key: c for key, c in terms.items()
                if len(key[0]) + len(key[1]) - 2 == degree})
            assert steenrod._mask_boundary(steenrod._masks(t, 5), 5) == \
                steenrod._masks(oracles.tensor_boundary(t), 5)

    def test_mask_rhs_is_the_tensor_rhs(self):
        # the build's right side on packed keys, with the face d_j taken on
        # both fields at once, against the oracle's on vertex tuples: at
        # i = k the face is {}, and below it B may hold position k - 1,
        # the top bit of its field at level k - 1; the tables read are the
        # oracle's, so a broken kernel fails here and not in its build
        tables = oracles.build_tables(7)
        for k in range(1, 8):
            w = k + 1
            for i in range(1, k + 1):
                face = steenrod._masks(tables[(i, k - 1)], w) if i < k else {}
                got = steenrod._mask_rhs(
                    steenrod._masks(tables[(i - 1, k)], w), face, i, k)
                assert got == steenrod._masks(
                    oracles._rhs(tables, i, k), w), (i, k)

    def test_mod2_solver_certifies_contract(self):
        # independent GF(2) route: an equivariant extension with the pinned
        # top classes exists, and the integral tables satisfy the same mod-2
        # equations re-derived from scratch
        KMAX = 5
        solved = oracles.solve_mod2_structure(KMAX)
        for k in range(KMAX + 1):
            top = tuple(range(k + 1))
            assert solved[(k, k)] == {(top, top)}
        assert oracles.mod2_law_holds(
            lambda i, k: {p for p, c in higher_diagonal(i, tuple(range(k + 1)))
                          .coeffs if c % 2}, KMAX)
        assert oracles.mod2_law_holds(lambda i, k: solved[(i, k)], KMAX)


class TestXi:
    def test_e0_is_aw(self, corpus):
        for X in corpus.values():
            S = structure_for(X)
            for s in X.all_simplices():
                gen = S.chains.generator(s)
                assert S.xi(BarElement.e(0), gen) == aw_diagonal(s)

    def test_te0_on_edge_is_swapped_aw(self):
        # frozen from the oracle: apply the Koszul swap to the AW output
        X = standard_simplex(1)
        S = structure_for(X)
        got = S.xi(BarElement.te(0), S.chains.generator((0, 1)))
        assert got == aw_diagonal((0, 1)).swap()
        assert got.as_dict() == {((0, 1), (0,)): 1, ((1,), (0, 1)): 1}

    def test_chain_map_law_on_delta3(self):
        # d xi(e_j (x) s) = xi(d e_j (x) s) + (-1)^j xi(e_j (x) ds)
        # for all j + deg(s) <= 6
        X = standard_simplex(3)
        S = structure_for(X)
        for s in X.all_simplices():
            k = len(s) - 1
            gen = S.chains.generator(s)
            for j in range(0, 7 - k):
                lhs = oracles.tensor_boundary(S.xi(BarElement.e(j), gen))
                rhs = S.xi(bar_boundary(BarElement.e(j)), gen)
                ds = S.chains.boundary(gen)
                if not ds.is_zero():
                    rhs = rhs + S.xi(BarElement.e(j), ds).scale((-1) ** j)
                assert lhs == rhs, (j, s)

    def test_bilinearity(self):
        X = circle()
        S = structure_for(X)
        c1 = S.chains.generator((0, 1))
        c2 = S.chains.generator((1, 2))
        b = BarElement.e(1)
        assert S.xi(b, c1 + c2) == S.xi(b, c1) + S.xi(b, c2)
        assert S.xi(b.scale(3), c1) == S.xi(b, c1).scale(3)

    def test_rejects_inhomogeneous_bar(self):
        X = circle()
        S = structure_for(X)
        with pytest.raises(ValueError):
            S.xi(BarElement.e(0) + BarElement.e(1), S.chains.generator((0, 1)))
        # every bar element has one degree: a mixed one is never formed
        with pytest.raises(ValueError):
            BarElement.e(0) + BarElement.e(1)
        with pytest.raises(ValueError):
            BarElement.from_dict(1, {(0, 1): 1, (1, 0): 2})


class TestVerifyStructure:
    def test_reference_structure_passes(self):
        S = SteenrodStructure(standard_simplex(3), max_i=6)
        assert verify_structure(S).ok

    def test_passes_on_corpus(self, corpus):
        for X in corpus.values():
            assert verify_structure(structure_for(X)).ok
            for max_i in sorted({0, 1, X.dim, 2 * X.dim + 3}):
                got = verify_structure(SteenrodStructure(X, max_i=max_i))
                want = oracles.scan_structure(SteenrodStructure(X, max_i=max_i))
                assert report_of(got) == want == (True, "", ())

    def test_large_max_i_stores_nothing_above_dimension(self):
        S = SteenrodStructure(build_complex([(0,)]), max_i=10 ** 5)
        assert verify_structure(S).ok
        assert all(i <= len(s) - 1 for i, s in S.table)
        with pytest.raises(KeyError):
            S.delta(0, (1,))
        with pytest.raises(ValueError):
            S.delta(-1, (0,))

    def test_equivariance_holds_by_construction_on_any_table(
            self, monkeypatch):
        # verify_structure does not read C2: xi defines the T e_i part as
        # the swap of the e_i part, so C2 holds even where the universal
        # tables (1, k) are replaced by ones that are not swap-symmetric
        X = standard_simplex(2)
        steenrod.ensure_tables(X.dim)
        for k in range(1, X.dim + 1):
            top = tuple(range(k + 1))
            table = TensorChain.from_dict(k + 1, {(top, top[:2]): 1})
            assert table.swap() != table
            monkeypatch.setitem(steenrod._TABLES, (1, k), table)
        bad = SteenrodStructure(X)
        for s in X.all_simplices():
            gen = bad.chains.generator(s)
            for i in range(bad.max_i + 1):
                assert (bad.xi(BarElement.te(i), gen)
                        == bad.xi(BarElement.e(i), gen).swap())
        report = verify_structure(bad)
        assert not report.ok
        assert report_of(report) == oracles.scan_structure(
            SteenrodStructure(X))

    @pytest.mark.parametrize("max_i", [0, 1, 2, None, 10 ** 6])
    def test_on_demand_check_reads_each_universal_table_once(
            self, monkeypatch, max_i):
        # the 2-skeleton of Delta^6: 7, 21 and 35 simplices per dimension,
        # checked by reading tables (i, k), 1 <= i <= min(k, max_i), once
        X = build_complex(list(itertools.combinations(range(7), 3)))
        steenrod.ensure_tables(X.dim)
        reads = []

        class Spy(dict):
            def __getitem__(self, key):
                reads.append(key)
                return dict.__getitem__(self, key)

        monkeypatch.setattr(steenrod, "_TABLES", Spy(steenrod._TABLES))
        S = SteenrodStructure(X, max_i=max_i)
        assert verify_structure(S).ok
        assert sorted(reads) == [(i, k) for i in range(1, X.dim + 1)
                                 for k in range(i, X.dim + 1) if i <= S.max_i]

    def test_xi_check_and_dump_build_no_chains(self, monkeypatch, tmp_path,
                                               capsys, projective_spaces):
        calls = []
        real = chains.normalized_chains

        def recorded(X, *args, **kwargs):
            calls.append(X.f_vector())
            return real(X, *args, **kwargs)

        for module in (chains, steenrod, cli):
            monkeypatch.setattr(module, "normalized_chains", recorded)
        # the RP^4 dump at --max-i 1 only, to keep it short
        for name, X, dump in [("rp4", projective_spaces[4], ["--max-i", "1"]),
                              ("d6", standard_simplex(6), [])]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                {"facets": [list(s) for s in X.simplices_of_dim(X.dim)]}))
            assert cli.main(["xi-check", str(path)]) == 0
            assert cli.main(["xi-dump", str(path), *dump]) == 0
        capsys.readouterr()
        assert calls == []

    @pytest.mark.parametrize("key", [(1, 2), (1, 3), (2, 3)])
    def test_negated_universal_table_fails_c1_through_the_scan(
            self, monkeypatch, key):
        X = standard_simplex(3)
        steenrod.ensure_tables(X.dim)
        monkeypatch.setitem(steenrod._TABLES, key,
                            steenrod._TABLES[key].scale(-1))
        report = verify_structure(SteenrodStructure(X))
        assert not report.ok
        assert report.check == "C1"
        assert report_of(report) == oracles.scan_structure(SteenrodStructure(X))


def report_of(report):
    return report.ok, report.check, report.witness


complexes = st.one_of(st.sampled_from(list(named_corpus().values())),
                      facet_lists.map(build_complex))


@given(complexes, st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_verify_structure_agrees_with_the_scan(X, max_i):
    got = verify_structure(SteenrodStructure(X, max_i=max_i))
    assert report_of(got) == oracles.scan_structure(
        SteenrodStructure(X, max_i=max_i))


def tampered(table, kind):
    """A universal table with its sign flipped, its first term dropped or
    its coefficients doubled."""
    if kind == "flip":
        return table.scale(-1)
    if kind == "drop":
        return TensorChain(table.degree, table.coeffs[1:])
    return table.scale(2)


@given(complexes.filter(lambda X: X.dim >= 1),
       st.sampled_from(["flip", "drop", "double"]), st.data())
@settings(max_examples=80, deadline=None)
def test_on_demand_check_agrees_with_the_scan_on_tampered_universal_tables(
        X, kind, data):
    """One universal table (i, k) changed, 1 <= i <= k <= dim X: its sign
    flipped, its first term dropped or doubled.  The on-demand check reads
    one k-simplex; the oracle reads every one."""
    steenrod.ensure_tables(X.dim)
    key = data.draw(st.sampled_from(
        [(i, k) for k in range(1, X.dim + 1) for i in range(1, k + 1)]))
    max_i = data.draw(st.sampled_from([key[1] - 1, key[1], 2 * X.dim + 1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(steenrod._TABLES, key,
                   tampered(steenrod._TABLES[key], kind))
        got = verify_structure(SteenrodStructure(X, max_i=max_i))
        want = oracles.scan_structure(SteenrodStructure(X, max_i=max_i))
    assert report_of(got) == want


@pytest.mark.parametrize("kind", ["flip", "double"])
@pytest.mark.parametrize("k", range(4))
def test_stored_level_zero_is_never_read(monkeypatch, kind, k):
    # Delta_0 is Alexander-Whitney, so a changed _TABLES[(0, k)] is read
    # by neither check
    X = standard_simplex(3)
    steenrod.ensure_tables(X.dim)
    monkeypatch.setitem(steenrod._TABLES, (0, k),
                        tampered(steenrod._TABLES[(0, k)], kind))
    got = verify_structure(SteenrodStructure(X))
    assert report_of(got) == oracles.scan_structure(SteenrodStructure(X))
    assert got.ok


@pytest.mark.parametrize("kind", ["flip", "drop", "double"])
@pytest.mark.parametrize("key", [(i, k) for k in range(1, 6)
                                 for i in range(1, k + 1)])
def test_every_tampered_universal_table_of_delta5_agrees_with_the_scan(
        monkeypatch, kind, key):
    X = standard_simplex(5)
    steenrod.ensure_tables(X.dim)
    monkeypatch.setitem(steenrod._TABLES, key,
                        tampered(steenrod._TABLES[key], kind))
    for max_i in (key[1] - 1, key[1], 11):
        got = verify_structure(SteenrodStructure(X, max_i=max_i))
        want = oracles.scan_structure(SteenrodStructure(X, max_i=max_i))
        assert report_of(got) == want
        assert got.ok == (max_i < key[0])



def spy_on_the_law(monkeypatch):
    """The (i, k) of every _mask_rhs call, and the count of _mask_boundary
    calls: the two halves of deciding C1."""
    derived, boundaries = [], []
    rhs, boundary = steenrod._mask_rhs, steenrod._mask_boundary

    def spy_rhs(prev, face, i, k):
        derived.append((i, k))
        return rhs(prev, face, i, k)

    def spy_boundary(t, w):
        boundaries.append(1)
        return boundary(t, w)

    monkeypatch.setattr(steenrod, "_mask_rhs", spy_rhs)
    monkeypatch.setattr(steenrod, "_mask_boundary", spy_boundary)
    return derived, boundaries


def test_xi_check_decides_each_entry_once(cold_tables, monkeypatch, tmp_path,
                                          capsys):
    # the build decides the law on the 45 entries (i, k), 1 <= i <= k <= 9,
    # with a second right side and a boundary of top (x) top for each of
    # the 4 top corrections; the check reuses every verdict
    derived, boundaries = spy_on_the_law(monkeypatch)
    path = tmp_path / "delta9.json"
    path.write_text(json.dumps({"facets": [list(range(10))]}))
    assert cli.main(["xi-check", str(path)]) == 0
    assert capsys.readouterr().out == '{"status":"pass"}\n'
    assert (len(derived), len(boundaries)) == (45 + 4, 45 + 4)
    derived.clear()
    boundaries.clear()
    assert verify_structure(SteenrodStructure(standard_simplex(9))).ok
    assert (derived, boundaries) == ([], [])


ENTRIES_OF_DELTA5 = [(i, k) for k in range(1, 6) for i in range(1, k + 1)]


def test_an_entry_equal_to_the_built_one_is_not_re_derived(cold_tables,
                                                            monkeypatch):
    # new TensorChains with new coefficient tuples of the same content
    steenrod.ensure_tables(5)
    for key in ENTRIES_OF_DELTA5:
        t = steenrod._TABLES[key]
        monkeypatch.setitem(steenrod._TABLES, key,
                            TensorChain(t.degree, tuple(list(t.coeffs))))
        assert steenrod._TABLES[key] is not t
    derived, boundaries = spy_on_the_law(monkeypatch)
    assert verify_structure(SteenrodStructure(standard_simplex(5))).ok
    assert (derived, boundaries) == ([], [])


@pytest.mark.parametrize("kind", ["flip", "drop", "double"])
def test_a_changed_entry_re_derives_c1_where_it_is_read(cold_tables,
                                                        monkeypatch, kind):
    # C1 at (i, k) reads (i - 1, k), (i, k) and (i, k - 1), so a change to
    # (i, k) re-derives the law at (i, k), (i + 1, k) and (i, k + 1) only
    X = standard_simplex(5)
    steenrod.ensure_tables(X.dim)
    derived, _ = spy_on_the_law(monkeypatch)
    for key in ENTRIES_OF_DELTA5:
        with monkeypatch.context() as mp:
            mp.setitem(steenrod._TABLES, key,
                       tampered(steenrod._TABLES[key], kind))
            derived.clear()
            tables = steenrod._TABLES
            for i, k in ENTRIES_OF_DELTA5:
                steenrod._c1_holds(i, k, (
                    tables[(i - 1, k)] if i > 1 else None, tables[(i, k)],
                    tables[(i, k - 1)] if i < k else None))
            i, k = key
            assert sorted(derived) == sorted(
                {key, (i + 1, k), (i, k + 1)} & set(ENTRIES_OF_DELTA5))
            got = verify_structure(SteenrodStructure(X))
            assert report_of(got) == oracles.scan_structure(
                SteenrodStructure(X))
            assert not got.ok


class TestNaturality:
    def test_simplex_inclusions(self):
        X = standard_simplex(1)
        Y = standard_simplex(3)
        vm = VertexMap.from_dict(X, Y, {0: 1, 1: 3})
        assert naturality_holds(vm)

    def test_random_injections_into_corpus(self, corpus):
        rng = random.Random(5)
        for X in [corpus["circle"], corpus["rp2"], corpus["annulus"]]:
            for tau in X.simplices_of_dim(X.dim)[:3]:
                src = standard_simplex(len(tau) - 1)
                vm = VertexMap.from_dict(src, X,
                                         {i: v for i, v in enumerate(tau)})
                assert naturality_holds(vm)

    def test_cross_complex_injection(self):
        X = circle()
        Y = rp2()
        vm = VertexMap.from_dict(X, Y, {0: 1, 1: 2, 2: 4})  # (1,2,4) spans
        assert naturality_holds(vm)

    def test_rejects_non_injection(self):
        X = standard_simplex(1)
        vm = VertexMap.from_dict(X, standard_simplex(0), {0: 0, 1: 0})
        with pytest.raises(ValueError):
            naturality_holds(vm)


class TestSteenrodSquares:
    def test_sq0_identity_on_circle_and_sphere(self):
        for X in (circle(), sphere()):
            coh = Mod2Cohomology(X)
            for j in range(X.dim + 1):
                m = steenrod_square_matrix(X, 0, j, coh=coh)
                n = coh.betti(j)
                assert m == [[1 if r == c else 0 for c in range(n)]
                             for r in range(n)]

    def test_sq1_nonzero_on_rp2(self):
        X = rp2()
        m = steenrod_squares(X, 1)
        assert m[1] == [[1]]

    def test_sq1_rp2_against_direct_cup_oracle(self):
        X = rp2()
        coh = Mod2Cohomology(X)
        rep = coh.representatives(1)[0]
        u = coh.cochain_from_bits(rep, 1)
        square = oracles.direct_cup_square(X, u)
        assert not oracles.mod2_cocycle_in_coboundaries(X, square)

    def test_instability(self, corpus):
        # Sq^i = 0 on H^j for i > j
        for X in corpus.values():
            coh = Mod2Cohomology(X)
            for j in range(X.dim + 1):
                for i in range(j + 1, X.dim + 2):
                    m = steenrod_square_matrix(X, i, j, coh=coh)
                    assert all(all(v == 0 for v in row) for row in m)

    def test_sq_well_defined_on_classes(self):
        # perturbing the representative by a coboundary keeps the class
        X = rp2()
        coh = Mod2Cohomology(X)
        S = structure_for(X)
        rep = coh.representatives(1)[0]
        rng = random.Random(13)
        base = None
        for trial in range(5):
            pert = 0
            for i in range(len(coh.simplices[0])):
                if rng.random() < 0.5:
                    pert ^= oracles.mod2_coboundary(X, 1 << i, 0)
            u = coh.cochain_from_bits(rep ^ pert, 1)
            out = 0
            for idx, s in enumerate(coh.simplices[2]):
                if oracles.cup_product_value(S, 0, u, u, s, 1, 1):
                    out |= 1 << idx
            coords = coh.class_coords(out, 2)
            if base is None:
                base = coords
            assert coords == base

    def test_class_coords_refuses_a_non_cocycle(self):
        # the unit cochain of an edge of RP^2 is no cocycle: the edge lies
        # on two triangles
        X = rp2()
        assert oracles.mod2_coboundary(X, 1, 1)
        with pytest.raises(ValueError, match="^cochain is not a cocycle$"):
            Mod2Cohomology(X).class_coords(1, 1)

    def test_mod2_betti_of_rp2(self):
        coh = Mod2Cohomology(rp2())
        assert [coh.betti(j) for j in range(3)] == [1, 1, 1]


def binomial_squares(n, i):
    """Sq^i on H^j(RP^n; Z/2), each one-dimensional on a^j:
    Sq^i(a^j) = C(j, i) a^(i+j) (Steenrod-Epstein)."""
    return {j: [[math.comb(j, i) % 2]] if i + j <= n else []
            for j in range(n + 1)}


class TestProjectiveSpaces:
    def test_f_vectors(self, projective_spaces):
        assert {n: X.f_vector() for n, X in projective_spaces.items()} == {
            2: (13, 36, 24),
            3: (40, 232, 384, 192),
            4: (121, 1320, 4080, 4800, 1920)}

    def test_homology_of_rp4(self, projective_spaces):
        got = [(g.betti, g.torsion)
               for g in homology(normalized_chains(projective_spaces[4]))]
        assert got == [(1, ()), (0, (2,)), (0, ()), (0, (2,)), (0, ())]

    def test_squares_are_binomials(self, projective_spaces):
        # Sq^0 is the identity, C(j, 0) = 1; Sq^2(a^2) = a^4 on RP^4 is the
        # only nonzero Sq^2 of any test complex
        for n, X in projective_spaces.items():
            for i in (0, 1, 2):
                assert steenrod_squares(X, i) == binomial_squares(n, i), (n, i)

    def test_squares_agree_with_the_scan_oracle(self, projective_spaces):
        # the corpus has no class in degree 3; RP^3 adds Sq^1(a^2) = 0
        for n in (2, 3):
            X = projective_spaces[n]
            for i in range(4):
                assert steenrod_squares(X, i) == oracles.scan_squares(X, i)

    def test_squares_agree_with_the_closed_form_mod_2(self, projective_spaces,
                                                      corpus):
        # Steenrod's closed form is another cup-i coproduct: over Z it is not
        # the pinned tables, mod 2 it gives the same squares, for every i
        closed = oracles.ClosedFormDiagonal()
        top = tuple(range(4))
        assert len(closed.delta(1, top).coeffs) == 6
        assert len(higher_diagonal(1, top).coeffs) == 9
        for X in [projective_spaces[2], projective_spaces[3],
                  *corpus.values()]:
            for i in range(X.dim + 2):
                assert steenrod_squares(X, i) == \
                    oracles.scan_squares(X, i, closed), i

    def test_squares_read_no_entry_of_the_structure(self, monkeypatch,
                                                     projective_spaces,
                                                     fresh_structures):
        def refuse(self, i, simplex):
            raise AssertionError(f"delta({i}, {simplex}) read")

        monkeypatch.setattr(SteenrodStructure, "delta", refuse)
        for n in (2, 4):
            X = projective_spaces[n]
            for i in (1, 2):
                assert steenrod_squares(X, i) == binomial_squares(n, i)
            assert structure_for(X).table == {}

    def test_squares_build_neither_chains_nor_structure(self, monkeypatch,
                                                        projective_spaces):
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def recorded(X, *args, **kwargs):
                calls.append((name, X.f_vector()))
                return real(X, *args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        spy(chains, "normalized_chains")
        spy(steenrod, "normalized_chains")
        spy(steenrod, "structure_for")
        for n in (2, 4):
            X = projective_spaces[n]
            for i in (1, 2):
                assert steenrod_squares(X, i) == binomial_squares(n, i)
        assert calls == []


rows_and_queries = st.tuples(
    st.lists(st.tuples(st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 8)),
             max_size=24),
    st.lists(st.tuples(st.integers(0, 2 ** 13 - 1), st.integers(0, 2 ** 8)),
             max_size=8))


@given(rows_and_queries)
@settings(max_examples=80, deadline=None)
def test_pivot_walk_reduce_agrees_with_the_scan(data):
    # rows of at most 12 bits, so a long list has dependent rows
    rows, queries = data
    fast, scan = steenrod._Echelon(), oracles.ScanEchelon()
    for vec, tag in rows:
        got = fast.reduce(vec, tag)
        assert got == scan.reduce(vec, tag)
        if got[0]:
            fast.add(*got)
            scan.add(*got)
    assert list(fast.rows()) == scan.rows()
    for vec, tag in queries:
        assert fast.reduce(vec, tag) == scan.reduce(vec, tag)


@given(st.one_of(st.sampled_from(sorted(named_corpus().items())),
                 facet_lists.map(lambda f: (f, build_complex(f)))))
@settings(max_examples=60, deadline=None)
def test_squares_agree_with_the_scan_oracle(case):
    _, X = case
    for i in range(4):
        assert steenrod_squares(X, i) == oracles.scan_squares(X, i)


@given(facet_lists, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_mod2_cohomology_against_integral_oracle(facets, rng):
    X = build_complex(facets)
    coh = Mod2Cohomology(X)
    H = oracles.naive_homology(normalized_chains(X))

    def even_torsion(j):
        return sum(1 for d in H[j][1] if d % 2 == 0) if j >= 0 else 0

    for j in range(X.dim + 1):
        # universal coefficients: Hom(H_j, Z/2) + Ext(H_(j-1), Z/2)
        assert coh.betti(j) == H[j][0] + even_torsion(j) + even_torsion(j - 1)
        reps = coh.representatives(j)
        n_below = len(coh.simplices.get(j - 1, ()))
        for r, rep in enumerate(reps):
            unit = tuple(int(c == r) for c in range(len(reps)))
            assert coh.class_coords(rep, j) == unit
            c = rng.getrandbits(n_below) if n_below else 0
            cob = oracles.mod2_coboundary(X, c, j - 1)
            assert coh.class_coords(rep ^ cob, j) == unit


def test_structure_cache_is_a_bounded_lru(fresh_structures):
    # an entry is cached when structure_for hands back the same object
    size = steenrod._STRUCTURE_CACHE_SIZE
    paths = [build_complex([(0, k)]) for k in range(1, size + 4)]
    structures = [structure_for(X) for X in paths]
    assert structure_for.cache_info().maxsize == size
    assert structure_for.cache_info().currsize == size
    assert structure_for(paths[-1]) is structures[-1]
    # a hit makes an entry the most recent: the next miss evicts another
    oldest = paths[-size]
    assert structure_for(oldest) is structures[-size]
    structure_for(build_complex([(0, size + 4)]))
    assert structure_for(oldest) is structures[-size]
    assert structure_for(paths[-size + 1]) is not structures[-size + 1]
    # the first entries were evicted when the cache was full
    assert structure_for(paths[0]) is not structures[0]

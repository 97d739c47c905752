"""Acceptance suite: one test per criterion, exact (integer) tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail lines and timings.  Corpus: standard simplices through dimension 3,
the circle and 2-sphere boundaries, the 6-vertex projective plane, a 7-vertex
annulus, and 50 seeded random face-closed complexes on at most 6 vertices.
"""

import itertools
import random
import time
from math import comb

from cupi.chains import (GradedMap, chain_map_from_vertex_map, homology,
                         kernel_basis, normalized_chains, unnormalized_chains)
from cupi.simplicial import VertexMap, adjoin, build_complex, standard_simplex
from cupi.steenrod import (BarElement, Mod2Cohomology, eta, higher_diagonal,
                           naturality_holds, steenrod_square_matrix,
                           structure_for, verify_structure)
from cupi.reconstruct import (enumerate_morphisms, homology_square,
                              is_steenrod_morphism, lift_morphism,
                              verify_reconstruction, xi_iterate)

import oracles
from conftest import named_corpus, random_complexes


def _report(name, ok, t0, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({time.time() - t0:.1f}s) {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_xi_contract_suite(full_corpus):
    """C1-C5 pass exactly (integer equality) on the full corpus through
    total degree 2*dim, within 60 seconds."""
    t0 = time.time()
    for X in full_corpus:
        report = verify_structure(structure_for(X))
        if not report.ok:
            _report("1 (xi contracts)", False, t0,
                    f"{report.check} at {report.witness}")
    # eta table pinned values
    assert [eta(k) for k in (1, 2, 3, 4)] == [-1, -1, 1, 1]
    # cross-complex naturality samples
    corpus = named_corpus()
    inj_cases = [
        VertexMap.from_dict(standard_simplex(1), corpus["rp2"], {0: 1, 1: 2}),
        VertexMap.from_dict(standard_simplex(2), corpus["rp2"],
                            {0: 1, 1: 2, 2: 4}),
        VertexMap.from_dict(corpus["circle"], corpus["delta3"],
                            {0: 0, 1: 1, 2: 3}),
        VertexMap.from_dict(standard_simplex(2), corpus["annulus"],
                            {0: 0, 1: 3, 2: 4}),
    ]
    for vm in inj_cases:
        if not naturality_holds(vm):
            _report("1 (xi contracts)", False, t0, "naturality failed")
    elapsed = time.time() - t0
    _report("1 (xi contracts)", elapsed < 60, t0,
            f"{len(full_corpus)} complexes, runtime budget 60s")


def test_criterion_2_simplex_image_and_separation(full_corpus):
    """xi_iterate(simplex, K=3) = (c, cxc, cxcxc) exactly; no combination of
    two or more simplices (coefficients in -2..2) shares a single-simplex
    image; within 5 minutes."""
    t0 = time.time()
    for X in full_corpus:
        S = structure_for(X)
        for s in X.all_simplices():
            c1, c2, c3 = xi_iterate(S, S.chains.generator(s), K=3)
            ok = (c1.as_dict() == {(s,): 1}
                  and c2.as_dict() == {(s, s): 1}
                  and c3.as_dict() == {(s, s, s): 1})
            if not ok:
                _report("2 (simplex image)", False, t0, f"at {s}")
    nontrivial = [c for c in range(-2, 3) if c]
    checked = 0
    for X in full_corpus:
        S = structure_for(X)
        for d in range(X.dim + 1):
            simplices = X.simplices_of_dim(d)
            if not 2 <= len(simplices) <= 15:
                continue
            singles = {}
            for s in simplices:
                singles[s] = xi_iterate(S, S.chains.generator(s), K=3)[1:]
            single_set = set(singles.values())
            supports = list(itertools.combinations(simplices, 2)) + \
                list(itertools.combinations(simplices, 3))
            for support in supports:
                for coeffs in itertools.product(nontrivial, repeat=len(support)):
                    c = S.chains.generator(support[0]).scale(coeffs[0])
                    for s, a in zip(support[1:], coeffs[1:]):
                        c = c + S.chains.generator(s).scale(a)
                    checked += 1
                    if xi_iterate(S, c, K=3)[1:] in single_set:
                        _report("2 (separation)", False, t0,
                                f"combination {support} x {coeffs}")
            # scaled single simplices must separate as well
            for s in simplices:
                for a in (-2, -1, 2):
                    scaled = S.chains.generator(s).scale(a)
                    if xi_iterate(S, scaled, K=3)[1:] in single_set:
                        _report("2 (separation)", False, t0, f"{a} * {s}")
    elapsed = time.time() - t0
    _report("2 (simplex image + separation)", elapsed < 300, t0,
            f"{checked} combinations, runtime budget 300s")


def test_criterion_3_rigidity():
    """Brute search (coefficients bounded by 2) over chain self-maps of
    simplex chains that are top-degree isomorphisms and satisfy the
    structure square finds exactly the identity for n in {1, 2}; guided
    search confirms n = 3."""
    t0 = time.time()
    for n in (1, 2):
        X = standard_simplex(n)
        top = tuple(range(n + 1))
        found = oracles.brute_morphisms(n, X)
        isos = [m for m in found
                if m.chain_map.apply_label(top).get(top, 0) in (1, -1)]
        ident = GradedMap.identity(structure_for(X).chains)
        ok = len(isos) == 1 and isos[0].chain_map.equals(ident)
        if not ok:
            _report("3 (rigidity)", False, t0, f"brute n={n}: {len(isos)} isos")
    X = standard_simplex(3)
    top = (0, 1, 2, 3)
    isos = [m for m in enumerate_morphisms(3, X)
            if m.chain_map.apply_label(top).get(top, 0) in (1, -1)]
    ident = GradedMap.identity(structure_for(X).chains)
    ok = len(isos) == 1 and isos[0].chain_map.equals(ident)
    _report("3 (rigidity)", ok, t0, "identity is the only top-degree iso")


def test_criterion_4_geometric_realization():
    """For n <= 2 and small targets, brute-enumerated morphisms coincide
    exactly with the simplicial-map-induced ones, and the counts equal the
    degeneracy-completion counts."""
    t0 = time.time()
    targets = {
        "boundary-of-triangle": build_complex([(0, 1), (0, 2), (1, 2)]),
        "solid-triangle": standard_simplex(2),
        "three-cycle": build_complex([(0, 2), (0, 5), (2, 5)]),
    }
    def key(f):
        return tuple(sorted((lb, tuple(sorted(img.items())))
                            for lb, img in f.comps.items()))
    for name, X in targets.items():
        for n in (0, 1, 2):
            guided = enumerate_morphisms(n, X)
            brute = oracles.brute_morphisms(n, X)
            want = sum(comb(n, k) * len(X.simplices_of_dim(k))
                       for k in range(X.dim + 1))
            ok = ({key(m.chain_map) for m in guided} ==
                  {key(m.chain_map) for m in brute}
                  and len(guided) == want == len(brute))
            if not ok:
                _report("4 (geometric realization)", False, t0,
                        f"{name} n={n}: guided {len(guided)}, "
                        f"brute {len(brute)}, want {want}")
            # every brute morphism carries a vertex-map certificate
            if any(m.vertex_map is None for m in brute):
                _report("4 (geometric realization)", False, t0,
                        f"{name} n={n}: morphism without inducing map")
    _report("4 (geometric realization)", True, t0,
            "brute = guided = induced, counts match")


def test_criterion_5_reconstruction(corpus):
    """verify_reconstruction through dimension dim+2 on every named complex;
    the canonical inclusion lands exactly on the nondegenerate part."""
    t0 = time.time()
    for name, X in corpus.items():
        report = verify_reconstruction(X, X.dim + 2)
        if not report.ok:
            _report("5 (reconstruction)", False, t0, f"{name}: {report.detail}")
    _report("5 (reconstruction)", True, t0,
            f"{len(corpus)} complexes through dim+2")


def _random_relabeling(rng, X):
    ids = sorted(rng.sample(range(100), len(X.vertices)))
    return {v: ids[i] for i, v in enumerate(X.vertices)}


def test_criterion_6_lifting(corpus):
    """20 random order-preserving relabelings: verified, lifted, recovered;
    homology squares commute for i <= 2 with inclusion isomorphisms.
    20 random structure-breaking chain isomorphisms: rejected with
    re-checkable witnesses."""
    t0 = time.time()
    rng = random.Random(996)
    names = [n for n in corpus if corpus[n].dim >= 1]
    for trial in range(20):
        X = corpus[names[trial % len(names)]]
        relabel = _random_relabeling(rng, X)
        Y = build_complex([tuple(sorted(relabel[v] for v in f))
                           for f in X.all_simplices()])
        vm = VertexMap.from_dict(X, Y, relabel)
        g = chain_map_from_vertex_map(vm, structure_for(X).chains,
                                      structure_for(Y).chains)
        verdict = is_steenrod_morphism(g, X, Y)
        if not verdict.ok:
            _report("6 (lifting)", False, t0, f"relabeling rejected: {relabel}")
        lift = lift_morphism(g, verdict, X, Y)
        if lift.vertex_map.as_dict() != relabel or \
                lift.recovered_bijection() is None:
            _report("6 (lifting)", False, t0, f"recovery failed: {relabel}")
        hs = homology_square(g, verdict, X, Y, 2)
        if not hs.ok:
            _report("6 (lifting)", False, t0, f"homology square: {hs.detail}")

    for trial, (X, f) in enumerate(_structure_breaking_isos(corpus, rng)):
        if not f.is_chain_map():
            _report("6 (lifting)", False, t0,
                    f"perturbation {trial} is not a chain map")
        verdict = is_steenrod_morphism(f, X, X)
        if verdict.status != "not_morphism":
            _report("6 (lifting)", False, t0,
                    f"structure-breaking iso accepted (trial {trial})")
        w = verdict.witness
        if w[0] == "augmentation":
            (v,) = w[1]
            ok = sum(f.apply_label((v,)).values()) != 1
        else:
            j, s = w
            left = higher_diagonal(j, s).map_factors(f.apply_label)
            right = structure_for(X).xi(
                BarElement.e(j), f.apply(structure_for(X).chains.generator(s)))
            ok = left != right
        if not ok:
            _report("6 (lifting)", False, t0, f"witness does not re-check: {w}")
    _report("6 (lifting)", True, t0, "20 recovered, 20 rejected with witnesses")


def _signed_permutation_map(X, perm):
    """Chain iso of a vertex permutation preserving the simplices of X, with
    reordering signs; not a structure morphism unless order-preserving."""
    N = structure_for(X).chains
    comps = {}
    for s in X.all_simplices():
        image = [perm[v] for v in s]
        sign = 1
        for i in range(len(image)):
            for j in range(i + 1, len(image)):
                if image[i] > image[j]:
                    image[i], image[j] = image[j], image[i]
                    sign = -sign
        comps[s] = {tuple(image): sign}
    return GradedMap(N, N, 0, comps)


def _top_cycle_adder(X, t, which):
    """Unipotent chain iso adding t times a top-degree cycle to one basis
    image (nothing sits above the top degree, so the chain law is free)."""
    N = structure_for(X).chains
    top = X.dim
    K = kernel_basis(N.boundary_matrix(top))
    if not K:
        return None
    col = K[which % len(K)]
    labels = N.basis[top]
    z = {lb: c for lb, c in zip(labels, col) if c}
    comps = {lb: {lb: 1} for lb in N.degree_of}
    s0 = labels[which % len(labels)]
    img = {k: t * v for k, v in z.items()}
    img[s0] = img.get(s0, 0) + 1
    comps[s0] = img
    return GradedMap(N, N, 0, comps)


def _structure_breaking_isos(corpus, rng):
    """Twenty chain isomorphisms that perturb signs or bases and must all be
    rejected by the morphism decision procedure."""
    circle, sphere = corpus["circle"], corpus["sphere"]
    cases = []
    for t, which in ((1, 0), (-1, 1), (2, 2), (-2, 0)):
        cases.append((circle, _top_cycle_adder(circle, t, which)))
    for t, which in ((1, 0), (-1, 1), (2, 2)):
        cases.append((sphere, _top_cycle_adder(sphere, t, which)))
    circle_perms = [(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    for perm in circle_perms:
        cases.append((circle, _signed_permutation_map(circle, perm)))
    d2 = corpus["delta2"]
    for perm in [(1, 0, 2), (0, 2, 1), (2, 0, 1)]:
        cases.append((d2, _signed_permutation_map(d2, perm)))
    d3 = corpus["delta3"]
    for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (0, 1, 3, 2)]:
        cases.append((d3, _signed_permutation_map(d3, perm)))
    for name in ("circle", "rp2"):
        X = corpus[name]
        N = structure_for(X).chains
        cases.append((X, GradedMap(N, N, 0,
                                   {lb: {lb: -1} for lb in N.degree_of})))
    assert len(cases) == 20 and all(f is not None for _, f in cases)
    return cases


def test_criterion_7_steenrod_squares(corpus):
    """Sq^0 = id everywhere; Sq^1 nonzero on degree-1 cohomology of the
    projective plane (cross-checked against the direct cochain oracle);
    Sq^i = 0 above the degree."""
    t0 = time.time()
    for name, X in corpus.items():
        coh = Mod2Cohomology(X)
        for j in range(X.dim + 1):
            m = steenrod_square_matrix(X, 0, j, coh=coh)
            n = coh.betti(j)
            if m != [[1 if r == c else 0 for c in range(n)] for r in range(n)]:
                _report("7 (squares)", False, t0, f"Sq^0 not id on {name} H^{j}")
            for i in range(j + 1, X.dim + 2):
                m = steenrod_square_matrix(X, i, j, coh=coh)
                if any(any(row) for row in m):
                    _report("7 (squares)", False, t0,
                            f"instability fails on {name} Sq^{i} H^{j}")
    rp2 = corpus["rp2"]
    if steenrod_square_matrix(rp2, 1, 1) != [[1]]:
        _report("7 (squares)", False, t0, "Sq^1 zero on H^1(RP2)")
    coh = Mod2Cohomology(rp2)
    u = coh.cochain_from_bits(coh.representatives(1)[0], 1)
    square = oracles.direct_cup_square(rp2, u)
    if oracles.mod2_cocycle_in_coboundaries(rp2, square):
        _report("7 (squares)", False, t0, "direct cochain oracle disagrees")
    _report("7 (squares)", True, t0, "Sq0=id, Sq1(RP2)!=0, instability")


def test_criterion_8_degeneracy_suite(corpus, full_corpus):
    """Simplex counts after freely adding degeneracies follow the binomial
    formula through dimension 5; taking the core undoes the completion;
    normalized and truncated unnormalized chains have the same homology."""
    t0 = time.time()
    for X in full_corpus:
        Y = oracles.delta_core(X)
        dX = adjoin(Y)
        for m in range(6):
            want = sum(comb(m, n) * len(X.simplices_of_dim(n))
                       for n in range(X.dim + 1))
            if len(dX.simplices_of_dim(m)) != want:
                _report("8 (degeneracy suite)", False, t0, f"count at m={m}")
        if not oracles.core_of(dX).same_as(Y):
            _report("8 (degeneracy suite)", False, t0, "core . adjoin != id")
        if not oracles.core_comparison_is_iso(dX, min(X.dim + 1, 3)):
            _report("8 (degeneracy suite)", False, t0, "comparison not iso")
    for name, X in corpus.items():
        up_to = X.dim + 2
        C = unnormalized_chains(adjoin(X.to_delta()), up_to)
        hn = homology(normalized_chains(X))
        hc = homology(C, up_to=up_to - 1)
        for i in range(up_to):
            want = (hn[i].betti, hn[i].torsion) if i < len(hn) else (0, ())
            if (hc[i].betti, hc[i].torsion) != want:
                _report("8 (degeneracy suite)", False, t0,
                        f"{name}: homology differs in degree {i}")
    _report("8 (degeneracy suite)", True, t0,
            "counts, core identity, homology agreement")

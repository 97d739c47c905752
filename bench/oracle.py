"""Expected answers for the benchmark's inputs, computed without importing cupi.

Every expectation comes from a closed form or from this file's own
combinatorics, so a wrong answer from the program cannot also be the
expectation:

- face closure and f-vectors by subset enumeration;
- homology of k-skeleta of simplices: Z in degree 0, H_k free of rank
  C(n-1, k+1), zero in between;
- iterated barycentric subdivisions of RP^2: (Z, Z/2, 0), with Sq^1 the
  identity H^1 -> H^2 and zero on H^0;
- morphisms out of the standard n-simplex: one per (order-preserving
  surjection [n] ->> [k], k-simplex), Σ_k C(n,k)·f_k of them;
- relabelings: the certificate and the isomorphism are the relabeling;
- structure-breaking maps: the first failing check and its witness;
- cup-i dumps: Alexander-Whitney at i = 0, eta_k s (x) s at i = k, zero
  above, positional naturality, and the mod-2 homotopy law
  d Delta_i + Delta_i d = (1 + T) Delta_(i-1).
"""

from __future__ import annotations

import itertools
import json
from math import comb


def canonical(obj):
    """The CLI's documented stdout: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def face_closure(facets):
    """{dim: sorted simplices} of the complex the facets span."""
    seen = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            seen.update(itertools.combinations(tuple(f), r))
    top = max(len(s) for s in seen)
    return {k: sorted(s for s in seen if len(s) == k + 1) for k in range(top)}


def f_vector(facets):
    closure = face_closure(facets)
    return [len(closure[k]) for k in sorted(closure)]


def boundary_shapes(fv):
    """Shape (rows, cols) of each boundary matrix d_n : C_n -> C_(n-1)."""
    return [[fv[n - 1], fv[n]] for n in range(1, len(fv))]


def eta(k):
    return (-1) ** (k * (k + 1) // 2)


# ---------------------------------------------------------------------------
# homology and squares
# ---------------------------------------------------------------------------

def _groups(rows):
    return {"H": [{"degree": d, "betti": b, "torsion": t}
                  for d, (b, t) in enumerate(rows)]}


def skeleton_homology(n, k):
    rows = [(1, [])] + [(0, [])] * (k - 1) + [(comb(n - 1, k + 1), [])]
    return _groups(rows[:k + 1])


def rp2_homology():
    return _groups([(1, []), (0, [2]), (0, [])])


def _zero_squares(i, betti):
    """Sq^i matrices when every square vanishes: betti[j+i] x betti[j] zeros."""
    top = len(betti) - 1
    out = {}
    for j in range(top + 1):
        rows = betti[j + i] if j + i <= top else 0
        out[str(j)] = [[0] * betti[j] for _ in range(rows)]
    return {"i": i, "matrices": out}


def skeleton_squares(n, k):
    """Sq^1 on a k-skeleton: the cohomology sits in degrees 0 and k, and
    Sq^1 vanishes on H^0, so every matrix is zero."""
    return _zero_squares(1, [1] + [0] * (k - 1) + [comb(n - 1, k + 1)])


def rp2_squares():
    return {"i": 1, "matrices": {"0": [[0]], "1": [[1]], "2": []}}


# ---------------------------------------------------------------------------
# morphisms, reconstruction, relabelings
# ---------------------------------------------------------------------------

def surjections(n, k):
    """Order-preserving surjections {0..n} ->> {0..k} as value tuples."""
    if not 0 <= k <= n:
        return []
    out = []
    for steps in itertools.combinations(range(1, n + 1), k):
        values, v = [], 0
        for p in range(n + 1):
            if p in steps:
                v += 1
            values.append(v)
        out.append(tuple(values))
    return out


def morphism_count(n, fv):
    return sum(comb(n, k) * fv[k] for k in range(min(n, len(fv) - 1) + 1))


def enumerate_answer(n, facets):
    closure = face_closure(facets)
    entries = []
    for k in range(min(n, max(closure)) + 1):
        for tau in closure[k]:
            for theta in surjections(n, k):
                entries.append((tau, theta))
    entries.sort()
    return {"n": n, "count": len(entries),
            "morphisms": [{"surjection": list(theta), "simplex": list(tau),
                           "vertex_map": {str(i): tau[theta[i]]
                                          for i in range(n + 1)}}
                          for tau, theta in entries]}


def reconstruct_answer(up_to, fv):
    counts = [[n, morphism_count(n, fv), morphism_count(n, fv)]
              for n in range(up_to + 1)]
    return {"status": "pass", "detail": "isomorphism verified",
            "counts": counts}


def _mapping_json(mapping):
    return {str(v): w for v, w in sorted(mapping.items())}


def morphism_answer(mapping):
    return {"status": "morphism", "witness": None,
            "certificate": _mapping_json(mapping)}


def lift_answer(mapping):
    return {"status": "lifted", "vertex_map": _mapping_json(mapping),
            "isomorphism": _mapping_json(mapping)}


def homology_square_answer():
    return {"status": "pass", "detail": "square commutes"}


def not_morphism_answer(witness):
    return {"status": "not_morphism", "witness": witness, "certificate": None}


def perturbed_witness(triangle):
    """Adding a 2-cycle z to f(t) breaks the e_0 square at t first.

    Every other simplex keeps its relabeled image, so their squares hold.
    At t, (f x f)AW(t) gains only (first vertex) x z + z x (last vertex),
    while AW(f t) gains AW(z), whose edge x edge terms nothing cancels.
    """
    return [0, list(triangle)]


def negation_witness(vertices):
    """-id preserves d but sends each vertex to augmentation -1; the first
    vertex checked is the smallest."""
    return ["augmentation", [min(vertices)]]


def structure_pass():
    return {"status": "pass"}


# ---------------------------------------------------------------------------
# cup-i dumps
# ---------------------------------------------------------------------------

def _faces(s):
    return [s[:p] + s[p + 1:] for p in range(len(s))] if len(s) > 1 else []


def _mod2(terms):
    out = set()
    for key in terms:
        out ^= {key}
    return out


def _tensor_boundary_mod2(support):
    acc = []
    for a, b in support:
        acc += [(fa, b) for fa in _faces(a)]
        acc += [(a, fb) for fb in _faces(b)]
    return _mod2(acc)


def check_xi_dump(text, facets, max_i):
    """None when the dump is a valid cup-i table for the complex, else the
    first problem found."""
    closure = face_closure(facets)
    order = [s for k in sorted(closure) for s in closure[k]]
    lines = text.splitlines()
    if len(lines) != len(order) * (max_i + 1):
        return f"expected {len(order) * (max_i + 1)} lines, got {len(lines)}"
    table = {}
    patterns = {}
    it = iter(lines)
    for s in order:
        k = len(s) - 1
        pos = {v: p for p, v in enumerate(s)}
        for i in range(max_i + 1):
            rec = json.loads(next(it))
            if rec["i"] != i or tuple(rec["simplex"]) != s:
                return f"line for {(i, s)} out of order"
            value = {(tuple(a), tuple(b)): c for c, a, b in rec["value"]}
            if len(value) != len(rec["value"]) or 0 in value.values():
                return f"repeated or zero terms at {(i, s)}"
            if i == 0 and value != {(s[:p + 1], s[p:]): 1 for p in range(k + 1)}:
                return f"Delta_0 is not Alexander-Whitney at {s}"
            if i == k and value != {(s, s): eta(k)}:
                return f"top identity fails at {s}"
            if i > k and value:
                return f"Delta_{i} does not vanish on {s}"
            shape = sorted((tuple(pos[v] for v in a), tuple(pos[v] for v in b), c)
                           for (a, b), c in value.items())
            if patterns.setdefault((i, k), shape) != shape:
                return f"Delta_{i} is not natural at {s}"
            table[(i, s)] = set(value)
    for s in order:
        for i in range(max_i + 1):
            lhs = _tensor_boundary_mod2(table[(i, s)])
            rhs = []
            for face in _faces(s):
                rhs += table[(i, face)]
            if i:
                rhs += table[(i - 1, s)]
                rhs += [(b, a) for a, b in table[(i - 1, s)]]
            if lhs != _mod2(rhs):
                return f"mod-2 homotopy law fails at {(i, s)}"
    return None

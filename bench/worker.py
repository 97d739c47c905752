"""Traced worker: one fresh process per CLI command, probe or ladder step.

Usage (from a workload's work directory):

    python worker.py SRC cli ARGV...          # one `cupi` command, traced
    python worker.py SRC probe SPEC.json      # direct calls into each layer
    python worker.py SRC ladder OP FILE [ARG] # one step of the growth ladder

SRC is the directory that holds the `cupi` package.  The worker wraps the
public calls named in SPANS, so each call becomes a span with its duration,
the part of it spent in other spans, and the sizes of its slowest call.
Spans stay in memory; the worker prints them as one JSON object on exit,
together with the command's own stdout and exit code.  A fresh process per
command keeps the diagonal tables and the structure cache as cold as they
are for a user of the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _fv(X):
    return {"f_vector": list(X.f_vector())}


def _ranks(C):
    return [C.rank(n) for n in range(C.top_degree + 1)]


def _shape(M):
    return [len(M), len(M[0]) if M else 0]


# span name, module, attribute (Class.method for methods), sizes(args, result)
SPANS = [
    ("io.load_complex", "io", "load_complex", lambda a, r: _fv(r)),
    ("io.load_chain_map", "io", "load_chain_map",
     lambda a, r: {"components": len(r.comps)}),
    ("chains.normalized_chains", "chains", "normalized_chains",
     lambda a, r: {"ranks": _ranks(r)}),
    ("chains.homology", "chains", "homology",
     lambda a, r: {"ranks": _ranks(a[0])}),
    ("chains.snf", "chains", "smith_normal_form",
     lambda a, r: {"shape": _shape(a[0])}),
    ("chains.chain_law", "chains", "GradedMap.first_commutator_witness",
     lambda a, r: {"components": len(a[0].comps)}),
    ("chains.induced_map", "chains", "chain_map_from_vertex_map",
     lambda a, r: {"source_vertices": len(a[0].source.vertices)}),
    ("chains.homology_classes", "chains", "HomologyClasses.__init__",
     lambda a, r: {"degree": a[2], "rank": a[1].rank(a[2])}),
    ("steenrod.mod2_cohomology", "steenrod", "Mod2Cohomology.__init__",
     lambda a, r: _fv(a[1])),
    ("steenrod.square_matrix", "steenrod", "steenrod_square_matrix",
     lambda a, r: {"i": a[1], "j": a[2], "shape": _shape(r)}),
    ("steenrod.verify_structure", "steenrod", "verify_structure",
     lambda a, r: dict(_fv(a[0].complex), max_i=a[0].max_i)),
    ("steenrod.structure_for", "steenrod", "structure_for",
     lambda a, r: _fv(a[0])),
    ("reconstruct.enumerate", "reconstruct", "enumerate_morphisms",
     lambda a, r: {"n": a[0], "found": len(r)}),
    ("reconstruct.verify_reconstruction", "reconstruct",
     "verify_reconstruction",
     lambda a, r: dict(_fv(a[0]), up_to=a[1])),
    ("reconstruct.is_morphism", "reconstruct", "is_steenrod_morphism",
     lambda a, r: _fv(a[1])),
    ("reconstruct.lift", "reconstruct", "lift_morphism",
     lambda a, r: {"vertices": len(a[2].vertices)}),
    ("reconstruct.homology_square", "reconstruct", "homology_square",
     lambda a, r: dict(_fv(a[2]), i_max=a[4])),
]


class Tracer:
    """Per-name span totals: calls, time, self time, slowest call's sizes."""

    def __init__(self):
        self.stats = {}
        self.stack = []          # child time accumulated per open span
        self.outer_s = 0.0       # time inside any span
        self.morphisms_found = 0

    def record(self, name, dt, child, sizes_fn):
        st = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "slowest_s": -1.0,
                                          "sizes": {}})
        st["calls"] += 1
        st["total_s"] += dt
        st["self_s"] += dt - child
        if dt > st["slowest_s"]:
            st["slowest_s"] = dt
            st["sizes"] = sizes_fn()
        if self.stack:
            self.stack[-1] += dt
        else:
            self.outer_s += dt

    @contextlib.contextmanager
    def span(self, name, sizes_fn=dict):
        self.stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.record(name, dt, self.stack.pop(), sizes_fn)

    def wrap(self, name, fn, sizes):
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self.stack.pop()
            if name == "reconstruct.enumerate":
                self.morphisms_found += len(result)
            self.record(name, dt, child, lambda: sizes(args, result))
            return result
        return traced

    def install(self):
        """Wrap every SPANS entry where it is defined and wherever another
        cupi module imported it by name."""
        import cupi.cli  # noqa: F401  (loads every module)
        mods = {k: v for k, v in sys.modules.items()
                if k == "cupi" or k.startswith("cupi.")}
        for name, mod, attr, sizes in SPANS:
            owner = mods[f"cupi.{mod}"]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                attr = meth
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, sizes)
            setattr(owner, attr, traced)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)

    def report(self):
        return {"spans": self.stats, "outer_s": self.outer_s,
                "morphisms_found": self.morphisms_found}


def run_cli(tracer, argv):
    from cupi import cli
    from cupi import steenrod
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - t0
    return {"rc": rc, "stdout": out.getvalue(), "elapsed_s": elapsed,
            "table_level": steenrod._LEVEL_BUILT}


def _table_terms(steenrod):
    return sum(len(t) for t in steenrod._TABLES.values())


def _xi_on_top(tracer, X):
    """One xi(e_1, sum of all top simplices) evaluation as a span."""
    from cupi import steenrod
    from cupi.chains import Chain
    S = steenrod.structure_for(X)
    chain = Chain.from_dict(X.dim, {s: 1 for s in X.simplices_of_dim(X.dim)})
    result = []
    with tracer.span("steenrod.xi", lambda: {"terms_in": len(chain.coeffs),
                                             "terms_out": len(result[0].coeffs)}):
        result.append(S.xi(steenrod.BarElement.e(1), chain))


def run_probe(tracer, spec):
    """Direct calls the CLI commands do not make on their own: a cold table
    build, one xi on a long chain, the degeneracy completion, and every
    layer once on a small fixed complex (the floor)."""
    from cupi import io as cio
    from cupi import chains, reconstruct, simplicial, steenrod
    out = {}
    level = spec["table_level"]
    with tracer.span("steenrod.table_build",
                     lambda: {"through_k": level,
                              "terms": _table_terms(steenrod)}):
        steenrod.ensure_tables(level)
    out["table_terms"] = _table_terms(steenrod)

    _xi_on_top(tracer, cio.load_complex(spec["xi"]))

    A = cio.load_complex(spec["adjoin"])
    top = spec["adjoin_top"]
    counts = []
    with tracer.span("simplicial.adjoin",
                     lambda: dict(_fv(A), simplices=counts)):
        df = simplicial.adjoin(A.to_delta())
        counts += [len(df.simplices_of_dim(m)) for m in range(top + 1)]

    a, b, mp = spec["floor"]
    Xa, Xb = cio.load_complex(a), cio.load_complex(b)
    f = cio.load_chain_map(mp, steenrod.structure_for(Xa).chains,
                           steenrod.structure_for(Xb).chains)
    chains.homology(chains.normalized_chains(Xa))
    steenrod.steenrod_squares(Xa, 1)
    steenrod.verify_structure(steenrod.structure_for(Xa))
    reconstruct.enumerate_morphisms(2, Xa)
    reconstruct.verify_reconstruction(Xa, 2)
    verdict = reconstruct.is_steenrod_morphism(f, Xa, Xb)
    if not verdict.ok:
        raise SystemExit(f"floor: the relabeling is not a morphism: {verdict}")
    reconstruct.lift_morphism(f, verdict, Xa, Xb)
    reconstruct.homology_square(f, verdict, Xa, Xb, 1)
    return out


def run_ladder(tracer, op, path, arg):
    """One growth-ladder step on a fresh process: homology, Sq^1, xi on the
    sum of top simplices, or verify_structure."""
    from cupi import io as cio
    from cupi import chains, steenrod
    X = cio.load_complex(path)
    if op == "homology":
        chains.homology(chains.normalized_chains(X))
    elif op == "squares":
        steenrod.steenrod_squares(X, int(arg))
    elif op == "xi":
        _xi_on_top(tracer, X)
    elif op == "verify":
        steenrod.verify_structure(steenrod.SteenrodStructure(X))
    else:
        raise SystemExit(f"unknown ladder op {op!r}")
    return {"f_vector": list(X.f_vector())}


def main(argv):
    src, mode, rest = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    tracer = Tracer()
    tracer.install()
    if mode == "cli":
        out = run_cli(tracer, rest)
    elif mode == "probe":
        with open(rest[0], encoding="utf-8") as fh:
            out = run_probe(tracer, json.load(fh))
    elif mode == "ladder":
        out = run_ladder(tracer, rest[0], rest[1], rest[2] if len(rest) > 2
                         else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out.update(tracer.report())
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line surface.

Exit codes: 0 success / verdict positive, 1 verdict negative, 2 input error,
3 internal fault (a RuntimeError: a check of the program's own work failed).
All reports are canonical JSON on stdout (byte-identical across runs for
identical inputs and flags).  Each command but `xi-dump` writes one object
through `io.write_json`, which encodes its long arrays (the boundary
triples of `chains`, the morphisms of `enumerate`), given as generators
over results already computed, a slice at a time, so every check and
refusal runs before the first byte.  `xi-dump` writes one object per line,
each by one `io.dumps` call.
"""

from __future__ import annotations

import argparse
import sys

from . import io as cio
from .chains import homology, normalized_chains
from .reconstruct import (enumerate_morphisms, homology_square,
                          is_steenrod_morphism, lift_morphism,
                          verify_reconstruction)
from .steenrod import (SteenrodStructure, higher_diagonal, structure_for,
                       steenrod_squares, verify_structure)

# xi-dump writes one line per simplex per i <= max_i: about 4 us a line
# whose entry is zero (a point at --max-i 999999: 4.0 s) and 9 us a line
# of RP^4 at the default --max-i (110 169 lines: 0.96 s), on a 2-core x86 VM.
MAX_DUMP_LINES = 1_000_000


def _emit(obj):
    cio.write_json(obj, sys.stdout.write)
    sys.stdout.write("\n")


def cmd_validate(args):
    X = cio.load_complex(args.complex)
    _emit({"ok": True, "f_vector": list(X.f_vector()), "dim": X.dim})
    return 0


def cmd_chains(args):
    X = cio.load_complex(args.complex)
    N = normalized_chains(X)

    def triples(n):
        for s in N.basis.get(n, ()):
            for face, c in sorted(N.boundary_of(s).items()):
                yield [list(face), list(s), c]

    _emit({"ranks": [N.rank(n) for n in range(N.top_degree + 1)],
           "boundaries": {str(n): triples(n)
                          for n in range(1, N.top_degree + 1)}})
    return 0


def cmd_homology(args):
    X = cio.load_complex(args.complex)
    N = normalized_chains(X)
    _emit({"H": [h.as_json() for h in homology(N)]})
    return 0


def cmd_xi_dump(args):
    X = cio.load_complex(args.complex)
    max_i = SteenrodStructure(X, max_i=args.max_i).max_i
    if sum(X.f_vector()) * (max_i + 1) > MAX_DUMP_LINES:
        raise cio.InputError(f"{args.complex}: over {MAX_DUMP_LINES} lines "
                             "to dump")
    write = sys.stdout.write
    for s in X.all_simplices():
        for i in range(max_i + 1):
            value = [[c, list(a), list(b)]
                     for (a, b), c in higher_diagonal(i, s).coeffs]
            write(cio.dumps({"i": i, "simplex": list(s), "value": value})
                  + "\n")
    return 0


def cmd_xi_check(args):
    X = cio.load_complex(args.complex)
    struct = SteenrodStructure(X, max_i=args.max_i)
    report = verify_structure(struct)
    _emit(report.as_json())
    return 0 if report.ok else 1


def cmd_squares(args):
    X = cio.load_complex(args.complex)
    sq = steenrod_squares(X, args.i)
    _emit({"i": args.i,
           "matrices": {str(j): m for j, m in sorted(sq.items())}})
    return 0


def _refusing_on(path, fn, *args):
    """fn(*args), with its refusals (ValueError) naming the file at path."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_enumerate(args):
    X = cio.load_complex(args.complex)
    morphisms = _refusing_on(args.complex, enumerate_morphisms, args.n, X)
    records = ({"surjection": list(ms.surjection), "simplex": list(ms.simplex),
                "vertex_map": {str(p): ms.simplex[t]
                               for p, t in enumerate(ms.surjection)}}
               for ms in morphisms)
    _emit({"n": args.n, "count": len(morphisms), "morphisms": records})
    return 0


def cmd_reconstruct(args):
    X = cio.load_complex(args.complex)
    up_to = args.up_to if args.up_to is not None else X.dim + 2
    report = _refusing_on(args.complex, verify_reconstruction, X, up_to)
    _emit(report.as_json())
    return 0 if report.ok else 1


def _load_map_between(args):
    X = cio.load_complex(args.source)
    Y = cio.load_complex(args.target)
    f = cio.load_chain_map(args.map, structure_for(X).chains,
                           structure_for(Y).chains)
    return X, Y, f


def cmd_is_morphism(args):
    X, Y, f = _load_map_between(args)
    verdict = is_steenrod_morphism(f, X, Y)
    _emit(verdict.as_json())
    return 0 if verdict.ok else 1


def cmd_lift(args):
    X, Y, f = _load_map_between(args)
    verdict = is_steenrod_morphism(f, X, Y)
    if not verdict.ok:
        _emit(verdict.as_json())
        return 1
    lift = lift_morphism(f, verdict, X, Y)
    bij = lift.recovered_bijection()
    _emit({"status": "lifted",
           "vertex_map": {str(k): v for k, v in lift.vertex_map.mapping},
           "isomorphism": {str(k): v for k, v in bij.mapping} if bij else None})
    return 0


def cmd_homology_square(args):
    X, Y, f = _load_map_between(args)
    verdict = is_steenrod_morphism(f, X, Y)
    if not verdict.ok:
        _emit(verdict.as_json())
        return 1
    report = homology_square(f, verdict, X, Y, args.i_max)
    _emit(report.as_json())
    return 0 if report.ok else 1


def _nonneg(text):
    """argparse type of every count, index and bound: a canonical decimal
    (exit 2 otherwise)."""
    value = cio.parse_count(text)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="cupi",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, *specs):
        sp = sub.add_parser(name)
        for spec in specs:
            flags, kw = spec
            sp.add_argument(*flags, **kw)
        sp.set_defaults(fn=fn)
        return sp

    add("validate", cmd_validate, ((["complex"], {})))
    add("chains", cmd_chains, ((["complex"], {})))
    add("homology", cmd_homology, ((["complex"], {})))
    add("xi-dump", cmd_xi_dump, ((["complex"], {})),
        ((["--max-i"], {"dest": "max_i", "type": _nonneg, "default": None})))
    add("xi-check", cmd_xi_check, ((["complex"], {})),
        ((["--max-i"], {"dest": "max_i", "type": _nonneg, "default": None})))
    add("squares", cmd_squares, ((["complex"], {})),
        ((["--i"], {"dest": "i", "type": _nonneg, "required": True})))
    add("enumerate", cmd_enumerate, ((["complex"], {})),
        ((["--n"], {"dest": "n", "type": _nonneg, "required": True})))
    add("reconstruct", cmd_reconstruct, ((["complex"], {})),
        ((["--up-to"], {"dest": "up_to", "type": _nonneg, "default": None})))
    add("is-morphism", cmd_is_morphism, ((["source"], {})), ((["target"], {})),
        ((["map"], {})))
    add("lift", cmd_lift, ((["source"], {})), ((["target"], {})),
        ((["map"], {})))
    add("homology-square", cmd_homology_square, ((["source"], {})),
        ((["target"], {})), ((["map"], {})),
        ((["--i-max"], {"dest": "i_max", "type": _nonneg, "default": 2})))
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (cio.InputError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:  # a fault of the program, not of the input
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

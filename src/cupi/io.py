"""JSON file formats for complexes and chain maps.

Complex files: {"vertices": [int, ...], "facets": [[int, ...], ...]};
"vertices" is optional (inferred from facets).  Canonical output lists
simplices sorted lexicographically by vertex list within dimension.

Chain map files: an object mapping degree strings to lists of triples
[target_label, source_label, coeff], labels being simplex vertex lists.
"""

from __future__ import annotations

import json

from .chains import GradedMap
from .simplicial import InvalidComplexError, build_complex


class InputError(ValueError):
    """Malformed input file."""


def load_complex(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(data, dict) or "facets" not in data:
        raise InputError(f"{path}: expected an object with a 'facets' list")
    facets = data["facets"]
    if not isinstance(facets, list) or \
            any(not isinstance(f, list) for f in facets):
        raise InputError(f"{path}: 'facets' must be a list of vertex lists")
    declared = data.get("vertices")
    all_facets = [tuple(f) for f in facets]
    if declared is not None:
        used = {v for f in facets for v in f}
        undeclared = used - set(declared)
        if undeclared:
            raise InputError(
                f"{path}: facets use undeclared vertices {sorted(undeclared)}")
        all_facets += [(int(v),) for v in declared]  # allows isolated vertices
    try:
        return build_complex(all_facets)
    except InvalidComplexError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_chain_map(path, source_chains, target_chains):
    """Read a degree-indexed triple list into a graded map of degree 0."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected an object of degree -> triples")
    comps = {}
    for deg_str, triples in data.items():
        try:
            degree = int(deg_str)
        except ValueError as exc:
            raise InputError(f"{path}: bad degree key {deg_str!r}") from exc
        for triple in triples:
            if len(triple) != 3:
                raise InputError(f"{path}: expected [target, source, coeff] triples")
            tgt, src, coeff = triple
            src = tuple(src)
            tgt = tuple(tgt)
            if src not in source_chains.degree_of:
                raise InputError(f"{path}: unknown source simplex {list(src)}")
            if tgt not in target_chains.degree_of:
                raise InputError(f"{path}: unknown target simplex {list(tgt)}")
            if source_chains.degree_of[src] != degree or \
                    target_chains.degree_of[tgt] != degree:
                raise InputError(
                    f"{path}: triple {triple} filed under degree {degree}")
            comps.setdefault(src, {})
            comps[src][tgt] = comps[src].get(tgt, 0) + int(coeff)
    try:
        return GradedMap(source_chains, target_chains, 0, comps)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def dumps(obj):
    """Canonical JSON: sorted keys, no trailing whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

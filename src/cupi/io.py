"""JSON file formats for complexes and chain maps.

Complex files: {"vertices": [int, ...], "facets": [[int, ...], ...]};
"vertices" is optional (inferred from facets), no other key is allowed, and
every facet has at least one vertex ({"facets": []} is the empty complex).
Canonical output lists simplices sorted lexicographically by vertex list
within dimension.

Chain map files: an object mapping degree strings ("0", "1", ...: the
canonical decimal of a non-negative int) to lists of triples
[target_label, source_label, coeff], labels being simplex vertex lists.

Vertex ids and coefficients must be JSON integers; true and false are not.
A key given twice in one object is an input error in either format.  Reader
errors are InputErrors that start with the path, and a complex file is
refused before its closure is built if its facets F sum 2^|F| - 1 > MAX_FACES.

Output is canonical JSON (`dumps`: sorted keys, no spaces); `write_json`
writes the same bytes with its generators encoded a slice at a time.
"""

from __future__ import annotations

import json
from itertools import islice
from types import GeneratorType

from .chains import GradedMap
from .simplicial import InvalidComplexError, build_complex

# Closing costs about 6 us and 160 bytes per face visited (one facet of 20
# vertices: 6.4 s, 182 MB on a 2-core x86 VM); RP^5 visits 1 451 520.
MAX_FACES = 1_500_000


class InputError(ValueError):
    """Malformed input file."""


def _is_int(v):
    return type(v) is int  # a JSON integer; true and false are not


def _is_int_list(v):
    return isinstance(v, list) and all(map(_is_int, v))


def parse_count(text):
    """The int of which text is the canonical decimal, or None if it is not
    one: " +1 ", "0_1", "01", "-1" and non-ASCII digits are refused, not
    read as 1.  Degree keys and every count the CLI takes are read so."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value >= 0 and str(value) == text else None


def _read_json(path):
    """The JSON value in a file; a key given twice in one object is refused,
    where json.load would silently keep the last one, and so is nesting too
    deep for the parser."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:  # the path is added below
                raise ValueError(f"duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, ValueError) as exc:  # bad UTF-8 and huge ints too
        raise InputError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def load_complex(path):
    data = _read_json(path)
    if not isinstance(data, dict) or "facets" not in data:
        raise InputError(f"{path}: expected an object with a 'facets' list")
    unknown = sorted(set(data) - {"facets", "vertices"})
    if unknown:
        raise InputError(f"{path}: unknown keys {unknown}: expected only "
                         "'facets' and 'vertices'")
    facets = data["facets"]
    if not isinstance(facets, list) or not all(map(_is_int_list, facets)):
        raise InputError(
            f"{path}: 'facets' must be a list of lists of integer vertex ids")
    if [] in facets:
        raise InputError(f"{path}: a facet must have at least one vertex")
    all_facets = [tuple(f) for f in facets]
    if "vertices" in data:
        declared = data["vertices"]
        if not _is_int_list(declared):
            raise InputError(
                f"{path}: 'vertices' must be a list of integer vertex ids")
        used = {v for f in facets for v in f}
        undeclared = used - set(declared)
        if undeclared:
            raise InputError(
                f"{path}: facets use undeclared vertices {sorted(undeclared)}")
        all_facets += [(v,) for v in declared]  # allows isolated vertices
    if sum(2 ** len(f) - 1 for f in all_facets) > MAX_FACES:
        raise InputError(f"{path}: over {MAX_FACES} faces to close")
    try:
        return build_complex(all_facets)
    except InvalidComplexError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_chain_map(path, source_chains, target_chains):
    """Read a degree-indexed triple list into a graded map of degree 0."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected an object of degree -> triples")
    comps = {}
    for deg_str, triples in data.items():
        degree = parse_count(deg_str)
        if degree is None:
            raise InputError(f"{path}: bad degree key {deg_str!r}: expected "
                             "a non-negative decimal integer")
        if not isinstance(triples, list):
            raise InputError(f"{path}: degree {deg_str} must map to a list")
        for triple in triples:
            if not isinstance(triple, list) or len(triple) != 3:
                raise InputError(f"{path}: expected [target, source, coeff] triples")
            tgt, src, coeff = triple
            if not (_is_int_list(tgt) and _is_int_list(src)):
                raise InputError(f"{path}: simplex labels in {triple} must be "
                                 "lists of integer vertex ids")
            if not _is_int(coeff):
                raise InputError(f"{path}: coefficient {coeff!r} in {triple} "
                                 "is not an integer")
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
            comps[src][tgt] = comps[src].get(tgt, 0) + coeff
    # both degrees of every triple are checked above, so GradedMap's own
    # degree check cannot fail here
    return GradedMap(source_chains, target_chains, 0, comps)


# the one canonical encoder: json.dumps would build a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# items of a generator that write_json encodes per dumps call: 64 boundary
# triples or morphism records are a few KB of text, and the encoder's
# transient pieces (about 20 bytes per byte of output) stay small with them
WRITE_SLICE = 64


def dumps(obj):
    """Canonical JSON: sorted keys, no trailing whitespace drift."""
    return _ENCODER.encode(obj)


def write_json(obj, write):
    """Write dumps(obj) through write, with every generator that is obj or
    a value of its dicts, at any depth of dicts, written as a JSON array
    WRITE_SLICE items at a time: so a long output is never held whole.
    Any other value is encoded by one dumps call, so a generator inside a
    list, or a value that is not JSON (a set), still raises TypeError;
    so does a key of a dict walked here that is not a str, which dumps
    would silently turn into one."""
    if isinstance(obj, dict):
        write("{")
        sep = ""
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(sep + dumps(key) + ":")
            write_json(obj[key], write)
            sep = ","
        write("}")
    elif isinstance(obj, GeneratorType):
        write("[")
        sep = ""
        while chunk := list(islice(obj, WRITE_SLICE)):
            write(sep + dumps(chunk)[1:-1])
            sep = ","
        write("]")
    else:
        write(dumps(obj))

"""Guards on the package source itself."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cupi"
TESTS = Path(__file__).resolve().parent


def test_the_package_has_no_assert_statements():
    # python -O strips assert statements; integrity checks must raise
    sources = sorted(PACKAGE.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sources
    assert found == []


def test_the_cli_imports_only_the_standard_library():
    # every command starts a fresh interpreter and pays for what
    # `import cupi.cli` loads: stdlib only, and not the dataclasses
    # machinery (which pulls in inspect, ast, dis and tokenize)
    code = ("import sys; before = set(sys.modules); import cupi.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    top = {name.partition(".")[0] for name in loaded}
    assert "cupi" in top
    assert top - {"cupi"} <= sys.stdlib_module_names
    assert not {"dataclasses", "inspect"} & top


def test_imports_stay_at_module_level():
    # one import style: each module names its imports at the top, and the
    # package __init__ imports nothing, so `import cupi` loads no submodule
    nested, in_init = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node not in tree.body:
                nested.append(f"{path.name}:{node.lineno}")
            if path.name == "__init__.py":
                in_init.append(node.lineno)
    assert nested == []
    assert in_init == []


# Named only by tests on purpose: the bar resolution's own operations, the
# checked definition of W that SteenrodStructure.xi acts on.
TEST_ONLY = {"bar_boundary", "bar_augmentation", "te", "t_action"}


def test_every_definition_is_named_outside_its_own_body():
    # a helper whose last caller went away is dead code: every function,
    # method and class of the package must be named somewhere else, in
    # src, in tests, or in the benchmark's SPANS.  A second pass sizes the
    # API to what uses it: each must be named in src, in the acceptance
    # suite or in the benchmark's SPANS, or be listed in TEST_ONLY
    root = PACKAGE.parents[1]
    defs, uses = [], defaultdict(list)  # name -> [(path, line)]
    for path in sorted(PACKAGE.glob("*.py")) + sorted(root.glob("tests/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if path.parent == PACKAGE:
                    defs.append((node.name, path, node.lineno,
                                 node.end_lineno))
            elif isinstance(node, ast.Name):
                uses[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):  # setattr targets
                uses[node.value].append((path, node.lineno))
    worker = ast.parse((root / "bench" / "worker.py").read_text())
    spans = next(node.value for node in worker.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "SPANS")
    for node in ast.walk(spans):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                uses[part].append((None, 0))

    def orphans(named_in):
        return [f"{path.name}:{lo} {name}" for name, path, lo, hi in defs
                if not (name.startswith("__") and name.endswith("__"))
                and all(not named_in(p) or (p == path and lo <= line <= hi)
                        for p, line in uses[name])]

    assert defs and orphans(lambda p: True) == []
    acceptance = root / "tests" / "test_acceptance.py"
    assert [site for site in orphans(lambda p: p in (None, acceptance)
                                     or p.parent == PACKAGE)
            if site.split()[1] not in TEST_ONLY] == []


def test_chain_is_the_one_combination_type():
    # one class holds a sparse combination's state, and its subclasses only
    # add operations: a second combination type cannot come back unseen
    classes = [node for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ClassDef)]

    def slots(node):
        """The names in the class's __slots__, or None with no __slots__."""
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__"
                    for t in stmt.targets):
                return {const.value for const in ast.walk(stmt.value)
                        if isinstance(const, ast.Constant)}
        return None

    assert [node.name for node in classes
            if "coeffs" in (slots(node) or ())] == ["Chain"]
    family, subclasses = {"Chain"}, []
    for _ in classes:  # every subclass, however deep
        subclasses = [node for node in classes
                      if {getattr(b, "id", getattr(b, "attr", None))
                          for b in node.bases} & family]
        family |= {node.name for node in subclasses}
    assert {"TensorChain", "BarElement"} <= family
    for node in subclasses:
        assert slots(node) == set(), node.name
        assert not any(isinstance(stmt, ast.FunctionDef)
                       and stmt.name == "__init__" for stmt in node.body), \
            node.name


def _call_sites(matches):
    """(module, enclosing function) of every call in the package whose
    callee node satisfies matches, in source order."""
    sites = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and matches(child.func):
                sites.append((path.name, scope))
            visit(child, path, child.name
                  if isinstance(child, ast.FunctionDef) else scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, None)
    return sites


def test_the_structure_square_is_formed_in_one_function():
    # (f (x) f) . Delta_j = xi(e_j (x) f) has one copy: the scan, the local
    # types and naturality all decide it by steenrod.square_failure
    assert _call_sites(
        lambda f: getattr(f, "attr", None) == "map_factors") == [
        ("steenrod.py", "square_failure")]


def test_the_vertex_map_is_decided_once_as_the_certificate():
    # phi is built only by the decision, as its certificate, and its scan
    # alone decides that phi is simplicial: the lift reads the certificate
    # and builds no other vertex map.  Only naturality_holds, which takes
    # a vertex map as input, checks one for simpliciality
    def builds(f):
        return "VertexMap" in (getattr(f, "id", None),
                               getattr(getattr(f, "value", None), "id", None))

    assert _call_sites(builds) == [("reconstruct.py", "is_steenrod_morphism")]
    assert _call_sites(
        lambda f: getattr(f, "attr", None) == "is_simplicial") == [
        ("steenrod.py", "naturality_holds")]


def test_the_package_has_no_delta_complex_layer():
    # an ordered complex is its own delta-core: the reference DeltaComplex,
    # its core and comparison live in tests/oracles.py, and adjoin takes
    # any core without checking its type
    gone = {"DeltaComplex", "core_of", "apply_surjection_degeneracies",
            "core_comparison_is_iso"}
    found, adjoin = [], None
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name in gone:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
                if node.name == "adjoin":
                    adjoin = node
    assert found == []
    assert adjoin is not None
    assert not any(isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "isinstance"
                   for node in ast.walk(adjoin))


def test_every_runtime_error_is_marked_internal():
    # cli.main maps a RuntimeError to exit 3, a fault of the program: each
    # one says so in its message
    raises, found = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "RuntimeError"):
                continue
            raises += 1
            message = call.args[0] if call.args else None
            if isinstance(message, ast.JoinedStr):
                message = message.values[0]
            if not (isinstance(message, ast.Constant)
                    and str(message.value).startswith("internal: ")):
                found.append(f"{path.name}:{node.lineno}")
    assert raises and found == []


def test_every_import_is_used():
    # a name imported at the top of a module and never read there is left
    # over from a refactor, in the package and in its tests
    unused = []
    sources = [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))]
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []


def test_json_is_written_only_by_the_io_module():
    # one canonical encoder: every other module writes through io.dumps or
    # io.write_json, never json.dumps or json.dump
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) \
                    and node.attr in ("dump", "dumps") \
                    and getattr(node.value, "id", None) == "json":
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json" \
                    and {"dump", "dumps"} & {a.name for a in node.names}:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_caches_are_bounded():
    # every lru_cache of the package takes its maxsize from a named module
    # constant (no maxsize=None, no bare decorator, no functools.cache), and
    # ShomSimplicialSet keeps no memo of its own: its operators come from
    # such a cache
    found, sized, shom = [], set(), None
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        constants = {target.id for node in tree.body
                     if isinstance(node, ast.Assign)
                     for target in node.targets
                     if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and not node.args \
                    and [k.arg for k in node.keywords] == ["maxsize"] \
                    and getattr(node.keywords[0].value, "id", None) \
                    in constants:
                sized.add(id(node.func))
            elif isinstance(node, ast.ClassDef) \
                    and node.name == "ShomSimplicialSet":
                shom = node
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, ast.alias):
                name = "cache" if node.name == "cache" else None
            if name == "cache" or (name == "lru_cache"
                                   and id(node) not in sized):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert sized and found == []
    init = next(stmt for stmt in shom.body
                if isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__init__")
    assert {node.attr for node in ast.walk(init)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"} == {
        "complex", "levels", "_by_pair"}

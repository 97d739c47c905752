"""Command-line surface: formats, determinism, exit codes."""

import hashlib
import itertools
import json
import os
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import example, given, settings, strategies as st

from cupi import cli, io as cio, reconstruct, simplicial, steenrod
from cupi.chains import GradedMap, normalized_chains, unnormalized_chains
from cupi.cli import main
from cupi.simplicial import build_complex

from conftest import RP2_FACETS, barycentric, rp


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    write("rp2.json", {"facets": [list(f) for f in RP2_FACETS]})
    write("tri.json", {"facets": [[0, 1, 2]]})
    write("delta3.json", {"facets": [[0, 1, 2, 3]]})
    write("delta4.json", {"facets": [[0, 1, 2, 3, 4]]})
    write("circle.json", {"facets": [[0, 1], [0, 2], [1, 2]]})
    write("d1.json", {"facets": [[0, 1]]})
    write("point.json", {"facets": [[0]]})
    write("empty.json", {"facets": []})
    write("id_d1.json", {"0": [[[0], [0], 1], [[1], [1], 1]],
                         "1": [[[0, 1], [0, 1], 1]]})
    write("flip_d1.json", {"0": [[[0], [0], 1], [[1], [1], 1]],
                           "1": [[[0, 1], [0, 1], -1]]})
    write("bad.json", {"facets": [[2, 1]]})
    write("isolated.json", {"vertices": [0, 1, 2, 7], "facets": [[0, 1, 2]]})
    write("undeclared.json", {"vertices": [0, 1], "facets": [[0, 1, 2]]})
    write("misbinned.json", {"0": [[[0, 1], [0, 1], 1]]})
    write("point_into_d1.json", {"0": [[[0], [0], 1]]})
    write("no_map.json", {})
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_ok(self, files, capsys):
        code, out = run(capsys, "validate", files["rp2.json"])
        assert code == 0
        assert json.loads(out) == {"ok": True, "f_vector": [6, 15, 10], "dim": 2}

    def test_closure_violation_is_input_error(self, files, capsys):
        code, _ = run(capsys, "validate", files["bad.json"])
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "validate", "/no/such/file.json")
        assert code == 2

    def test_declared_isolated_vertex(self, files, capsys):
        code, out = run(capsys, "validate", files["isolated.json"])
        assert code == 0
        assert json.loads(out)["f_vector"] == [4, 3, 1]

    def test_undeclared_vertex_rejected(self, files, capsys):
        code, _ = run(capsys, "validate", files["undeclared.json"])
        assert code == 2

    def test_no_facets_is_the_empty_complex(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"facets": []}))
        assert run(capsys, "validate", str(path)) == \
            (0, '{"dim":-1,"f_vector":[],"ok":true}\n')


class TestChains:
    def test_interval_boundary_triples(self, files, capsys):
        code, out = run(capsys, "chains", files["d1.json"])
        assert code == 0
        data = json.loads(out)
        assert data["ranks"] == [2, 1]
        assert data["boundaries"]["1"] == [[[0], [0, 1], -1], [[1], [0, 1], 1]]


class TestHomology:
    def test_rp2_report(self, files, capsys):
        code, out = run(capsys, "homology", files["rp2.json"])
        assert code == 0
        assert json.loads(out) == {"H": [
            {"degree": 0, "betti": 1, "torsion": []},
            {"degree": 1, "betti": 0, "torsion": [2]},
            {"degree": 2, "betti": 0, "torsion": []}]}


class TestXi:
    def test_check_passes(self, files, capsys):
        code, out = run(capsys, "xi-check", files["tri.json"], "--max-i", "6")
        assert code == 0
        assert json.loads(out) == {"status": "pass"}

    def test_check_delta3_max_i_6(self, files, capsys):
        code, out = run(capsys, "xi-check", files["delta3.json"],
                        "--max-i", "6")
        assert code == 0
        assert json.loads(out) == {"status": "pass"}

    def test_dump_lines_parse(self, files, capsys):
        code, out = run(capsys, "xi-dump", files["d1.json"])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert all(set(rec) == {"i", "simplex", "value"} for rec in lines)
        top = [rec for rec in lines
               if rec["simplex"] == [0, 1] and rec["i"] == 1]
        assert top == [{"i": 1, "simplex": [0, 1],
                        "value": [[-1, [0, 1], [0, 1]]]}]

    def test_dump_reads_no_structure_entry(self, files, capsys, monkeypatch):
        # each (i, s) is read once, through higher_diagonal, and none is kept
        reads = []
        delta = steenrod.SteenrodStructure.delta

        def spy(self, i, simplex):
            reads.append((i, simplex))
            return delta(self, i, simplex)

        monkeypatch.setattr(steenrod.SteenrodStructure, "delta", spy)
        code, out = run(capsys, "xi-dump", files["delta4.json"])
        assert code == 0
        assert len(out.splitlines()) == 31 * 9
        assert reads == []

    def test_dump_refuses_an_unbounded_dump_before_its_first_line(
            self, files, capsys, monkeypatch):
        # a point at --max-i 10**12 would write 10**12 zero lines
        def encoded(obj):
            raise AssertionError("a line was encoded")

        monkeypatch.setattr(cio, "dumps", encoded)
        start = time.perf_counter()
        assert main(["xi-dump", files["point.json"],
                     "--max-i", str(10 ** 12)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {files['point.json']}: over "
                                f"{cli.MAX_DUMP_LINES} lines to dump\n")

    def test_dump_cap_is_on_simplices_times_bar_degrees(
            self, files, capsys, monkeypatch):
        # the cap admits RP^4 at the default --max-i 8 (12 241 simplices)
        # and the 2-skeleton on 16 vertices at --max-i 4 (696 simplices)
        assert 12241 * 9 <= cli.MAX_DUMP_LINES
        assert 696 * 5 <= cli.MAX_DUMP_LINES
        # the 7 simplices of the triangle: 35 lines at the default --max-i
        # 4 are at the cap, 42 at --max-i 5 are over it
        monkeypatch.setattr(cli, "MAX_DUMP_LINES", 35)
        code, out = run(capsys, "xi-dump", files["tri.json"])
        assert code == 0
        assert len(out.splitlines()) == 35
        assert main(["xi-dump", files["tri.json"], "--max-i", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over 35 lines to dump" in captured.err


class TestSquares:
    def test_sq1_rp2(self, files, capsys):
        code, out = run(capsys, "squares", files["rp2.json"], "--i", "1")
        assert code == 0
        assert json.loads(out)["matrices"]["1"] == [[1]]


class TestEnumerate:
    def test_count_and_order(self, files, capsys):
        code, out = run(capsys, "enumerate", files["circle.json"], "--n", "1")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 6
        keys = [(m["simplex"], m["surjection"]) for m in data["morphisms"]]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("option", [["--mode", "brute"],
                                        ["--mode", "guided"],
                                        ["--bound", "2"]])
    def test_removed_options_are_refused(self, files, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", files["circle.json"], "--n", "1", *option])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: " + " ".join(option) in captured.err


class TestMorphismCommands:
    def test_identity_is_morphism(self, files, capsys):
        code, out = run(capsys, "is-morphism", files["d1.json"],
                        files["d1.json"], files["id_d1.json"])
        assert code == 0
        assert json.loads(out)["status"] == "morphism"

    def test_sign_flip_rejected_exit1(self, files, capsys):
        code, out = run(capsys, "is-morphism", files["d1.json"],
                        files["d1.json"], files["flip_d1.json"])
        assert code == 1
        data = json.loads(out)
        assert data["status"] in ("not_morphism", "not_chain_map")
        assert data["witness"] is not None

    def test_lift_identity(self, files, capsys):
        code, out = run(capsys, "lift", files["d1.json"], files["d1.json"],
                        files["id_d1.json"])
        assert code == 0
        data = json.loads(out)
        assert data["vertex_map"] == {"0": 0, "1": 1}
        assert data["isomorphism"] == {"0": 0, "1": 1}

    def test_lift_of_a_map_missing_a_target_vertex(self, files, capsys):
        # injective but not onto: no isomorphism, and no inverse is built
        assert run(capsys, "lift", files["point.json"], files["d1.json"],
                   files["point_into_d1.json"]) == \
            (0, '{"isomorphism":null,"status":"lifted",'
                '"vertex_map":{"0":0}}\n')

    def test_internal_fault_exits_3_with_one_line(self, files, capsys,
                                                  monkeypatch):
        # a fault of the program is neither a negative verdict (1) nor an
        # input error (2), and shows no traceback
        def fault(*args):
            raise RuntimeError("internal: x")

        monkeypatch.setattr(cli, "lift_morphism", fault)
        assert main(["lift", files["d1.json"], files["d1.json"],
                     files["id_d1.json"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: x\n"  # no traceback

    def test_a_broken_operator_map_is_an_internal_fault(self, files, capsys,
                                                       monkeypatch,
                                                       fresh_operators):
        # only a coface operator N(delta) raises the top degree; one that
        # breaks the chain-map law is the program's fault, not the file's.
        # The operator cache is emptied first: an operator an earlier test
        # built is not checked again
        law = GradedMap.first_commutator_witness

        def broken(self):
            if self.target.top_degree > self.source.top_degree:
                return 1
            return law(self)

        monkeypatch.setattr(GradedMap, "first_commutator_witness", broken)
        assert main(["reconstruct", files["rp2.json"], "--up-to", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: ")
        assert captured.err.count("\n") == 1

    def test_homology_square(self, files, capsys):
        code, out = run(capsys, "homology-square", files["d1.json"],
                        files["d1.json"], files["id_d1.json"], "--i-max", "1")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_misbinned_triple_is_input_error(self, files, capsys):
        code, _ = run(capsys, "is-morphism", files["d1.json"],
                      files["d1.json"], files["misbinned.json"])
        assert code == 2


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["is-morphism", "empty.json", "empty.json", "no_map.json"], 0,
     '{"certificate":{},"status":"morphism","witness":null}\n', ""),
    (["lift", "empty.json", "empty.json", "no_map.json"], 0,
     '{"isomorphism":{},"status":"lifted","vertex_map":{}}\n', ""),
    (["homology-square", "empty.json", "empty.json", "no_map.json"], 0,
     '{"detail":"square commutes","status":"pass"}\n', ""),
    (["homology-square", "empty.json", "empty.json", "no_map.json",
      "--i-max", "1000000000"], 0,
     '{"detail":"square commutes","status":"pass"}\n', ""),
    (["is-morphism", "point.json", "empty.json", "no_map.json"], 1,
     '{"certificate":null,"status":"not_morphism",'
     '"witness":["augmentation",[0]]}\n', ""),
    (["is-morphism", "point.json", "empty.json", "point_into_d1.json"], 2,
     "", "unknown target simplex [0]"),
], ids=["is-morphism", "lift", "homology-square", "homology-square-i-max",
        "augmentation", "unknown-target"])
def test_maps_of_the_empty_complex(files, capsys, argv, code, stdout, stderr):
    # N of the empty complex is the zero complex, for maps from and into it
    assert main([files.get(a, a) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == stdout
    assert stderr in err and bool(err) == bool(stderr)


class TestReconstruct:
    def test_triangle(self, files, capsys):
        code, out = run(capsys, "reconstruct", files["tri.json"],
                        "--up-to", "3")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_empty_complex(self, files, capsys):
        assert run(capsys, "reconstruct", files["empty.json"],
                   "--up-to", "3") == \
            (0, '{"counts":[[0,0,0],[1,0,0],[2,0,0],[3,0,0]],'
                '"detail":"isomorphism verified","status":"pass"}\n')


class TestDeterminism:
    def test_byte_identical_outputs(self, files, capsys):
        for argv in (["homology", files["rp2.json"]],
                     ["enumerate", files["circle.json"], "--n", "2"],
                     ["xi-dump", files["tri.json"], "--max-i", "3"],
                     ["squares", files["rp2.json"], "--i", "1"]):
            _, first = run(capsys, *argv)
            _, second = run(capsys, *argv)
            assert first == second


_COUNT_OPTIONS = [
    ["xi-check", "tri.json", "--max-i"],
    ["xi-dump", "tri.json", "--max-i"],
    ["squares", "rp2.json", "--i"],
    ["enumerate", "circle.json", "--n"],
    ["reconstruct", "tri.json", "--up-to"],
    ["homology-square", "d1.json", "d1.json", "id_d1.json", "--i-max"],
]


# -1, then strings that int() reads as 1 but that are not the canonical
# decimal of a count
@pytest.mark.parametrize("argv", [
    option + [text] for text in ("-1", "0_1", "+1", " 1", "\u0661", "01")
    for option in _COUNT_OPTIONS])
def test_negative_arguments_are_input_errors(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_squares_basis_choice_is_pinned(tmp_path, capsys):
    # squares matrices depend on the chosen H^j basis; RP^2 wedge a circle
    path = tmp_path / "rp2_wedge_s1.json"
    facets = [list(f) for f in RP2_FACETS] + [[1, 7], [7, 8], [1, 8]]
    path.write_text(json.dumps({"facets": facets}))
    assert run(capsys, "squares", str(path), "--i", "1") == (0, (
        '{"i":1,"matrices":{"0":[[0],[0]],"1":[[0,1]],"2":[]}}\n'))


@pytest.mark.parametrize("facets, stdout", [
    # sd^1 RP^2: the torsion 2 is left to the dense block after the units
    (barycentric(RP2_FACETS),
     '{"H":[{"betti":1,"degree":0,"torsion":[]},'
     '{"betti":0,"degree":1,"torsion":[2]},'
     '{"betti":0,"degree":2,"torsion":[]}]}\n'),
    # the 2-skeleton of the simplex on 10 vertices: unit pivots only
    (list(itertools.combinations(range(10), 3)),
     '{"H":[{"betti":1,"degree":0,"torsion":[]},'
     '{"betti":0,"degree":1,"torsion":[]},'
     '{"betti":84,"degree":2,"torsion":[]}]}\n'),
    # RP^3 and RP^4: Z/2 in degree 1, and in degree 3 on RP^4, left to the
    # leftover blocks of the cleared pass
    (rp(3).simplices[-1],
     '{"H":[{"betti":1,"degree":0,"torsion":[]},'
     '{"betti":0,"degree":1,"torsion":[2]},'
     '{"betti":0,"degree":2,"torsion":[]},'
     '{"betti":1,"degree":3,"torsion":[]}]}\n'),
    (rp(4).simplices[-1],
     '{"H":[{"betti":1,"degree":0,"torsion":[]},'
     '{"betti":0,"degree":1,"torsion":[2]},'
     '{"betti":0,"degree":2,"torsion":[]},'
     '{"betti":0,"degree":3,"torsion":[2]},'
     '{"betti":0,"degree":4,"torsion":[]}]}\n'),
])
def test_homology_output_is_pinned(tmp_path, capsys, facets, stdout):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"facets": [list(f) for f in facets]}))
    assert run(capsys, "homology", str(path)) == (0, stdout)


@pytest.mark.parametrize("name, argv, lines, digest", [
    ("rp2.json", [], 155,
     "7a3a6fcf2112b5cc65869325739a2fb2b740a704cb5914b9ed3bc5137210736a"),
    ("delta3.json", ["--max-i", "6"], 105,
     "229766c06c050c76b701e716a548c76c51036672225483672996543eb94ad288"),
])
def test_xi_dump_output_is_pinned(files, capsys, name, argv, lines, digest):
    code, out = run(capsys, "xi-dump", files[name], *argv)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("facets, argv, digest", [
    (RP2_FACETS, ["chains"],
     "5d977e034715614cd3018c49112f96356d473601d17acd09d52c63472df6136a"),
    (barycentric(RP2_FACETS), ["chains"],
     "f834a680aaa9af7fcf98ab4ab2d93e6b5c5b3762065789165d2114af2afd33c4"),
    (rp(3).simplices[-1], ["chains"],
     "58fe88bbed7d10b2fef85ed25163ba8757dbd23ce35668fa4bf3503237f50a1f"),
    (RP2_FACETS, ["enumerate", "--n", "4"],
     "d829fea9fb5c395179c1824d8928db98719850dd4673aa67791ee463364bda24"),
    (barycentric(RP2_FACETS), ["enumerate", "--n", "4"],
     "40daae5be78beda5a77a608021211b074a65df09e8a54497fa9da14838e0fdf2"),
    (rp(3).simplices[-1], ["enumerate", "--n", "2"],
     "cdc907443798d732cbd74d7e8e56346a115689be6b518002b8c7395f8f5172bd"),
], ids=["chains-rp2", "chains-sd1rp2", "chains-rp3", "enumerate-rp2",
        "enumerate-sd1rp2", "enumerate-rp3"])
def test_streamed_output_is_pinned(tmp_path, capsys, facets, argv, digest):
    # chains and enumerate write their long arrays a slice at a time, and
    # the bytes stay those of one canonical dump
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"facets": [list(f) for f in facets]}))
    code, out = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert out == cio.dumps(json.loads(out)) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _identity_files(tmp_path, facets, phi=None):
    """The complex of the facets and the chain map N(phi) of a vertex
    bijection phi of it, the identity by default, written as files."""
    faces = {c for f in facets for r in range(1, len(f) + 1)
             for c in itertools.combinations(f, r)}
    chain_map = {}
    for s in sorted(faces):
        image = sorted(phi[v] for v in s) if phi else list(s)
        chain_map.setdefault(str(len(s) - 1), []).append([image, list(s), 1])
    cx, mp = tmp_path / "complex.json", tmp_path / "identity.json"
    cx.write_text(json.dumps({"facets": [list(f) for f in facets]}))
    mp.write_text(json.dumps(chain_map))
    return str(cx), str(mp)


_RP2_RP2 = RP2_FACETS + [tuple(v + 6 for v in f) for f in RP2_FACETS]
_SWAP_RP2_RP2 = {v: v + 6 if v <= 6 else v - 6 for v in range(1, 13)}
_RP2_RP2_CERTIFICATE = ('{"1":7,"10":4,"11":5,"12":6,"2":8,"3":9,"4":10,'
                        '"5":11,"6":12,"7":1,"8":2,"9":3}')


@pytest.mark.parametrize("facets, phi, command, stdout", [
    ([(0,), (1,)], {0: 1, 1: 0}, "is-morphism",
     '{"certificate":{"0":1,"1":0},"status":"morphism","witness":null}\n'),
    ([(0,), (1,)], {0: 1, 1: 0}, "lift",
     '{"isomorphism":{"0":1,"1":0},"status":"lifted",'
     '"vertex_map":{"0":1,"1":0}}\n'),
    ([(0,), (1,)], {0: 1, 1: 0}, "homology-square",
     '{"detail":"square commutes","status":"pass"}\n'),
    ([(0, 1), (2, 3)], {0: 2, 1: 3, 2: 0, 3: 1}, "is-morphism",
     '{"certificate":{"0":2,"1":3,"2":0,"3":1},"status":"morphism",'
     '"witness":null}\n'),
    ([(0, 1), (2, 3)], {0: 2, 1: 3, 2: 0, 3: 1}, "lift",
     '{"isomorphism":{"0":2,"1":3,"2":0,"3":1},"status":"lifted",'
     '"vertex_map":{"0":2,"1":3,"2":0,"3":1}}\n'),
    ([(0, 1), (2, 3)], {0: 2, 1: 3, 2: 0, 3: 1}, "homology-square",
     '{"detail":"square commutes","status":"pass"}\n'),
    (_RP2_RP2, _SWAP_RP2_RP2, "is-morphism",
     f'{{"certificate":{_RP2_RP2_CERTIFICATE},"status":"morphism",'
     '"witness":null}\n'),
    (_RP2_RP2, _SWAP_RP2_RP2, "lift",
     f'{{"isomorphism":{_RP2_RP2_CERTIFICATE},"status":"lifted",'
     f'"vertex_map":{_RP2_RP2_CERTIFICATE}}}\n'),
    (_RP2_RP2, _SWAP_RP2_RP2, "homology-square",
     '{"detail":"square commutes","status":"pass"}\n'),
], ids=[f"{name}-{command}" for name in ("points", "edges", "rp2-rp2")
        for command in ("is-morphism", "lift", "homology-square")])
def test_component_swaps_get_their_certificate(tmp_path, capsys, facets, phi,
                                               command, stdout):
    # an ordered complex orders only the vertices within a simplex, so a
    # swap of components is N(phi) for a map phi that keeps that order,
    # and every morphism command reports phi
    cx, mp = _identity_files(tmp_path, facets, phi)
    assert run(capsys, command, cx, cx, mp) == (0, stdout)


def test_homology_square_output_is_pinned(tmp_path, capsys):
    # sd^1 RP^2 with its identity map: a nonempty leftover block in degree 1
    cx, mp = _identity_files(tmp_path, barycentric(RP2_FACETS))
    assert run(capsys, "homology-square", cx, cx, mp, "--i-max", "2") == \
        (0, '{"detail":"square commutes","status":"pass"}\n')


@pytest.mark.parametrize("i_max", ["16", "1000000000"])
def test_homology_square_reads_no_degree_above_the_dimension(
        tmp_path, capsys, monkeypatch, i_max):
    # every group above both dimensions is zero: a large --i-max gives the
    # --i-max 2 answer on RP^2 and builds no chains above degree 3
    cx, mp = _identity_files(tmp_path, RP2_FACETS)
    want = run(capsys, "homology-square", cx, cx, mp, "--i-max", "2")
    built = []

    def spy(sset, up_to):
        built.append(up_to)
        return unnormalized_chains(sset, up_to)

    monkeypatch.setattr(reconstruct, "unnormalized_chains", spy)
    assert run(capsys, "homology-square", cx, cx, mp, "--i-max", i_max) == \
        want == (0, '{"detail":"square commutes","status":"pass"}\n')
    assert built and max(built) <= 3


@pytest.mark.parametrize("command, obj", [
    ("validate", {"facets": [[0, "a"]]}),
    ("validate", {"facets": [[[0], 1]]}),
    ("validate", {"facets": [[True, 2]]}),
    ("validate", {"vertices": [0, 1, 2.0], "facets": [[0, 1]]}),
    ("validate", {"vertices": 3, "facets": [[0, 1]]}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]],
                     "1": [[[0, 1], [0, 1], 1.7]]}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]],
                     "1": [[[0, 1], [0, 1], "x"]]}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]],
                     "1": [[[0, 1], [0, 1], True]]}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]], "1": [5]}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]], "1": 5}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]],
                     "1": [[[0, True], [0, 1], 1]]}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]],
                     " +1 ": [[[0, 1], [0, 1], 1]]}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]],
                     "0_1": [[[0, 1], [0, 1], 1]]}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]],
                     "\uff11": [[[0, 1], [0, 1], 1]]}),
    ("is-morphism", {"0": [[[0], [0], 1], [[1], [1], 1]],
                     "1": [[[0, 1], [0, 1], 1]], "-1": []}),
    ("validate", {"facets": [[]]}),
    ("validate", {"facets": [[0, 1]], "x": 1}),
    ("validate", {"vertices": None, "facets": [[0, 1]]}),
])
def test_non_integer_input_is_input_error(files, tmp_path, capsys, command,
                                          obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    argv = [command, str(path)] if command == "validate" else \
        [command, files["d1.json"], files["d1.json"], str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err


@pytest.mark.parametrize("command", ["validate", "is-morphism"])
def test_deeply_nested_input_is_input_error(files, tmp_path, capsys, command):
    # raw text: json.dumps cannot write a list nested 3000 deep either
    path = tmp_path / "input.json"
    key = "facets" if command == "validate" else "0"
    path.write_text(f'{{"{key}": ' + "[" * 3000 + "]" * 3000 + "}")
    argv = [command, str(path)] if command == "validate" else \
        [command, files["d1.json"], files["d1.json"], str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "nested too deeply" in captured.err


@pytest.mark.parametrize("command, text, key", [
    ("validate", '{"facets": [[0, 1]], "facets": [[0, 1, 2]]}', "facets"),
    # the identity in degree 0, the sign-flipped edge and then the edge
    ("is-morphism", '{"0": [[[0], [0], 1], [[1], [1], 1]], '
                    '"1": [[[0, 1], [0, 1], -1]], "1": [[[0, 1], [0, 1], 1]]}',
     "1"),
], ids=["complex", "chain-map"])
def test_duplicate_keys_are_input_errors(files, tmp_path, capsys, command,
                                         text, key):
    # raw text: json.dumps cannot write a key twice
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [command, str(path)] if command == "validate" else \
        [command, files["d1.json"], files["d1.json"], str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and repr(key) in captured.err


@pytest.mark.parametrize("command", ["validate", "is-morphism"])
@pytest.mark.parametrize("text, message", [
    # an integer literal past Python's 4300-digit conversion limit
    ("1" * 5000, "Exceeds the limit"),
    # a byte that is not UTF-8
    (b"\xff".decode("latin-1"), "can't decode byte 0xff"),
], ids=["huge-int", "bad-utf8"])
def test_reader_errors_name_the_file_once(files, tmp_path, capsys, command,
                                          text, message):
    path = tmp_path / "input.json"
    if command == "validate":
        body = '{"facets": [[0, ' + text + ']]}'
    else:
        body = '{"0": [[[0], [0], ' + text + ']]}'
    path.write_bytes(body.encode("latin-1"))
    argv = [command, str(path)] if command == "validate" else \
        [command, files["d1.json"], files["d1.json"], str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert message in captured.err and captured.err.count(str(path)) == 1


def test_face_closure_is_bounded_before_it_is_built(tmp_path, capsys,
                                                    monkeypatch):
    # the closure visits sum(2^|F| - 1) faces: RP^5's 23040 facets of six
    # vertices pass, one facet of 21 vertices is refused before any is built
    assert 23040 * 63 <= cio.MAX_FACES < 2 ** 21 - 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"facets": [list(range(21))]}))

    def built(facets):
        raise AssertionError("the face closure was built")

    monkeypatch.setattr(cio, "build_complex", built)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {path}: over {cio.MAX_FACES} faces to close\n"
    # the cap is on the sum, declared vertices included: a triangle and
    # one more vertex visit 8 faces
    monkeypatch.undo()
    monkeypatch.setattr(cio, "MAX_FACES", 7)
    path.write_text(json.dumps({"facets": [[0, 1, 2]]}))
    assert main(["validate", str(path)]) == 0
    path.write_text(json.dumps({"vertices": [0, 1, 2, 3],
                                "facets": [[0, 1, 2]]}))
    assert main(["validate", str(path)]) == 2
    assert "over 7 faces to close" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # work(n) = max(n + 1, M) + (2^(n+1) - 1)(T + 1)(2n + 3): on the
    # triangle, 2683695 units at n = 10, against 1009767 at n = 9
    (["enumerate", "tri.json", "--n", "10"],
     "more than 2100000 units of work to enumerate"),
    # and 4255879 summed over n <= 10, against 1572184 over n <= 9
    (["reconstruct", "tri.json", "--up-to", "10"],
     "more than 2100000 units of work to enumerate"),
    # one morphism and one codegeneracy: 4325326 units at n = 15
    (["enumerate", "point.json", "--n", "15"],
     "more than 2100000 units of work to enumerate"),
    # no morphisms at all, but each n is charged n + 1: refused at n = 2048
    (["reconstruct", "empty.json", "--up-to", "1000000000"],
     "more than 2100000 units of work to enumerate"),
], ids=["enumerate", "reconstruct", "enumerate-work",
        "reconstruct-empty"])
def test_size_caps_refuse_before_enumerating(files, capsys, monkeypatch, argv,
                                             message):
    from cupi import reconstruct

    def started(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(reconstruct, "standard_simplex", started)
    monkeypatch.setattr(reconstruct, "surjections", started)
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the refusal names the complex file
    assert captured.err.startswith(f"error: {files[argv[1]]}: ")
    assert message in captured.err


def test_rp3_reconstructs_at_the_default_depth(tmp_path, capsys):
    # dim + 2 = 5: 14280 morphism simplices in all, 43360 units of work
    path = tmp_path / "rp3.json"
    path.write_text(json.dumps({"facets": [list(f) for f in
                                           rp(3).simplices[3]]}))
    assert main(["reconstruct", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["counts"][-1] == [5, 6960, 6960]


def test_an_input_just_under_the_work_cap_runs(files, capsys):
    # enumerate on a point at n = 14 is 2031569 units, the largest input
    # the earlier caps admitted
    assert main(["enumerate", files["point.json"], "--n", "14"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


@pytest.mark.parametrize("name, small", [("tri.json", "10"),
                                         ("point.json", "15")])
def test_a_huge_n_is_refused_without_growing_memory(files, capsys, name,
                                                    small):
    # the face term 2^(n + 1) - 1 is capped before it is formed, so a huge
    # --n gets the refusal of the smallest refused one at once, in bounded
    # memory
    assert main(["enumerate", files[name], "--n", small]) == 2
    want = capsys.readouterr().err
    tracemalloc.start()
    try:
        code = main(["enumerate", files[name], "--n", "1000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == want
    assert peak < 2 ** 20


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(width=16)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8)

# facets on the vertex ids -1 ... 4, now and then not increasing
_facet = st.lists(st.integers(-1, 4), min_size=1, max_size=4, unique=True)
_facets = st.lists(_facet.map(sorted), max_size=4) | st.lists(_facet,
                                                              max_size=4)


def _faces(facets):
    """The nonempty increasing subsets of the facets: the simplices when the
    facets are increasing."""
    return sorted({c for f in facets for r in range(1, len(f) + 1)
                   for c in itertools.combinations(sorted(f), r)})


@st.composite
def morphism_files(draw):
    """Texts of (source, target, map) files: two complexes, and a chain-map
    file that starts as the identity, as a vertex map's induced components
    or empty, with up to three triples added, some filed under a wrong or
    malformed degree key; then, sometimes, one of the three files replaced
    by any JSON value or cut short."""
    X = draw(_facets)
    Y = X if draw(st.booleans()) else draw(_facets)
    sx, sy = _faces(X), _faces(Y)
    start = draw(st.sampled_from(["identity", "vertex", "empty"]))
    triples = []
    if start == "identity":
        triples = [(None, s, s, 1) for s in sx]
    elif start == "vertex" and sy:
        phi = {s[0]: draw(st.sampled_from(sy))[0] for s in sx if len(s) == 1}
        images = [(tuple(sorted({phi[v] for v in s})), s) for s in sx]
        triples = [(None, t, s, 1) for t, s in images if len(t) == len(s)]
    labels = st.sampled_from(sx + sy or [(0,)])
    triples += draw(st.lists(st.tuples(
        st.none() | st.sampled_from(["0", "1", "2", "-1", "01"]),
        labels, labels, st.integers(-2, 2)), max_size=3))
    chain_map = {}
    for key, t, s, c in triples:
        key = str(len(s) - 1) if key is None else key
        chain_map.setdefault(key, []).append([list(t), list(s), c])
    texts = [json.dumps({"facets": X}), json.dumps({"facets": Y}),
             json.dumps(chain_map)]
    broken = draw(st.sampled_from([None] * 4 + [0, 1, 2]))
    if broken is not None:
        if draw(st.booleans()):
            texts[broken] = json.dumps(draw(_json_values))
        else:
            texts[broken] = texts[broken][:draw(
                st.integers(0, len(texts[broken]) - 1))]
    return texts


def _run_to_a_result_or_an_input_error(argv):
    """Run the CLI on argv and return its exit code and stdout lines: a
    result is exit 0 or 1 with JSON lines on stdout and nothing on stderr;
    anything else is exit 2 with a message on stderr and nothing on
    stdout."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    for line in lines:
        json.loads(line)
    return code, lines


@given(morphism_files(), st.integers(0, 3))
@example(['{"facets": [[0], [1]]}', '{"facets": [[0], [1]]}',
          '{"0": [[[1], [0], 1], [[0], [1], 1]]}'], 0)  # the swap of two points
@settings(max_examples=60, deadline=None)
def test_morphism_commands_give_a_verdict_or_an_input_error(texts, i_max):
    # a verdict is one JSON line, and a morphism lifts and has its
    # homology square decided
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, name)
                 for name in ("source.json", "target.json", "map.json")]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        codes = []
        for argv in (["is-morphism", *paths], ["lift", *paths],
                     ["homology-square", *paths, "--i-max", str(i_max)]):
            code, lines = _run_to_a_result_or_an_input_error(argv)
            assert code == 2 or len(lines) == 1
            codes.append(code)
        if codes[0] == 0:
            assert codes[1] == 0 and codes[2] in (0, 1)


@st.composite
def complex_texts(draw):
    """Text of a complex file on the vertices 0 ... 4, now and then with
    declared vertices; or, sometimes, any JSON value, facets on -1 ... 4
    that may be out of order, or a text cut short."""
    facets = draw(st.lists(st.lists(st.integers(0, 4), min_size=1,
                                    max_size=5, unique=True).map(sorted),
                           max_size=4))
    obj = {"facets": facets}
    if draw(st.booleans()):
        obj["vertices"] = sorted({v for f in facets for v in f}
                                 | set(draw(st.lists(st.integers(0, 4),
                                                     max_size=2))))
    text = json.dumps(obj)
    broken = draw(st.sampled_from([None] * 3 + ["json", "facets", "cut"]))
    if broken == "json":
        text = json.dumps(draw(_json_values))
    elif broken == "facets":
        text = json.dumps({"facets": draw(_facets)})
    elif broken == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@given(complex_texts(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_complex_commands_give_a_result_or_an_input_error(text, k):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "complex.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["validate", path], ["chains", path], ["homology", path],
                     ["squares", path, "--i", str(k)], ["xi-check", path],
                     ["xi-dump", path], ["enumerate", path, "--n", str(k)],
                     ["reconstruct", path, "--up-to", str(k)]):
            _run_to_a_result_or_an_input_error(argv)


_loader_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(width=16)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["facets", "vertices", "0", "1"])
                      | st.text(max_size=2), inner, max_size=3),
    max_leaves=12)


@given(_loader_values)
@settings(max_examples=200, deadline=None)
def test_loaders_return_or_raise_an_input_error(value):
    # any JSON value, read straight by both loaders: a complex or a map of
    # N(Delta^1), or an InputError whose message starts with the path
    N = normalized_chains(build_complex([(0, 1)]))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(value, fh)
        for load in (cio.load_complex,
                     lambda p: cio.load_chain_map(p, N, N)):
            try:
                load(path)
            except cio.InputError as exc:
                assert str(exc).startswith(f"{path}: ")


_SLICE = cio.WRITE_SLICE
_plain = st.recursive(
    st.integers(-3, 3) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=5)


@st.composite
def _arrays(draw):
    """("gen" or "list", items): an array at a slice boundary or short."""
    n = draw(st.sampled_from([0, 1, 2, _SLICE - 1, _SLICE, _SLICE + 1,
                              3 * _SLICE]))
    base = draw(st.lists(_plain, min_size=1, max_size=3))
    items = list(itertools.islice(itertools.cycle(base), n))
    return draw(st.sampled_from(["gen", "list"])), items


_lazy_specs = st.recursive(
    _arrays() | _plain.map(lambda value: ("plain", value)),
    lambda inner: st.dictionaries(st.text(max_size=2), inner,
                                  max_size=4).map(lambda d: ("dict", d)),
    max_leaves=6)


def _build(spec, lazy):
    """The value of a spec, its "gen" arrays as generators when lazy and as
    lists otherwise."""
    kind, body = spec
    if kind == "dict":
        return {key: _build(value, lazy) for key, value in body.items()}
    if kind == "gen" and lazy:
        return (item for item in body)
    return body


@given(_lazy_specs)
@settings(max_examples=200, deadline=None)
def test_write_json_writes_the_bytes_of_one_dump(spec):
    parts = []
    cio.write_json(_build(spec, lazy=True), parts.append)
    assert "".join(parts) == cio.dumps(_build(spec, lazy=False))


@pytest.mark.parametrize("value", [
    {1, 2}, {"a": {"b": {1}}}, {"a": [(x for x in ())]}, {1: "a"}],
    ids=["set", "nested-set", "generator-in-list", "int-key"])
def test_write_json_refuses_what_it_cannot_write_exactly(value):
    # no silent coercion: a set is not written as an array, a generator is
    # read only as a dict value, and a key that is not a str is refused
    with pytest.raises(TypeError):
        cio.write_json(value, [].append)


def _longest_list(value):
    if isinstance(value, dict):
        return max(map(_longest_list, value.values()), default=0)
    if isinstance(value, list):
        return max([len(value), *map(_longest_list, value)])
    return 0


@pytest.mark.parametrize("facets, argv, items", [
    # (n + 1) f_n triples in degree n: f = (40, 232, 384, 192)
    (rp(3).simplices[-1], ["chains"], 2 * 232 + 3 * 384 + 4 * 192),
    (barycentric(RP2_FACETS), ["enumerate", "--n", "4"], 751),
], ids=["chains-rp3", "enumerate-sd1rp2"])
def test_long_outputs_are_encoded_a_slice_at_a_time(tmp_path, capsys,
                                                    monkeypatch, facets,
                                                    argv, items):
    # no dumps call during the command encodes a list longer than a slice,
    # so neither the whole list nor its whole text is ever held
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"facets": [list(f) for f in facets]}))
    longest = []
    dumps = cio.dumps

    def spy(obj):
        longest.append(_longest_list(obj))
        return dumps(obj)

    monkeypatch.setattr(cio, "dumps", spy)
    code, out = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    data = json.loads(out)
    arrays = data.get("boundaries", {"n": data.get("morphisms")}).values()
    assert sum(map(len, arrays)) == items
    assert max(longest) == _SLICE


@pytest.mark.parametrize("argv", [
    ["enumerate", "tri.json", "--n", "200"],
    ["reconstruct", "tri.json", "--up-to", "60"],
    ["is-morphism", "d1.json", "d1.json", "/no/such/map.json"],
    ["lift", "d1.json", "d1.json", "cut.json"],
    ["enumerate", "circle.json", "--n", "01"],
], ids=["enumerate-cap", "reconstruct-cap", "missing-map", "cut-map",
        "bad-n"])
def test_refusals_start_no_output(files, tmp_path, capsys, monkeypatch,
                                  argv):
    # every check runs before the writer is entered: a refusal leaves
    # stdout empty with output streamed
    cut = tmp_path / "cut.json"
    cut.write_text('{"0": [[[0], [0], 1]')
    files = dict(files, **{"cut.json": str(cut)})

    def written(*args):
        raise AssertionError("output was started")

    monkeypatch.setattr(cio, "write_json", written)
    try:
        code = main([files.get(a, a) for a in argv])
    except SystemExit as exc:  # argparse refuses a malformed count
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_each_standard_simplex_is_built_once(files, capsys, monkeypatch):
    # reconstruct reads the standard simplices per level, per k and per
    # operator; each is built once
    built = []
    build = simplicial.build_complex

    def spy(facets):
        facets = list(facets)
        built.extend(len(f) - 1 for f in facets)
        return build(facets)

    simplicial.standard_simplex.cache_clear()
    monkeypatch.setattr(simplicial, "build_complex", spy)
    assert main(["reconstruct", files["rp2.json"], "--up-to", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert sorted(built) == [0, 1, 2, 3]

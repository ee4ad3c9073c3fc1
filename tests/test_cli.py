import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diskapprox
from diskapprox import bench, checks, cli, geometry
from diskapprox.cli import main
from diskapprox.covering import ArrivalSequence, color_online_firstfit
from diskapprox.domination import connected_dominating_set
from diskapprox.errors import BadParameter
from diskapprox.formats import read_instance, write_instance
from diskapprox.geometry import GeometricInstance, instance_to_graph, random_instance
from diskapprox.graphs import VertexSet, build_graph, induced_subgraph, is_connected
from diskapprox.problems import PROBLEMS
from diskapprox.rng import Rng


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def geo_instance(tmp_path):
    path = tmp_path / "geo.udg"
    write_instance(random_instance(12, 5.0, 1.0, 424), path)
    return str(path)


@pytest.fixture
def connected_instance(tmp_path, capsys):
    path = tmp_path / "connected.udg"
    code, _, _ = run(
        capsys, "gen", "-n", "10", "--box", "5", "--radius", "1",
        "--seed", "99", "--connected", "-o", str(path),
    )
    assert code == 0
    return str(path)


class TestBound:
    def test_square(self, capsys):
        code, out, _ = run(capsys, "bound", "--polygon", "4")
        assert code == 0 and out == "15\n"

    def test_triangle_and_hexagon(self, capsys):
        assert run(capsys, "bound", "--polygon", "3")[1] == "22\n"
        assert run(capsys, "bound", "--polygon", "6")[1] == "11\n"

    def test_degenerate_polygon(self, capsys):
        code, _, err = run(capsys, "bound", "--polygon", "2")
        assert code == 1 and "error" in err

    def test_huge_polygon_is_an_error_line(self, capsys):
        code, out, err = run(capsys, "bound", "--polygon", str(10**400))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestGen:
    def test_deterministic_output(self, capsys):
        args = ("gen", "-n", "15", "--box", "6", "--radius", "1", "--seed", "5")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second
        assert first[0] == 0
        assert first[1].startswith("udg 1 geometric\n")

    def test_connected_flag(self, connected_instance):
        assert is_connected(instance_to_graph(read_instance(connected_instance)))

    def test_radius_range(self, capsys, tmp_path):
        path = tmp_path / "circle.udg"
        code, _, _ = run(
            capsys, "gen", "-n", "8", "--box", "6", "--radius", "0.5:2",
            "--seed", "3", "-o", str(path),
        )
        assert code == 0
        inst = read_instance(str(path))
        assert isinstance(inst, GeometricInstance) and not inst.unit

    def test_bad_parameters(self, capsys):
        code, _, err = run(capsys, "gen", "-n", "0", "--box", "5", "--radius", "1", "--seed", "1")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("box, radius", [("nan", "1"), ("5", "nan"), ("5", "1:inf")])
    def test_non_finite_parameters(self, capsys, box, radius):
        argv = ["gen", "-n", "3", "--box", box, "--radius", radius, "--seed", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "finite" in err


class TestSolve:
    def test_mis_on_colocated_disks(self, capsys, tmp_path):
        path = tmp_path / "k20.udg"
        write_instance(random_instance(20, 0.5, 1.0, 7), path)
        code, out, _ = run(capsys, "solve", str(path), "--problem", "mis")
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_every_problem_passes_verify(self, capsys, tmp_path, connected_instance):
        argvs = [[p] for p in ("vc", "color", "online-color", "mis", "ds", "ids", "tds", "cds")]
        argvs.append(["online-color", "--order", "random:5"])
        for index, extra in enumerate(argvs):
            code, out, _ = run(capsys, "solve", connected_instance, "--problem", *extra)
            assert code == 0, extra
            solution_path = tmp_path / f"{index}.json"
            solution_path.write_text(out)
            verify_code, verdict, _ = run(capsys, "verify", connected_instance, str(solution_path))
            assert verify_code == 0 and verdict == "valid\n", extra

    @pytest.mark.parametrize("problem, flag, owner", [
        ("vc", "--root=999", "cds"),
        ("online-color", "--root=1", "cds"),
        ("vc", "--order=bogus", "online-color"),
        ("cds", "--order=ids", "online-color"),
    ])
    def test_refuses_an_option_the_problem_ignores(self, capsys, geo_instance, problem, flag, owner):
        code, out, err = run(capsys, "solve", geo_instance, "--problem", problem, flag)
        assert (code, out) == (1, "")
        assert err == f"error: {flag.split('=')[0]} applies only to --problem {owner}\n"

    def test_omitted_root_and_order_take_their_defaults(self, capsys, connected_instance):
        for problem, flag in (("cds", "--root=0"), ("online-color", "--order=ids")):
            code, plain, _ = run(capsys, "solve", connected_instance, "--problem", problem)
            assert code == 0
            assert run(capsys, "solve", connected_instance, "--problem", problem, flag) == (
                0, plain, ""
            )
        assert json.loads(plain)["meta"]["order"] == list(range(10))

    def test_online_color_orders(self, capsys, geo_instance):
        code, out, _ = run(
            capsys, "solve", geo_instance, "--problem", "online-color",
            "--order", "random:9",
        )
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc["meta"]["order"]) == list(range(12))

    def test_online_color_list_order(self, capsys, geo_instance):
        order = list(range(11, -1, -1))
        code, out, _ = run(
            capsys, "solve", geo_instance, "--problem", "online-color",
            "--order", ",".join(map(str, order)),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["order"] == order
        G = instance_to_graph(read_instance(geo_instance))
        assert doc["colors"] == list(color_online_firstfit(G, ArrivalSequence.of(order)).colors)

    @pytest.mark.parametrize("spec, message", [
        ("0,0,1", "arrival order must be a permutation of 0..n-1"),
        ("1,0", "arrival sequence does not match the graph"),
    ], ids=["repeated-id", "too-short"])
    def test_rejects_a_list_order_that_is_no_arrival_order(self, capsys, geo_instance, spec, message):
        code, out, err = run(
            capsys, "solve", geo_instance, "--problem", "online-color", "--order", spec,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_cds_meta_carries_trace(self, capsys, connected_instance):
        code, out, _ = run(capsys, "solve", connected_instance, "--problem", "cds", "--root", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["root"] == 2
        assert doc["meta"]["trace"]["independent"][0] == [2]

    def test_cds_default_root_is_zero(self, capsys, connected_instance):
        G = instance_to_graph(read_instance(connected_instance))
        chosen, trace = connected_dominating_set(G)
        assert (chosen, trace) == connected_dominating_set(G, 0)
        code, out, _ = run(capsys, "solve", connected_instance, "--problem", "cds")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == list(chosen.members)
        assert doc["meta"]["root"] == 0
        assert doc["meta"]["trace"] == trace
        assert trace["independent"][0] == [0]
        # lists of int lists, so the JSON writer renders each level through list.__repr__
        assert type(trace["depth"]) is int
        assert sorted(trace) == ["connectors", "depth", "dominated", "independent", "levels"]
        for key in ("levels", "dominated", "independent", "connectors"):
            assert type(trace[key]) is list
            assert all(type(level) is list and set(map(type, level)) <= {int} for level in trace[key])

    def test_class_certificate_exit_code(self, capsys, tmp_path):
        K44 = build_graph(8, [(u, 4 + v) for u in range(4) for v in range(4)])
        path = tmp_path / "k44.udg"
        write_instance(K44, path)
        assert run(capsys, "solve", str(path), "--problem", "vc") == (
            2, "", "error: residual subgraph has minimum degree 4 > 3\n"
        )
        assert run(capsys, "solve", str(path), "--problem", "mis") == (
            2, "", "error: no vertex has neighborhood independence number <= 3\n"
        )
        # the circle variant has enough colors for this graph
        code, out, _ = run(capsys, "solve", str(path), "--problem", "vc", "--variant", "circle")
        assert code == 0
        assert json.loads(out)["value"] == 4
        assert checks.is_vertex_cover(K44, json.loads(out)["vertices"])
        solution = tmp_path / "k44-circle.json"
        solution.write_text(out)
        assert run(capsys, "verify", str(path), str(solution)) == (0, "valid\n", "")

    def test_vc_on_a_ring_of_2001_disks(self, capsys, tmp_path):
        # an odd cycle: valid unit-disk input whose matching needs long augmenting paths
        n = 2001
        radius = 0.75 / math.sin(math.pi / n)  # neighbors 1.5 apart, next-nearest 3
        angles = [2 * math.pi * k / n for k in range(n)]
        path = tmp_path / "ring.udg"
        ring = GeometricInstance(
            tuple((radius * math.cos(a), radius * math.sin(a), 1.0) for a in angles)
        )
        write_instance(ring, path)
        code, out, _ = run(capsys, "solve", str(path), "--problem", "vc")
        assert code == 0
        assert json.loads(out)["value"] <= 1.5 * (n + 1) / 2
        solution = tmp_path / "ring-vc.json"
        solution.write_text(out)
        assert run(capsys, "verify", str(path), str(solution))[:2] == (0, "valid\n")

    @pytest.mark.parametrize("line", ["disk 0 nan 0 1", "disk 0 0 inf 1", "disk 0 0 0 inf"])
    def test_non_finite_disk_fields(self, capsys, tmp_path, line):
        path = tmp_path / "bad.udg"
        path.write_text(f"udg 1 geometric\n{line}\n")
        code, _, err = run(capsys, "solve", str(path), "--problem", "vc")
        assert code == 1 and "line 2" in err

    def test_negative_radius_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.udg"
        path.write_text("udg 1 geometric\ndisk 1 1 0 -1\n")
        code, _, err = run(capsys, "solve", str(path), "--problem", "vc")
        assert code == 1 and "line 2" in err and "radius" in err
        path.write_text("udg 1 geometric\ndisk 0 0 0 1\n\ndisk 1 0 0 -1\n")
        assert run(capsys, "solve", str(path), "--problem", "vc") == (
            1, "", "error: line 4: radius -1.0 must be positive\n"
        )

    def test_non_ascii_byte_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.udg"
        path.write_bytes(b"udg 1 geometric\ndisk 0 0 0 1\ndisk 1\xc2\xa01 0 1\n")
        for command in (["solve", str(path), "--problem", "vc"], ["verify", str(path), str(path)]):
            assert run(capsys, *command) == (1, "", "error: line 3: non-ASCII byte 0xc2\n")

    @pytest.mark.parametrize("line", [
        "disk 0 3.273390607896142e+150 0 1",
        "disk 0 -3.273390607896142e+150 0 1",
        "disk 0 0 3.273390607896142e+150 1",
        "disk 0 0 -3.273390607896142e+150 1",
        "disk 0 0 0 3.054936363499605e-151",
        "disk 0 0 0 3.273390607896142e+150",
    ])
    def test_accepts_disks_at_the_magnitude_limits(self, capsys, tmp_path, line):
        path = tmp_path / "extreme.udg"
        path.write_text(f"udg 1 geometric\n{line}\n")
        code, out, _ = run(capsys, "solve", str(path), "--problem", "mis")
        assert code == 0 and json.loads(out)["vertices"] == [0]

    @pytest.mark.parametrize("lines, reason", [
        pytest.param(lines, reason, id=lines) for lines, reason in [
            ("disk 0 0 0 1e200\ndisk 1 3e200 0 1e200", "radius 1e+200 must lie in [2^-500, 2^500]"),
            ("disk 0 0 0 1e-200\ndisk 1 3e-200 0 1e-200", "radius 1e-200 must lie in [2^-500, 2^500]"),
            ("disk 0 1e300 0 1e-10\ndisk 1 0 0 1e-10", "coordinates must lie within 2^500 of 0"),
            ("disk 0 3.2733906078961426e+150 0 1", "coordinates must lie within 2^500 of 0"),
            ("disk 0 -3.2733906078961426e+150 0 1", "coordinates must lie within 2^500 of 0"),
            ("disk 0 0 3.2733906078961426e+150 1", "coordinates must lie within 2^500 of 0"),
            ("disk 0 0 -3.2733906078961426e+150 1", "coordinates must lie within 2^500 of 0"),
            ("disk 0 0 0 3.0549363634996043e-151",
             "radius 3.0549363634996043e-151 must lie in [2^-500, 2^500]"),
            ("disk 0 0 0 3.2733906078961426e+150",
             "radius 3.2733906078961426e+150 must lie in [2^-500, 2^500]"),
            ("disk 0 0 0 0", "radius 0.0 must be positive"),
            ("disk 0 0 0 -0", "radius -0.0 must be positive"),
            ("disk 0 0 0 -1", "radius -1.0 must be positive"),
            *((f"disk 0 {fields}", "disk fields must be finite") for fields in (
                "nan 0 1", "inf 0 1", "-inf 0 1", "0 nan 1", "0 inf 1", "0 -inf 1",
                "0 0 nan", "0 0 inf", "0 0 -inf",
            )),
        ]
    ])
    def test_rejects_disks_beyond_the_magnitude_limits(self, capsys, tmp_path, lines, reason):
        path = tmp_path / "extreme.udg"
        path.write_text(f"udg 1 geometric\n{lines}\n")
        code, out, err = run(capsys, "solve", str(path), "--problem", "mis")
        assert code == 1 and out == "" and err == f"error: line 2: {reason}\n"

    def test_bad_edge_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.udg"
        path.write_text("udg 1 abstract\nn 3\nedge 0 7\n")
        code, out, err = run(capsys, "solve", str(path), "--problem", "vc")
        assert code == 1 and out == "" and err == "error: line 3: edge (0, 7) outside [0, 3)\n"

    def test_mis_pairs_the_disks_once(self, capsys, monkeypatch, geo_instance):
        calls = []
        adjacency = geometry._adjacency

        def counted(*args):
            calls.append(args)
            return adjacency(*args)

        monkeypatch.setattr(geometry, "_adjacency", counted)
        code, out, _ = run(capsys, "solve", geo_instance, "--problem", "mis")
        assert code == 0 and json.loads(out)["meta"]["method"] == "sweep"
        assert len(calls) == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "no-such-file.udg", "--problem", "vc")
        assert code == 1 and "error" in err


class TestExact:
    def test_matches_library(self, capsys, connected_instance):
        from diskapprox.exact import exact_vc

        G = instance_to_graph(read_instance(connected_instance))
        code, out, _ = run(capsys, "exact", connected_instance, "--problem", "vc")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == exact_vc(G)[0]
        assert checks.is_vertex_cover(G, doc["vertices"])

    def test_chromatic_witness(self, capsys, connected_instance):
        G = instance_to_graph(read_instance(connected_instance))
        code, out, _ = run(capsys, "exact", connected_instance, "--problem", "color")
        assert code == 0
        doc = json.loads(out)
        assert checks.is_proper_coloring(G, doc["colors"])

    def test_abstract_optima_verify_and_repeat(self, capsys, tmp_path):
        # a triangle 0-1-2 with the path 2-3-4-5 hanging off vertex 2
        path = tmp_path / "abstract.udg"
        path.write_text(
            "udg 1 abstract\nn 6\nedge 0 1\nedge 1 2\nedge 2 0\nedge 2 3\nedge 3 4\nedge 4 5\n"
        )
        for problem, optimum in (("vc", 3), ("mis", 3), ("ds", 2), ("ids", 2), ("tds", 3), ("cds", 3)):
            code, out, err = run(capsys, "exact", str(path), "--problem", problem)
            assert (code, err) == (0, ""), problem
            assert json.loads(out)["value"] == optimum, problem
            assert run(capsys, "exact", str(path), "--problem", problem) == (0, out, ""), problem
            solution = tmp_path / f"{problem}.json"
            solution.write_text(out)
            assert run(capsys, "verify", str(path), str(solution)) == (0, "valid\n", ""), problem

    def test_refuses_past_the_connected_cap(self, capsys, tmp_path):
        # the same words bench prints for its mis,cds row past the cap
        path = tmp_path / "path17.udg"
        path.write_text("udg 1 abstract\nn 17\n" + "".join(f"edge {v} {v + 1}\n" for v in range(16)))
        code, out, err = run(capsys, "exact", str(path), "--problem", "cds")
        assert (code, out, err) == (1, "", "error: n=17 exceeds the connected-domination cap 16\n")


class TestVerify:
    def test_rejects_tampered_solution(self, capsys, tmp_path, geo_instance):
        code, out, _ = run(capsys, "solve", geo_instance, "--problem", "ds")
        doc = json.loads(out)
        doc["vertices"] = doc["vertices"][:-1] if doc["vertices"] else [0]
        doc["value"] = len(doc["vertices"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, verdict, _ = run(capsys, "verify", geo_instance, str(bad))
        assert code == 1 and verdict.startswith("invalid")

    @pytest.mark.parametrize("text, verdict", [
        pytest.param('{"problem": "mis", "value": 3, "vertices": [97, 98, 99]}',
                     "invalid: vertex id", id="ids-beyond-n"),
        pytest.param('{"problem": "mis", "value": 1, "vertices": [-1]}',
                     "invalid: vertex id", id="negative-id"),
        pytest.param('{"problem": "mis", "value": 3, "vertices": [0, 0, 0]}',
                     "invalid: repeated", id="repeated-mis-id"),
        pytest.param('{"problem": "vc", "value": 12, "vertices": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9]}',
                     "invalid: repeated", id="repeated-vc-id"),
        pytest.param('{"problem": "mis", "value": 1, "vertices": 5}', "error: ", id="vertices-int"),
        pytest.param('{"problem": "mis", "value": 1, "vertices": [[0]]}', "error: ", id="nested-id"),
        pytest.param('{"problem": "mis", "value": 1, "vertices": [true]}', "error: ", id="bool-id"),
        pytest.param('{"problem": "mis", "value": 1, "vertices": [0.0]}', "error: ", id="float-id"),
        pytest.param('{"problem": ["vc"], "value": 1, "vertices": [0]}', "error: ", id="problem-list"),
        pytest.param('{"problem": "mis", "value": true, "vertices": [0]}', "error: ", id="bool-value"),
        pytest.param('{"problem": "mis", "value": "1", "vertices": [0]}', "error: ", id="string-value"),
        pytest.param('{"problem": "color", "value": 1, "colors": {"0": 1}}', "error: ", id="colors-dict"),
        pytest.param('{"problem": "color", "value": 1, "colors": [[1]]}', "error: ", id="nested-color"),
        pytest.param("[" * 100_000, "error: ", id="deep-nesting"),
        pytest.param("", "error: solution document is not JSON: Expecting value: line 1 column 1"
                     " (char 0)\n", id="empty-file"),
        pytest.param("{", "error: solution document is not JSON: Expecting property name enclosed"
                     " in double quotes: line 1 column 2 (char 1)\n", id="open-brace"),
        # the instance has 10 vertices and some edge; a verdict ending in a
        # newline must be the whole first line
        pytest.param('{"problem": "tsp", "value": 0, "vertices": []}',
                     "invalid: unknown problem 'tsp'\n", id="unknown-problem"),
        pytest.param(json.dumps({"problem": "color", "value": 1, "colors": [1] * 10}),
                     "invalid: coloring is not proper\n", id="monochrome"),
        pytest.param(json.dumps({"problem": "color", "value": 9, "colors": list(range(1, 10))}),
                     "invalid: coloring is not proper\n", id="coloring-one-short"),
        pytest.param(json.dumps({"problem": "color", "value": 10, "colors": list(range(10))}),
                     "invalid: coloring is not proper\n", id="color-zero"),
        pytest.param(json.dumps({"problem": "color", "value": 11, "colors": list(range(1, 11))}),
                     "invalid: value does not match the number of colors\n", id="color-count"),
        pytest.param(json.dumps({"problem": "vc", "value": 9, "vertices": list(range(10))}),
                     "invalid: value does not match the vertex count\n", id="vertex-count"),
        pytest.param('{"problem": "cds", "value": 0, "vertices": []}',
                     "invalid: not a valid cds solution\n", id="empty-cds"),
    ])
    def test_rejects_forged_documents(self, capsys, tmp_path, connected_instance, text, verdict):
        forged = tmp_path / "forged.json"
        forged.write_text(text)
        code, out, err = run(capsys, "verify", connected_instance, str(forged))
        assert code == 1 and (out + err).startswith(verdict)

    @pytest.mark.parametrize("prefix, tail", [
        pytest.param(b"", b"\xfe", id="byte-order-mark"),
        pytest.param(b'{"problem": "vc", "value": 1, "vertices": [', b"0]}", id="after-json-prefix"),
    ])
    def test_names_a_byte_that_is_not_utf8(self, capsys, tmp_path, connected_instance, prefix, tail):
        forged = tmp_path / "forged.json"
        forged.write_bytes(prefix + b"\xff" + tail)
        code, out, err = run(capsys, "verify", connected_instance, str(forged))
        assert (code, out) == (1, "")
        assert err == f"error: solution document is not UTF-8: byte 0xff at offset {len(prefix)}\n"


def _near_tangent_fuzz(seed, pairs=40):
    """Pairs of disks with radii in [0.5, 2] placed at tangency by a rotation,
    so rounding decides each pair's edge."""
    rng = Rng(seed)
    disks = []
    for _ in range(pairs):
        x, y = 60.0 * rng.uniform() - 30.0, 60.0 * rng.uniform() - 30.0
        r, s = 0.5 + 1.5 * rng.uniform(), 0.5 + 1.5 * rng.uniform()
        angle = 2.0 * math.pi * rng.uniform()
        disks += [(x, y, r), (x + (r + s) * math.cos(angle), y + (r + s) * math.sin(angle), s)]
    return tuple(disks)


def _with_a_radius_16_disk():
    disks = random_instance(150, 30.0, 0.5, 77, 2.0).disks
    return disks + ((15.0, 15.0, 16.0),)


# Shapes where pairing a subset could differ from the full graph: tangent
# chains, coincident centers, one radius-16 disk, the rounding pair
# (-1e-20, 0, 1), (2, 0, 1) and near-tangent pairs.  The small ones pair every
# set by testing all pairs; on the 80- to 300-disk ones some sets exceed
# _ALL_PAIRS_MAX and take the strip sweep.
VERIFY_INSTANCES = {
    "tangent-chain-24": tuple((2.0 * i, 0.0, 1.0) for i in range(24)),
    "tangent-chain-100": tuple((2.0 * i, 0.0, 1.0) for i in range(100)),
    "coincident-centers": ((0.0, 0.0, 1.0),) * 14 + ((1.5, 0.0, 1.0),) * 12 + ((5.0, 0.0, 1.0),) * 10,
    "radius-16": _with_a_radius_16_disk(),
    "bucket-pair": ((-1e-20, 0.0, 1.0), (2.0, 0.0, 1.0)),
    "near-tangent-fuzz": _near_tangent_fuzz(0x7A),
    "unit-300": random_instance(300, 25.0, 1.0, 5).disks,
}


def _documents(problem, G, doc):
    """``doc``, a valid solve document, and documents each breaking it one way."""
    n = G.n
    if "colors" in doc:
        colors = doc["colors"]
        lists = [colors]
        for v in [v for v in range(n) if G.adj[v]][:4]:
            forged = list(colors)
            forged[v] = colors[G.adj[v][0]]  # v and a neighbor share a class
            lists.append(forged)
        lists += [colors[:-1], [0] + colors[1:]]  # a wrong length, a color 0
        docs = [{"problem": problem, "value": max(c, default=0), "colors": c} for c in lists]
        return docs + [{"problem": problem, "value": doc["value"] + 1, "colors": colors}]
    vertices = doc["vertices"]
    dropped = [[u for u in vertices if u != v] for v in vertices[:4]]
    if problem == "vc":
        # dropping a cover vertex leaves its edges into the complement uncovered
        sets = [vertices, list(range(n))] + dropped
    elif problem == "mis":
        # a maximal independent set meets every other vertex's neighborhood
        outside = sorted(set(range(n)).difference(vertices))
        sets = [vertices, []] + [sorted(vertices + [v]) for v in outside[:4]]
    else:
        # dropping a member may leave a disk undominated
        sets = [vertices, [], list(range(n))] + dropped
        chosen = set(vertices)
        if problem == "ids":  # a member's neighbor joins it
            sets += [sorted(vertices + [u]) for v in vertices[:4] for u in G.adj[v][:1]
                     if u not in chosen]
        if problem == "cds":  # a member whose loss disconnects the set
            rests = ([u for u in vertices if u != v] for v in vertices)
            sets += [rest for rest in rests
                     if not is_connected(induced_subgraph(G, VertexSet.of(rest, n))[0])][:1]
    docs = [{"problem": problem, "value": len(s), "vertices": s} for s in sets]
    return docs + [
        {"problem": problem, "value": len(vertices) + 1, "vertices": vertices + [n]},
        {"problem": problem, "value": len(vertices) + 1, "vertices": vertices + vertices[:1]},
        {"problem": problem, "value": len(vertices) + 1, "vertices": vertices},
    ]


class TestVerifyPairsASubset:
    """verify on disks never pairs the whole instance: it pairs only the sets
    whose edges decide the verdict, tests domination against a cell index of
    the chosen disks, and gives the verdict of the full graph."""

    @pytest.mark.parametrize("name", sorted(VERIFY_INSTANCES))
    def test_verdicts_equal_the_full_graph_checks(self, capsys, monkeypatch, tmp_path, name):
        path = tmp_path / "inst.udg"
        write_instance(GeometricInstance(VERIFY_INSTANCES[name]), path)
        G = instance_to_graph(read_instance(path))
        sizes = []
        adjacency = geometry._adjacency

        def counted(disks, *rest):
            sizes.append(len(disks))
            return adjacency(disks, *rest)

        monkeypatch.setattr(geometry, "_adjacency", counted)
        forged = 0
        paired = []
        base = None
        for problem in PROBLEMS:
            code, out, _ = run(capsys, "solve", str(path), "--problem", problem)
            if code != 0:
                # tds with an isolated disk, cds on a disconnected instance:
                # start from the dominating set
                assert problem in ("tds", "cds") and code == 1, problem
                out = json.dumps(dict(base, problem=problem))
            elif problem == "ds":
                base = json.loads(out)
            sizes.clear()
            for doc in _documents(problem, G, json.loads(out)):
                # the verdict of the full graph: abstract files still run checks
                expected_ok, reason = cli._validate_solution(G, doc)
                forged += not expected_ok and reason.startswith(("not a valid", "coloring"))
                solution = tmp_path / "solution.json"
                solution.write_text(json.dumps(doc))
                verdict = "valid\n" if expected_ok else f"invalid: {reason}\n"
                assert run(capsys, "verify", str(path), str(solution)) == (
                    0 if expected_ok else 1, verdict, ""
                ), (problem, doc)
            paired += sizes
        assert forged > 0 and min(paired) <= geometry._ALL_PAIRS_MAX
        if G.n >= 80:  # the strip sweep pairs some set here
            assert max(paired) > geometry._ALL_PAIRS_MAX

    @pytest.mark.parametrize("problem", list(PROBLEMS))
    def test_pairs_only_what_the_predicate_reads(self, capsys, monkeypatch, tmp_path, problem):
        path = tmp_path / "unit.udg"
        inst = GeometricInstance(VERIFY_INSTANCES["tangent-chain-100"])
        write_instance(inst, path)
        code, out, _ = run(capsys, "solve", str(path), "--problem", problem)
        doc = json.loads(out)
        solution = tmp_path / "solution.json"
        solution.write_text(out)
        calls = []
        adjacency = geometry._adjacency

        def counted(disks, *rest):
            calls.append(len(disks))
            return adjacency(disks, *rest)

        def refuse(*_):
            raise AssertionError("the whole instance was paired")

        monkeypatch.setattr(geometry, "_adjacency", counted)
        monkeypatch.setattr(cli, "instance_to_graph", refuse)
        monkeypatch.setattr(geometry, "instance_to_graph", refuse)
        assert run(capsys, "verify", str(path), str(solution)) == (0, "valid\n", "")
        if problem == "vc":
            expected = [inst.n - len(doc["vertices"])]
        elif problem in ("mis", "ids", "cds"):
            expected = [len(doc["vertices"])]
        elif "colors" in doc:
            expected = [doc["colors"].count(c) for c in dict.fromkeys(doc["colors"])]
        else:
            expected = []  # ds and tds query a cell index and pair nothing
        assert calls == expected


class TestBench:
    def test_byte_identical_runs(self, capsys):
        args = (
            "bench", "--instances", "4", "--n-range", "6:10",
            "--problems", "vc,mis,ds", "--seed", "11",
        )
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second
        assert first[0] == 0

    def test_csv_schema_and_bounds(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--instances", "3", "--n-range", "6:9",
            "--problems", "vc,color,online-color,mis,ds,ids,tds,cds", "--seed", "2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "seed,n,box,radius,problem,heur,opt,ratio,bound,ms"
        assert len(lines) == 1 + 3 * 8
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 10
            ratio, bound = float(fields[7]), float(fields[8])
            assert 1.0 <= ratio <= bound + 1e-9
            assert fields[9] == "0"  # reproducible by default

    def test_timings_fill_only_the_ms_column(self, capsys):
        args = ("bench", "--instances", "3", "--n-range", "6:9", "--problems", "vc,cds", "--seed", "5")
        code, plain, _ = run(capsys, *args)
        assert code == 0
        code, timed, _ = run(capsys, *args, "--timings")
        assert code == 0
        assert run(capsys, *args) == (0, plain, "")
        plain_rows = [line.split(",") for line in plain.splitlines()]
        timed_rows = [line.split(",") for line in timed.splitlines()]
        assert len(plain_rows) == len(timed_rows) == 1 + 3 * 2
        assert timed_rows[0] == plain_rows[0]
        for fixed, timed_row in zip(plain_rows[1:], timed_rows[1:]):
            assert fixed[9] == "0"
            assert timed_row[:9] == fixed[:9]
            assert timed_row[9] == str(int(timed_row[9])) and int(timed_row[9]) >= 0

    def test_circle_variant(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--instances", "2", "--n-range", "6:8",
            "--problems", "vc,color,mis", "--seed", "4", "--radius", "0.5:2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3] == "0.5:2"
            assert 1.0 <= float(fields[7]) <= float(fields[8]) + 1e-9

    def test_equal_radius_range_is_the_unit_variant(self, capsys):
        args = ("bench", "--instances", "3", "--n-range", "6:9", "--problems", "vc,ds", "--seed", "4")
        unit = run(capsys, *args, "--radius", "1")
        assert unit[0] == 0
        assert run(capsys, *args, "--radius", "1:1") == unit

    @pytest.mark.parametrize("instances, n_low, n_high, problems, message", [
        (0, 6, 8, ("vc",), "need at least one instance"),
        (1, 8, 6, ("vc",), "bad n range"),
        (1, 6, 8, ("vc", "tsp"), "unknown problems: ['tsp']"),
        (1, 6, 8, (), "need at least one problem"),
    ], ids=["no-instances", "misordered-n-range", "unknown-problem", "no-problems"])
    def test_run_bench_rejects_bad_arguments(self, instances, n_low, n_high, problems, message):
        with pytest.raises(BadParameter) as info:
            bench.run_bench(instances, n_low, n_high, problems, seed=1)
        assert str(info.value) == message

    @pytest.mark.parametrize("n, problems, message", [
        (300, "vc", "n=300 exceeds the vertex-cover cap 24"),
        (100, "vc", "n=100 exceeds the vertex-cover cap 24"),
        (17, "mis,cds", "n=17 exceeds the connected-domination cap 16"),
        (19, "ds", "n=19 exceeds the domination cap 18"),
        (17, "color", "n=17 exceeds the chromatic cap 16"),
        # nothing to solve: refused before a draw of 20,000 disks
        (20_000, ",", "need at least one problem"),
        (20_000, "", "need at least one problem"),
    ])
    def test_oracle_cap_is_checked_before_the_draw(self, capsys, monkeypatch, n, problems, message):
        def no_draw(*args):
            raise AssertionError("drew an instance the oracle refuses")

        monkeypatch.setattr(bench, "random_connected_instance", no_draw)
        code, out, err = run(
            capsys, "bench", "--instances", "1", "--n-range", f"{n}:{n}",
            "--problems", problems, "--seed", "1",
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_circle_variant_rejects_domination(self, capsys):
        code, _, err = run(
            capsys, "bench", "--instances", "1", "--n-range", "6:6",
            "--problems", "ds", "--seed", "4", "--radius", "0.5:2",
        )
        assert code == 1 and "error" in err


    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-2"])
    def test_rejects_bad_mean_degree(self, capsys, value):
        code, out, err = run(
            capsys, "bench", "--instances", "1", "--n-range", "6:6",
            "--problems", "vc", "--seed", "4", f"--mean-degree={value}",
        )
        assert code == 1 and out == "" and "mean_degree" in err

    @pytest.mark.parametrize("spec", ["5", "5:", ":5", "a:b", "1:2:3", "1.5:3", ""])
    def test_rejects_bad_n_range(self, capsys, spec):
        code, out, err = run(
            capsys, "bench", "--instances", "1", f"--n-range={spec}",
            "--problems", "vc", "--seed", "4",
        )
        assert code == 1 and out == ""
        assert err == f"error: --n-range must be two integers LOW:HIGH, got {spec!r}\n"

    @pytest.mark.parametrize("spec", ["6:5", "0:3", "0:0", "-1:4"])
    def test_rejects_misordered_n_range(self, capsys, spec):
        code, out, err = run(
            capsys, "bench", "--instances", "1", f"--n-range={spec}",
            "--problems", "vc", "--seed", "4",
        )
        assert code == 1 and out == ""
        assert err == f"error: --n-range needs 1 <= LOW <= HIGH, got {spec!r}\n"

    @pytest.mark.parametrize("spec, name", [
        ("nan", "radius"), ("0", "radius"), ("inf", "radius"),
        ("1:nan", "radius_high"), ("0.5:inf", "radius_high"), ("-1:2", "radius"),
    ])
    def test_rejects_bad_radius(self, capsys, spec, name):
        code, out, err = run(
            capsys, "bench", "--instances", "1", "--n-range", "6:6",
            "--problems", "vc", "--seed", "4", f"--radius={spec}",
        )
        assert code == 1 and out == ""
        assert f"error: {name} " in err and "box" not in err

    @pytest.mark.parametrize("option", [
        "--radius=1e150", "--radius=1e80", "--radius=1e62:2e62",
        "--mean-degree=1e-300", "--radius=1e-150",
    ])
    def test_rejects_unrepresentable_box(self, capsys, option):
        # accepted values whose tuned box side overflows or underflows a float
        code, out, err = run(
            capsys, "bench", "--instances", "1", "--n-range", "8:8",
            "--problems", "vc", "--seed", "1", option,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: no box side for --radius ") and "--mean-degree" in err
        assert err.count("\n") == 1 and err.endswith("\n")


class TestModuleEntry:
    def test_python_dash_m_exit_codes(self, tmp_path):
        """``python -m diskapprox`` runs cli.main and exits with its code: 0, 1 and 2."""
        env = {**os.environ, "PYTHONPATH": str(Path(diskapprox.__file__).parents[1])}
        bad = tmp_path / "bad.udg"
        bad.write_text("udg 1 abstract\nn 3\nedge 0 7\n")
        k44 = tmp_path / "k44.udg"
        write_instance(build_graph(8, [(u, 4 + v) for u in range(4) for v in range(4)]), k44)
        for argv, expected in (
            (["bound", "--polygon", "4"], (0, "15\n", "")),
            (["solve", str(bad), "--problem", "vc"],
             (1, "", "error: line 3: edge (0, 7) outside [0, 3)\n")),
            (["solve", str(k44), "--problem", "vc"],
             (2, "", "error: residual subgraph has minimum degree 4 > 3\n")),
        ):
            done = subprocess.run(
                [sys.executable, "-m", "diskapprox", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert (done.returncode, done.stdout, done.stderr) == expected, argv


class TestUsage:
    @pytest.mark.parametrize("command, spec", [
        (["bench", "--instances", "1", "--n-range", "6:6", "--problems", "vc", "--seed", "4"], "a"),
        (["bench", "--instances", "1", "--n-range", "6:6", "--problems", "vc", "--seed", "4"], "1:a"),
        (["gen", "-n", "3", "--box", "5", "--seed", "1"], "1:"),
        (["gen", "-n", "3", "--box", "5", "--seed", "1"], ""),
    ])
    def test_bad_radius_names_its_option(self, capsys, command, spec):
        code, out, err = run(capsys, *command, f"--radius={spec}")
        assert code == 1 and out == ""
        assert err == f"error: --radius must be R or LOW:HIGH, got {spec!r}\n"

    @pytest.mark.parametrize("spec", ["random:x", "random:", "1,2,x", "0,,1"])
    def test_bad_order_names_its_option(self, capsys, geo_instance, spec):
        code, out, err = run(
            capsys, "solve", geo_instance, "--problem", "online-color", f"--order={spec}",
        )
        assert code == 1 and out == ""
        assert err == (
            "error: --order must be 'ids', 'random:SEED' or a comma-separated list of vertex ids, "
            f"got {spec!r}\n"
        )

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_out_of_memory_is_an_error_message(self, capsys, monkeypatch, tmp_path,
                                               geo_instance, command):
        code, out, _ = run(capsys, "solve", geo_instance, "--problem", "mis")
        assert code == 0
        solution = tmp_path / "solution.json"
        solution.write_text(out)

        def exhausted(*_):
            raise MemoryError

        monkeypatch.setattr(geometry, "_adjacency", exhausted)
        argv = {"solve": ["solve", geo_instance, "--problem", "mis"],
                "verify": ["verify", geo_instance, str(solution)]}[command]
        assert run(capsys, *argv) == (
            1, "", "error: out of memory: the input is too large or too dense\n"
        )

    def test_unknown_problem(self, capsys):
        code, _, _ = run(capsys, "solve", "x.udg", "--problem", "tsp")
        assert code == 1

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

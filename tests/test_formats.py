import json

import pytest

from diskapprox import geometry
from diskapprox.covering import ArrivalSequence
from diskapprox.errors import BadParameter, ParseError
from diskapprox.formats import (
    parse_instance,
    parse_solution,
    read_instance,
    render_instance,
    solution_document,
    solution_to_json,
    write_instance,
)
from diskapprox.geometry import (
    GeometricInstance,
    instance_to_graph,
    random_connected_instance,
    random_instance,
)
from diskapprox.graphs import Graph, build_graph
from diskapprox.problems import PROBLEMS, Options
from refimpl import C5_EDGES, c5


class TestGeometricFiles:
    def test_round_trip_is_exact(self, tmp_path):
        inst = random_instance(20, 10, 1, 42)
        path = tmp_path / "inst.udg"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_round_trip_survives_rewriting(self, tmp_path):
        inst = random_instance(7, 3, 0.5, 9, radius_high=1.5)
        first = render_instance(inst)
        again = render_instance(parse_instance(first))
        assert first == again

    def test_derives_graph(self):
        inst = parse_instance(render_instance(random_instance(20, 0.5, 1, 3)))
        assert isinstance(inst, GeometricInstance) and instance_to_graph(inst).m == 190

    def test_disk_ids_must_be_dense(self):
        text = "udg 1 geometric\ndisk 0 0 0 1\ndisk 2 1 1 1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_duplicate_disk_id(self):
        text = "udg 1 geometric\ndisk 0 0 0 1\ndisk 0 1 1 1\n"
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert info.value.line_no == 3

    def test_malformed_disk_line(self):
        with pytest.raises(ParseError) as info:
            parse_instance("udg 1 geometric\ndisk 0 zero 0 1\n")
        assert info.value.line_no == 2

    def test_nan_coordinate(self):
        with pytest.raises(ParseError) as info:
            parse_instance("udg 1 geometric\ndisk 0 0 0 1\ndisk 1 nan 0 1\n")
        assert info.value.line_no == 3

    def test_infinite_coordinate(self):
        with pytest.raises(ParseError) as info:
            parse_instance("udg 1 geometric\ndisk 0 0 -inf 1\n")
        assert info.value.line_no == 2

    def test_infinite_radius(self):
        with pytest.raises(ParseError) as info:
            parse_instance("udg 1 geometric\ndisk 0 0 0 1\ndisk 1 1 0 inf\n")
        assert info.value.line_no == 3

    @pytest.mark.parametrize("fields", ["1e151 0 1", "0 -1e151 1", "0 0 1e151", "0 0 1e-151"])
    def test_magnitude_limits(self, fields):
        with pytest.raises(ParseError) as info:
            parse_instance(f"udg 1 geometric\ndisk 0 0 0 1\ndisk 1 {fields}\n")
        assert info.value.line_no == 3

    def test_magnitudes_at_the_limits_parse(self):
        big, tiny = repr(2.0 ** 500), repr(2.0 ** -500)
        doc = parse_instance(f"udg 1 geometric\ndisk 0 -{big} {big} {tiny}\ndisk 1 0 0 {big}\n")
        assert doc.disks == ((-(2.0 ** 500), 2.0 ** 500, 2.0 ** -500), (0.0, 0.0, 2.0 ** 500))

    @pytest.mark.parametrize("line", ["disk 1 1 0 -1", "disk 0 1 0 0", "disk 0 1 0 -0"])
    def test_nonpositive_radius(self, line):
        with pytest.raises(ParseError) as info:
            parse_instance(f"udg 1 geometric\n{line}\n")
        assert info.value.line_no == 2 and "radius" in str(info.value)

    @pytest.mark.parametrize("text", [
        "\n \nudg 1 geometric\ndisk 0 0 0 1\ndisk 1 1.5 0 0.5\ndisk 2 0 2 1\n",
        "udg 1 geometric\n\n \t\ndisk 0 0 0 1\n\ndisk 1 1.5 0 0.5\ndisk 2 0 2 1\n\n\n",
        "udg 1 geometric\r\ndisk 0 0 0 1\r\n\r\ndisk 1 1.5 0 0.5\r\ndisk 2 0 2 1\r\n",
        "udg 1 geometric\rdisk 0 0 0 1\rdisk 1 1.5 0 0.5\rdisk 2 0 2 1",
        "udg 1 geometric\ndisk 2 0 2 1\ndisk 0 0 0 1\ndisk 1 1.5 0 0.5\n",
        "udg 1 geometric\r\ndisk 1 1.5 0 0.5\r\n\r\ndisk 2 0 2 1\r\ndisk 0 0 0 1\r\n\r\n",
        "  udg\t1 geometric \n disk  0 0\t0 1.0\ndisk 1 15e-1 +0 0.50\ndisk 2 0 2 1",
        "\r\n \r\nudg 1 geometric\r\ndisk 2 0 2 1\r\n\r\ndisk 1 1.5 0 0.5\r\ndisk 0 0 0 1\r\n",
    ], ids=["blank-before-header", "blank-lines-between", "crlf", "lone-cr", "shuffled-ids",
            "crlf-blank-shuffled", "spacing", "crlf-blank-header-reversed"])
    def test_accepted_layouts(self, text):
        assert parse_instance(text).disks == ((0.0, 0.0, 1.0), (1.5, 0.0, 0.5), (0.0, 2.0, 1.0))

    @pytest.mark.parametrize("body, message", [
        ("disk 0 0 0 1\n\ndisk 1 0 0 -1\n", "line 4: radius -1.0 must be positive"),
        ("disk 0 0 0 1\r\n\r\n\r\ndisk 1 nan 0 1\r\n", "line 5: disk fields must be finite"),
        ("\ndisk 0 0 -1e151 1\n", "line 3: coordinates must lie within 2^500 of 0"),
        ("disk 1 0 0 1\n\ndisk 0 0 0 1\ndisk 1 1 1 1\n", "line 5: duplicate disk id 1"),
        ("disk 0 0 0 1\ndisk 2 1 1 1\n\n", "line 4: disk ids must be exactly 0..n-1"),
        ("\ndisk 0 zero 0 1\n", "line 3: bad disk fields"),
        ("disk 0 0 0\n", "line 2: expected 'disk <id> <x> <y> <r>'"),
        ("disk 0 0 0 1 1\n", "line 2: expected 'disk <id> <x> <y> <r>'"),
        ("disk 0 0 0 1\nedge 0 1\n", "line 3: expected 'disk <id> <x> <y> <r>'"),
        ("disk 0 0 0 1\ndisc 1 0 0 1\n", "line 3: expected 'disk <id> <x> <y> <r>'"),
        ("disk 0 0 0 1e151\ndisk 1 x 0 1\n", "line 2: radius 1e+151 must lie in [2^-500, 2^500]"),
        ("disk 1 x 0 1\ndisk 0 0 0 1e151\n", "line 2: bad disk fields"),
    ], ids=["after-blank", "crlf-after-blanks", "coordinate", "duplicate-shuffled", "missing-id",
            "bad-field", "four-fields", "six-fields", "wrong-keyword", "misspelled-keyword",
            "range-before-syntax", "syntax-before-range"])
    def test_bad_disk_names_its_line(self, body, message):
        # the first fault in line order is reported, whatever kind it is
        with pytest.raises(ParseError) as info:
            parse_instance(f"udg 1 geometric\n{body}")
        assert str(info.value) == message

    @pytest.mark.parametrize("data, message", [
        (b"udg 1 geometric\ndisk 0 0 0 1\ndisk 1\xc2\xa01 0 1\n", "line 3: non-ASCII byte 0xc2"),
        (b"udg 1 geometric\r\n\r\ndisk 0 0 0 1\rdisk 1 \xff 0 1\r\n", "line 4: non-ASCII byte 0xff"),
        (b"\xef\xbb\xbfudg 1 geometric\n", "line 1: non-ASCII byte 0xef"),
        (b"udg 1 abstract\nn 2\nedge 0 1\n\x80\n", "line 4: non-ASCII byte 0x80"),
    ], ids=["nbsp", "crlf-and-cr", "byte-order-mark", "abstract"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, message):
        path = tmp_path / "bad.udg"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            read_instance(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("udg 1 geometric\ndisk 0 \u0661 0 1\n", "line 2: non-ASCII character U+0661"),
        ("udg 1 geometric\ndisk 0 0 0 1\n\ndisk 1\u00a01 0 1\n",
         "line 4: non-ASCII character U+00A0"),
        ("udg 1 abstract\nn 3\n\nedge 0 \u0662\n", "line 4: non-ASCII character U+0662"),
        ("udg 1 abstract\n\nn\u00a03\nedge 0 1\n", "line 3: non-ASCII character U+00A0"),
        ("udg \u0661 geometric\n", "line 1: non-ASCII character U+0661"),
    ], ids=["digit", "nbsp-after-blank", "abstract-digit-after-blank", "abstract-nbsp", "header"])
    def test_non_ascii_text_names_its_line(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == message

    def test_each_disk_is_range_checked_once(self, monkeypatch, tmp_path):
        path = tmp_path / "inst.udg"
        write_instance(random_instance(40, 8.0, 1.0, 5), path)
        checked = []
        check = geometry._check_radii
        monkeypatch.setattr(geometry, "_check_radii", lambda disks: checked.append(disks) or check(disks))
        inst = read_instance(path)
        assert instance_to_graph(inst) == instance_to_graph(inst) and inst.unit
        # one range check over all the disks, however often they are paired
        assert checked == [inst.disks]


class TestAbstractFiles:
    def test_c5_file(self):
        text = "udg 1 abstract\nn 5\n" + "".join(f"edge {u} {v}\n" for u, v in C5_EDGES)
        G = parse_instance(text)
        assert isinstance(G, Graph) and G == c5()

    def test_round_trip(self, tmp_path):
        G = c5()
        path = tmp_path / "abstract.udg"
        write_instance(G, path)
        assert read_instance(path) == G

    def test_blank_line_between_edges(self):
        lines = [f"edge {u} {v}" for u, v in C5_EDGES]
        text = "udg 1 abstract\nn 5\n" + "\n\n".join(lines) + "\n"
        assert parse_instance(text) == c5()

    @pytest.mark.parametrize("body, line_no, reason", [
        ("n -5\n", 2, "vertex count must be nonnegative"),
        ("n 3\nedge 0 1\nedge 0 7\n", 4, "edge (0, 7) outside [0, 3)"),
        ("n 3\nedge -1 2\n", 3, "edge (-1, 2) outside [0, 3)"),
        ("n 0\nedge 0 0\n", 3, "edge (0, 0) outside [0, 0)"),
        ("n 3\nedge 0 1\nedge 1 1\n", 4, "self-loop at vertex 1"),
        ("n 3\nn 3\n", 3, "duplicate vertex count"),
        ("n x\n", 2, "bad vertex count 'x'"),
        ("n 3\nedge a 1\n", 3, "bad edge endpoints"),
        ("n 3\nfoo\n", 3, "unexpected line 'foo'"),
        ("\n\n", 3, "missing vertex count"),
        ("edge 0 1\nn 3\n", 2, "edge before vertex count"),
    ], ids=["negative-count", "endpoint-beyond-n", "negative-endpoint", "empty-graph", "self-loop",
            "duplicate-count", "bad-count", "bad-endpoints", "unexpected-line", "missing-count",
            "edge-before-count"])
    def test_bad_graph_names_its_line(self, body, line_no, reason):
        with pytest.raises(ParseError) as info:
            parse_instance(f"udg 1 abstract\n{body}")
        assert info.value.line_no == line_no and info.value.reason == reason


class TestHeaders:
    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_instance("")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_instance("disk 0 0 0 1\n")

    def test_version_mismatch(self):
        with pytest.raises(ParseError) as info:
            parse_instance("\n\nudg 2 geometric\n")
        assert info.value.line_no == 3
        assert str(info.value) == "line 3: format version 2 unsupported"

    def test_unknown_mode(self):
        with pytest.raises(ParseError):
            parse_instance("udg 1 hyperbolic\n")

    def test_bad_version(self):
        with pytest.raises(ParseError) as info:
            parse_instance("udg x geometric\n")
        assert str(info.value) == "line 1: bad version 'x'"


class TestSolutionDocuments:
    def test_vertices_document(self):
        doc = solution_document("vc", 2, vertices=[3, 1], meta={"variant": "unit"})
        assert doc["vertices"] == [1, 3]
        parsed = parse_solution(solution_to_json(doc))
        assert parsed == doc

    def test_colors_document(self):
        doc = solution_document("color", 2, colors=[1, 2, 1])
        assert parse_solution(solution_to_json(doc))["colors"] == [1, 2, 1]

    def test_rejects_garbage(self):
        with pytest.raises(BadParameter):
            parse_solution('{"value": 3}')

    @pytest.mark.parametrize("text", [
        '{"problem": 3, "value": 3}',
        '{"problem": "mis", "value": 3.0}',
        '{"problem": "mis", "value": false}',
        '{"problem": "mis", "value": 1, "vertices": "0"}',
        '{"problem": "mis", "value": 1, "vertices": [false]}',
        '{"problem": "mis", "value": 1, "vertices": [0, true]}',
        '{"problem": "mis", "value": 1, "vertices": [0, 1.0]}',
        '{"problem": "color", "value": 1, "colors": [null]}',
    ])
    def test_rejects_mistyped_fields(self, text):
        with pytest.raises(BadParameter):
            parse_solution(text)

    @pytest.mark.parametrize("text", ["", "{"])
    def test_names_text_that_is_not_json(self, text):
        with pytest.raises(BadParameter, match="^solution document is not JSON: Expecting "):
            parse_solution(text)

    def test_json_is_stable(self):
        doc = solution_document("mis", 1, vertices=[0], meta={"b": 1, "a": 2})
        assert solution_to_json(doc) == solution_to_json(parse_solution(solution_to_json(doc)))


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestSolutionWriter:
    """solution_to_json writes exactly what json.dumps(indent=2, sort_keys=True) writes."""

    @pytest.mark.parametrize("radius, radius_high", [(1.0, None), (0.5, 2.0)], ids=["unit", "circle"])
    def test_every_solve_document(self, radius, radius_high):
        for seed in (1, 2, 3):
            inst, G = random_connected_instance(120, 11.0, radius, seed, radius_high)
            variant = "unit" if inst.unit else "circle"
            options = Options(lambda n: ArrivalSequence.random(n, seed + 4))
            for name, problem in PROBLEMS.items():
                meta = {"variant": variant, "n": G.n, "m": G.m}
                answer = problem.heuristic(G, inst, variant, options, meta)
                value = problem.size(answer)
                if problem.coloring:
                    doc = solution_document(name, value, colors=answer.colors, meta=meta)
                else:
                    doc = solution_document(name, value, vertices=answer, meta=meta)
                assert solution_to_json(doc) == dumps(doc), (seed, name)
            assert "trace" in meta and len(meta["trace"]["levels"]) > 2

    @pytest.mark.parametrize("doc", [
        {},
        {"problem": "vc", "value": 0, "vertices": [], "meta": {}},
        {"levels": [[], [[]], [[], [0]], [0, []]]},
        {"mixed": [True, 1, 2], "bools": [False, True], "negative": [-3, 0, -1]},
        {"float": [1.5, 2], "scalars": [None, 0.1, -0.0, 1e300], "x": 2.5, "y": None},
        {"quotes": 'say "hi"\\', "non-ascii": "d\u00e9j\u00e0 \u2603", "\u00e9": ["\n", "\t"]},
        {"tuple": (1, 2), "nested": {"b": {"c": [[1], (2,)]}, "a": [{}, {"k": [7]}]}},
        {"big": [2 ** 70, -(2 ** 70)], "one": [5]},
    ], ids=["empty", "empty-vertices", "nested-empty", "bools", "floats", "strings",
            "tuples-and-dicts", "big-ints"])
    def test_hand_made_documents(self, doc):
        assert solution_to_json(doc) == dumps(doc)

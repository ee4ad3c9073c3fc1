"""The layer runner ``tools/layers.py`` at a tiny size, so it cannot rot."""

import gc
import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from diskapprox import exact
from diskapprox.exact import DEFAULT_LIMITS, exact_domination
from diskapprox.problems import PROBLEMS
from refimpl import checked_levels, cycle

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layers.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("layers_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_run_at_n_100_has_the_schema(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = load_tool()
    out = tmp_path / "layers.json"
    for label in ("before", "after"):
        assert tool.main(["--sizes", "100", "-k", "1", "--label", label, "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [run["label"] for run in runs] == ["before", "after"]
    run = runs[0]
    assert set(run) == {"label", "machine", "python", "seed", "mean_degree", "sizes", "k", "layers"}
    assert run["sizes"] == [100] and run["k"] == 1
    assert set(run["machine"]) == {"platform", "processor", "cpus"}
    names = set(run["layers"])
    assert {name.split("/", 1)[0] for name in names} == set(tool.KINDS) == {
        "unit", "mixed", "scale", "abstract"}
    for kind, mis in (("unit", "sweep"), ("mixed", "eligibility-search"),
                      ("scale", "eligibility-search"), ("abstract", "eligibility-search")):
        expected = {"read_instance", f"heuristic.mis.{mis}"}
        if kind != "abstract":  # an abstract file is neither drawn nor paired
            expected |= {"random_instance", "cli_parser", "instance_to_graph"}
        expected |= {f"heuristic.{p}" for p in ("vc", "color", "online-color", "ds", "ids", "tds", "cds")}
        expected |= {f"verify_subset.{p}" for p in PROBLEMS}
        if kind in ("unit", "mixed"):  # scale: the oracles' small draws would be all radius-16 disk
            expected |= {f"oracle.{p}" for p in ("vc", "color", "ds", "tds", "cds")}
        assert {name.split("/", 1)[1] for name in names if name.startswith(kind + "/")} == expected
    caps = {"oracle.vc": 24, "oracle.color": 16, "oracle.ds": 18, "oracle.tds": 18, "oracle.cds": 16}
    assert caps == {f"oracle.{p}": getattr(DEFAULT_LIMITS, PROBLEMS[p].cap) for p in tool.ORACLE_PROBLEMS}
    for name, row in run["layers"].items():
        layer = name.split("/", 1)[1]
        assert len(row["n"]) == len(row["s"]) == len(row["ref"]) == 1
        assert row["s"][0] >= 0 and row["ref"][0] >= 0
        assert row["slope"] is None  # one size fits no slope
        if layer in caps:
            # the oracles run at their own caps, whatever --sizes says
            assert set(row) == {"n", "s", "ref", "nodes", "slope"}
            assert row["n"] == [caps[layer]] and row["nodes"][0] >= 1
        else:
            assert set(row) == {"n", "s", "ref", "slope"}
            assert 2 <= row["n"][0] <= (101 if name.startswith("scale/") else 100)


@pytest.fixture
def parent_modules():
    """Drops the second copy of the package from ``sys.modules`` afterwards."""
    yield
    for name in [name for name in sys.modules if name.split(".")[0] == "diskapprox_parent"]:
        del sys.modules[name]


def test_ab_against_this_checkout_at_n_60(tmp_path, monkeypatch, parent_modules):
    # this checkout's own src/ as the parent: every layer's outputs agree
    # and every ratio, A/B and A/A, is finite
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = load_tool()
    root = TOOL.parent.parent
    parent = tool.load_parent(root)
    for name in tool.MODULES:
        assert getattr(parent, name).__name__ == f"diskapprox_parent.{name}"
        assert getattr(tool.CHANGE, name).__name__ == f"diskapprox.{name}"
        assert getattr(parent, name) is not getattr(tool.CHANGE, name)
    out = tmp_path / "layers.json"
    argv = ["--sizes", "60", "-k", "2", "--parent", str(root), "--label", "a/a", "--out", str(out)]
    assert tool.main(argv) == 0
    document = json.loads(out.read_text())
    assert document["runs"] == [] and len(document["ab"]) == 1
    record = document["ab"][0]
    assert set(record) == {"label", "machine", "python", "seed", "mean_degree", "sizes", "parent",
                           "k", "layers"}
    assert record["sizes"] == [60] and record["k"] == 2 and record["parent"] == str(root)
    names = {name.split("/", 1)[1] for name in record["layers"] if name.startswith("unit/")}
    assert {"read_instance", "cli_parser"} | {f"verify_subset.{p}" for p in PROBLEMS} <= names
    assert not any(name.startswith("verify_full.") for name in names)
    assert "oracle.cds" in names
    for name, row in record["layers"].items():
        assert set(row) == {"n", "ratio", "won", "control"}, name
        assert 0 <= row["won"][0] <= 2
        for q1, median, q3 in row["ratio"] + row["control"]:
            assert all(map(math.isfinite, (q1, median, q3))) and 0 < q1 <= median <= q3, name


def test_ab_stops_on_a_layer_whose_outputs_differ(monkeypatch, parent_modules):
    # a parent that draws other disks: no ratio is reported for that layer
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = load_tool()
    parent = tool.load_parent(TOOL.parent.parent)
    draw = parent.geometry.random_instance
    monkeypatch.setattr(parent.geometry, "random_instance",
                        lambda n, *args: draw(n + 1, *args))
    with pytest.raises(ValueError, match="random_instance at n=60: the outputs differ"):
        tool.measure([60], 1, parent)


def test_ab_mismatch_through_main_is_an_error_line(tmp_path, monkeypatch, capsys, parent_modules):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = load_tool()
    root = TOOL.parent.parent
    parent = tool.load_parent(root)
    draw = parent.geometry.random_instance
    monkeypatch.setattr(parent.geometry, "random_instance", lambda n, *args: draw(n + 1, *args))
    monkeypatch.setattr(tool, "load_parent", lambda path: parent)
    out = tmp_path / "layers.json"
    assert tool.main(["--sizes", "60", "-k", "1", "--parent", str(root), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: layer unit/random_instance at n=60: the outputs differ\n"
    assert not out.exists()


@pytest.mark.parametrize("side", ["change", "parent"])
def test_ab_stops_on_a_layer_without_a_counterpart(tmp_path, monkeypatch, capsys, parent_modules, side):
    # one copy's table gains a problem, so it has two layers more than the
    # other: one error line before any layer is timed
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = load_tool()
    root = TOOL.parent.parent
    parent = tool.load_parent(root)
    table = (tool.CHANGE if side == "change" else parent).problems.PROBLEMS
    monkeypatch.setitem(table, "extra", table["vc"])
    monkeypatch.setattr(tool, "load_parent", lambda path: parent)

    class Untimed:
        def sample(self):
            pytest.fail("timed before the layers were compared")

    monkeypatch.setattr(tool, "Reference", Untimed)
    out = tmp_path / "layers.json"
    assert tool.main(["--sizes", "60", "-k", "1", "--parent", str(root), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: layer unit/heuristic.extra of the {side} has no counterpart in the "
        f"{'parent' if side == 'change' else 'change'}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--sizes", "10,abc"], "argument --sizes: invalid size_list value: '10,abc'"),
    (["--sizes", "1"], "every size at least 2"),
    (["-k", "0"], "-k must be at least 1"),
    (["--parent", "{tmp}"], "--parent: no package at {tmp}/src/diskapprox/__init__.py"),
    # the case's --out follows the test's own, so it wins
    (["--out", "{tmp}/missing/layers.json"], "--out: no directory {tmp}/missing"),
    (["--out", "{tmp}/text.json"], "--out: {tmp}/text.json holds no JSON object"),
    (["--out", "{tmp}/list.json"], "--out: {tmp}/list.json holds no JSON object"),
], ids=["sizes-not-integers", "size-below-2", "k-zero", "parent-without-package",
        "out-in-missing-directory", "out-not-json", "out-not-an-object"])
def test_argument_errors_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    tool = load_tool()
    monkeypatch.setattr(tool, "measure", lambda *args: pytest.fail("measured before the error"))
    (tmp_path / "text.json").write_text("runs\n")
    (tmp_path / "list.json").write_text("[]\n")
    argv = ["--out", str(tmp_path / "layers.json")] + [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert not (tmp_path / "layers.json").exists()
    assert [(tmp_path / name).read_text() for name in ("text.json", "list.json")] == ["runs\n", "[]\n"]


@pytest.mark.parametrize("parent", [None, SimpleNamespace()], ids=["plain", "ab"])
def test_rounds_interleave_layers_and_sides_beside_frozen_inputs(parent):
    # three fake layers that log (layer, side, frozen since their build)
    tool = load_tool()
    log = []

    def build(pkg):
        side = "change" if pkg is tool.CHANGE else "parent"
        frozen_at_build = gc.get_freeze_count()

        def layer(name):
            return lambda: log.append((name, side, gc.get_freeze_count() > frozen_at_build))
        return [(name, 1, layer(name)) for name in "abc"]

    timed = tool.time_group(build, 3, tool.Reference(), parent)
    sides = 1 if parent is None else 3
    if parent is not None:
        # the outputs are compared once per layer before the freeze
        assert log[:6] == [(name, side, False) for name in "abc" for side in ("change", "parent")]
        del log[:6]
    assert len(log) == 3 * 3 * sides and all(frozen for _, _, frozen in log)
    rounds = [log[at:at + 3 * sides] for at in range(0, len(log), 3 * sides)]
    # each round runs every layer once, its sides back to back, and the
    # first layer moves on by one each round
    runs = [[chunk[at:at + sides] for at in range(0, len(chunk), sides)] for chunk in rounds]
    assert ["".join(run[0][0] for run in chunk) for chunk in runs] == ["abc", "bca", "cab"]
    assert all(len({name for name, _, _ in run}) == 1 for chunk in runs for run in chunk)
    if parent is not None:
        # change, parent, control rotated by the round: the change runs
        # first, then last, then second
        assert [[sorted(side for _, side, _ in run) for run in chunk] for chunk in runs] == \
            [[["change", "parent", "parent"]] * 3] * 3
        assert [[[side for _, side, _ in run].index("change") for run in chunk] for chunk in runs] == \
            [[0] * 3, [2] * 3, [1] * 3]
    assert [name for name, *_ in timed] == ["a", "b", "c"]
    for _, _, _, seconds, units in timed:
        assert set(seconds) == ({"change"} if parent is None else {"change", "parent", "control"})
        assert all(len(times) == 3 for times in seconds.values()) and len(units) == 3


def test_scale_kind_pairs_across_radius_levels():
    # one radius-16 disk per 1000 disks, at least one: the instance's radii
    # make two levels, so pairing crosses them
    tool = load_tool()
    big_radius = tool.KINDS["scale"]["big_radius"]
    assert big_radius == 16.0
    for n, big in ((100, 1), (2600, 3)):
        _, inst, _, _ = tool._inputs("scale", n)
        radii = [r for _, _, r in inst.disks]
        assert radii.count(big_radius) == big
        assert max(r for r in radii if r != big_radius) <= 2.0
        assert len(checked_levels(inst.disks)) == 2


def test_abstract_kind_reads_the_unit_kinds_graph(tmp_path):
    tool = load_tool()
    timed = {name: fn for name, _, fn in tool.layers("abstract", 100, str(tmp_path))}
    assert timed["abstract/read_instance"]() == tool._inputs("unit", 100)[3]
    assert (tmp_path / "abstract-100.udg").read_text().startswith("udg 1 abstract\n")


def test_mixed_and_scale_levels_match_the_reference():
    # the seed-7 draws the tool times: one level for radii in [0.5, 2], two
    # once radius-16 disks join; checked_levels holds them to the reference cut
    tool = load_tool()
    for n in (1000, 10_000):
        for kind, count in (("mixed", 1), ("scale", 2)):
            _, inst, _, _ = tool._inputs(kind, n)
            assert len(checked_levels(inst.disks)) == count


def test_search_nodes_counts_every_budget():
    tool = load_tool()
    plain = exact._NodeBudget
    # connected domination on C16 searches sizes 7 to 14 in 23,490 nodes
    assert tool.search_nodes(lambda: exact_domination(cycle(16), "connected")) == 23_490
    # the chromatic oracle's clique search and its coloring search (k = 2,
    # then 3 on C5) each open a budget
    C5 = cycle(5)
    clique_nodes = tool.search_nodes(lambda: exact.exact_clique(C5))
    budget = exact._NodeBudget(DEFAULT_LIMITS.max_nodes)
    clique = exact.exact_clique(C5)[1].members
    assert [exact._try_k_coloring(C5, k, clique, budget) is None for k in (2, 3)] == [True, False]
    assert tool.search_nodes(lambda: exact.exact_chromatic(C5)) == clique_nodes + budget.nodes
    assert exact._NodeBudget is plain


def test_slope_of_a_power_law():
    tool = load_tool()
    assert abs(tool.slope([10, 100, 1000], [2e-3, 2e-1, 2e1]) - 2.0) < 1e-9

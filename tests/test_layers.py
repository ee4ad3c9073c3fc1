"""The layer runner ``tools/layers.py`` at a tiny size, so it cannot rot."""

import importlib.util
import json
import sys
from pathlib import Path

from diskapprox import exact
from diskapprox.exact import DEFAULT_LIMITS, exact_domination
from diskapprox.graphs import build_graph
from diskapprox.problems import PROBLEMS
from refimpl import checked_levels

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
    assert {name.split("/", 1)[0] for name in names} == set(tool.KINDS) == {"unit", "mixed", "scale"}
    for kind, mis in (("unit", "sweep"), ("mixed", "eligibility-search"), ("scale", "eligibility-search")):
        expected = {"random_instance", "parse_instance", "instance_to_graph", "nt_decompose",
                    f"heuristic.mis.{mis}"}
        expected |= {f"heuristic.{p}" for p in ("vc", "color", "online-color", "ds", "ids", "tds", "cds")}
        expected |= {f"verify_{path}.{p}" for path in ("full", "subset")
                     for p in ("vc", "mis", "color", "online-color")}
        if kind != "scale":  # the oracles' small draws would be all radius-16 disk
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


def cycle(n):
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def test_slope_of_a_power_law():
    tool = load_tool()
    assert abs(tool.slope([10, 100, 1000], [2e-3, 2e-1, 2e1]) - 2.0) < 1e-9

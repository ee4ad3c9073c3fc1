"""The layer runner ``tools/layers.py`` at a tiny size, so it cannot rot."""

import importlib.util
import json
import sys
from pathlib import Path

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
    for kind, mis in (("unit", "sweep"), ("mixed", "eligibility-search")):
        expected = {"random_instance", "parse_instance", "instance_to_graph", "nt_decompose",
                    f"heuristic.mis.{mis}"}
        expected |= {f"heuristic.{p}" for p in ("vc", "color", "online-color", "ds", "ids", "tds", "cds")}
        expected |= {f"verify_{path}.{p}" for path in ("full", "subset")
                     for p in ("vc", "mis", "color", "online-color")}
        assert {name.split("/", 1)[1] for name in names if name.startswith(kind + "/")} == expected
    for row in run["layers"].values():
        assert set(row) == {"n", "s", "ref", "slope"}
        assert len(row["n"]) == len(row["s"]) == len(row["ref"]) == 1
        assert 2 <= row["n"][0] <= 100 and row["s"][0] >= 0 and row["ref"][0] >= 0
        assert row["slope"] is None  # one size fits no slope


def test_slope_of_a_power_law():
    tool = load_tool()
    assert abs(tool.slope([10, 100, 1000], [2e-3, 2e-1, 2e1]) - 2.0) < 1e-9

"""Smoke test of the benchmark at tiny sizes: every workload, both modes."""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from diskapprox import cli, covering  # noqa: E402


def _declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_declared_metrics_match_the_code():
    bench = _declared()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.CATALOG) == list(workloads.TINY) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run(workload, capsys):
    declared = _declared()
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.2"]

    assert run.main(argv + ["--trace", "0"], catalog=workloads.TINY) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    assert run.main(argv + ["--trace", "1"], catalog=workloads.TINY) == 0
    traced = _result(capsys)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [m["name"] for m in declared["per_layer"]]
    calls = traced["metrics"]
    if workload == "oracle-ratio":
        assert calls["bench.run_bench.calls"]["value"] == workloads.TINY[workload]["rows"]
        assert calls["cli.calls"]["value"] == 0
    else:
        assert calls["covering.vertex_cover.calls"]["value"] >= 1
        assert calls["exact.exact_vc.calls"]["value"] == 0

    # the wrappers are gone once the traced pass ends
    assert not hasattr(cli.covering.vertex_cover, "__wrapped__")
    assert not hasattr(covering.induced_subgraph, "__wrapped__")


def test_refuses_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "unit-scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env={},
    )
    assert done.returncode != 0
    assert done.stdout == ""

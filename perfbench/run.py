"""Seed-to-verified-answer benchmark for diskapprox.

    python3 perfbench/run.py --workload unit-scale --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
workload is a closed loop: one client in this process and thread, each job
starting when the last one ends.  Set-up runs in a fresh interpreter
``SETUP_REPEATS`` times and ``setup_s`` is the median.  With ``--trace 0``
the run makes ``PASSES`` passes over the workload's jobs, starting another
only while ``--seconds`` has not run out, and reports the end-to-end metrics
from each job's best pass, with latencies in reference units (see
``workloads.Reference``: on a shared machine the CPU speed drifts by tens of
percent over seconds; the same figures in seconds go to the record).  With
``--trace 1`` it makes one untraced and one traced pass and reports per-layer
metrics instead.  Every output is checked.  The last line
of stdout is the result as one JSON object; the full record (machine, job
counts, digests, per-job times) goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
PASSES = 2
WORKLOADS = ("unit-scale", "mixed-scale", "oracle-ratio")

# (metric, span name, statistic).  Each also reports "<metric prefix>.calls".
LAYERS = [
    ("covering.vertex_cover.self_s", "covering.vertex_cover", "self_s"),
    ("matching.nt_decompose.self_s", "matching.nt_decompose", "self_s"),
    ("matching.max_matching.s", "matching.max_matching", "s"),
    ("matching.konig_cover.s", "matching.konig_cover", "s"),
    ("covering.color_triangle_free.s", "covering.color_triangle_free", "s"),
    ("graphs.induced_subgraph.self_s", "graphs.induced_subgraph", "self_s"),
    ("domination.independent_set_graph.s", "domination.independent_set_graph", "s"),
    ("domination.independent_set_geometric.self_s", "domination.independent_set_geometric", "self_s"),
    ("geometry.instance_adjacency.s", "geometry.instance_adjacency", "s"),
    ("geometry.instance_to_graph.self_s", "geometry.instance_to_graph", "self_s"),
    ("graphs.build_graph.s", "graphs.build_graph", "s"),
    ("formats.read_instance.s", "formats.read_instance", "s"),
    ("formats.solution_to_json.s", "formats.solution_to_json", "s"),
    ("cli.self_s", "cli.main", "self_s"),
    ("checks.s", "checks", "s"),
    ("covering.color_offline.self_s", "covering.color_offline", "self_s"),
    ("graphs.degeneracy_ordering.s", "graphs.degeneracy_ordering", "s"),
    ("covering.color_online_firstfit.s", "covering.color_online_firstfit", "s"),
    ("domination.connected_dominating_set.self_s", "domination.connected_dominating_set", "self_s"),
    ("graphs.bfs_levels.s", "graphs.bfs_levels", "s"),
    ("graphs.greedy_maximal_independent_set.s", "graphs.greedy_maximal_independent_set", "s"),
    ("exact.exact_vc.s", "exact.exact_vc", "s"),
    ("exact.exact_mis.s", "exact.exact_mis", "s"),
    ("exact.exact_chromatic.self_s", "exact.exact_chromatic", "self_s"),
    ("exact.exact_clique.s", "exact.exact_clique", "s"),
    ("exact.exact_domination.plain.s", "exact.exact_domination.plain", "s"),
    ("exact.exact_domination.independent.s", "exact.exact_domination.independent", "s"),
    ("exact.exact_domination.total.s", "exact.exact_domination.total", "s"),
    ("exact.exact_domination.connected.s", "exact.exact_domination.connected", "s"),
    ("bench.run_bench.s", "bench.run_bench", "s"),
]
# Metrics derived from counts, with the span whose calls they also report.
DERIVED = [
    ("geometry.edges_per_s", "1/s", None),
    ("geometry.random_instance.us_per_disk", "us", "geometry.random_instance"),
    ("geometry.random_connected_instance.attempts_per_accept", "ratio", "geometry.random_connected_instance"),
    ("bench.run_bench.heur_s", "s", None),
    ("bench.run_bench.opt_s", "s", None),
    ("exact.timeouts", "count", None),
    ("bench.run_bench.ratio_mean", "ratio", None),
    ("trace.overhead_frac", "ratio", None),
]
# Latencies are in reference units ("ref"): see workloads.Reference.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solve_ref.p50": "ref",
    "solve_ref.p90": "ref",
    "answer_ref.p50": "ref",
    "answer_ref.p90": "ref",
    "solve_ref.slope": "1",
    "vertices_per_ref": "1/ref",
}


def _calls_name(metric: str) -> str:
    return metric.rsplit(".", 1)[0] + ".calls"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for metric, _, stat in LAYERS:
        units[metric] = "s"
        units[_calls_name(metric)] = "count"
    for metric, unit, calls_of in DERIVED:
        units[metric] = unit
        if calls_of:
            units[calls_of + ".calls"] = "count"
    return units


def _percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _slope(points):
    """Least-squares slope of log(t) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
    }


def run_setup(spec, seed, workdir):
    """SETUP_REPEATS fresh-interpreter set-ups; the manifest must not vary."""
    times, manifests = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), str(workdir), str(seed), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(report["setup_s"])
        manifests.append(report["manifest"])
    if any(m != manifests[0] for m in manifests):
        raise RuntimeError("set-up is not deterministic for this seed")
    return statistics.median(times), manifests[0]


def _jobs(workloads, spec, manifest):
    if spec["kind"] == "scale":
        return workloads.scale_jobs(manifest)
    return workloads.oracle_jobs(manifest)


def _run_pass(workloads, spec, jobs, reference, on_job=None):
    """One pass over the jobs; returns the oracle-ratio rows' ratios, else None."""
    if spec["kind"] == "scale":
        workloads.run_scale_pass(spec, jobs, reference, on_job)
        return None
    return workloads.run_oracle_pass(spec, jobs, reference, on_job)


def latency(spec, jobs, manifest, pick, unit):
    """Job-latency figures from each job's best sample, named for ``unit``.

    ``pick(job)`` gives the job's samples in that unit, one per pass.

    A scale workload answers with a solve job and checks it with a verify
    job; an oracle-ratio row does both in one call, so there the row is the
    solve time and the answer time alike.
    """
    if spec["kind"] == "scale":
        solve = [(entry, min(pick(job))) for entry, job in jobs if job.kind == "solve"]
        verify = [min(pick(job)) for _, job in jobs if job.kind == "verify"]
        answer = [t + v for (_, t), v in zip(solve, verify)]
        per_instance: dict[str, float] = {}
        for entry, t in solve:
            per_instance[entry["path"]] = per_instance.get(entry["path"], 0.0) + t
        points = [(entry["n"], per_instance[entry["path"]]) for entry in manifest]
    else:
        solve = [(entry, min(pick(job))) for entry, job in jobs]
        answer = [t for _, t in solve]
        points = [(entry["n"], t) for entry, t in solve]
    solve_times = [t for _, t in solve]
    return {
        f"solve_{unit}.p50": statistics.median(solve_times),
        f"solve_{unit}.p90": _percentile(solve_times, 90),
        f"answer_{unit}.p50": statistics.median(answer),
        f"answer_{unit}.p90": _percentile(answer, 90),
        f"solve_{unit}.slope": _slope(points),
        f"vertices_per_{unit}": sum(entry["n"] for entry, _ in solve) / sum(solve_times),
    }


def end_to_end(spec, jobs, manifest, setup_s):
    """The end-to-end metrics, latencies in reference units; the same in seconds for the record."""
    metrics = {"setup_s": setup_s, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    metrics.update(latency(spec, jobs, manifest, lambda job: job.refs, "ref"))
    return metrics, latency(spec, jobs, manifest, lambda job: job.times, "s")


def per_layer(tracer_mod, spans, jobs, ratios):
    """Per-layer metrics of the traced pass; set-up spans count only for the generators.

    The tracing overhead compares the two passes' job costs in reference
    units, so drift in the machine's speed between the passes cancels.
    """
    root = tracer_mod.roots(spans)

    def in_job(index):
        return spans[root[index]][0].startswith("job.")

    table = tracer_mod.layer_table(spans, in_job)
    everything = tracer_mod.layer_table(spans, lambda i: True)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}

    checks = [i for i, span in enumerate(spans) if in_job(i) and span[0].startswith("checks.")
              and not spans[span[3]][0].startswith("checks.")]
    table["checks"] = {"calls": len(checks), "s": sum(spans[i][2] - spans[i][1] for i in checks), "self_s": 0.0}

    metrics = {}
    for metric, name, stat in LAYERS:
        row = table.get(name, empty)
        metrics[metric] = row[stat]
        metrics[_calls_name(metric)] = row["calls"]

    pairing = table.get("geometry.instance_to_graph", empty)
    metrics["geometry.edges_per_s"] = pairing["count"] / pairing["self_s"] if pairing["self_s"] > 0 else 0.0
    sampled = everything.get("geometry.random_instance", empty)
    metrics["geometry.random_instance.us_per_disk"] = 1e6 * sampled["s"] / sampled["count"] if sampled["count"] else 0.0
    metrics["geometry.random_instance.calls"] = sampled["calls"]
    accepted = [i for i, span in enumerate(spans) if span[0] == "geometry.random_connected_instance"]
    attempts = sum(1 for span in spans if span[0] == "geometry.random_instance"
                   and span[3] >= 0 and spans[span[3]][0] == "geometry.random_connected_instance")
    metrics["geometry.random_connected_instance.attempts_per_accept"] = attempts / len(accepted) if accepted else 0.0
    metrics["geometry.random_connected_instance.calls"] = len(accepted)

    rows = oracle_split(spans)
    metrics["bench.run_bench.heur_s"] = sum(row["heur_s"] for row in rows)
    metrics["bench.run_bench.opt_s"] = sum(row["opt_s"] for row in rows)
    metrics["exact.timeouts"] = sum(
        1 for name, _, _, parent, error, _ in spans
        if name.startswith("exact.") and error == "Timeout" and not (parent >= 0 and spans[parent][0].startswith("exact."))
    )
    metrics["bench.run_bench.ratio_mean"] = statistics.fmean(ratios) if ratios else 0.0
    untraced, traced = (sum(job.refs[p] for _, job in jobs) for p in (0, 1))
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def oracle_split(spans):
    """Each run_bench row's time split by the kind of its direct children."""
    rows = {}
    for index, (name, start, end, parent, _, _) in enumerate(spans):
        if name == "bench.run_bench":
            rows[index] = {"total_s": end - start, "heur_s": 0.0, "opt_s": 0.0, "gen_s": 0.0}
        elif parent in rows:
            module = name.split(".", 1)[0]
            kind = "heur_s" if module in ("covering", "domination") else "opt_s" if module == "exact" else "gen_s"
            rows[parent][kind] += end - start
    return list(rows.values())


def job_counts(spec, manifest):
    counts: dict[str, int] = {}
    for entry in manifest:
        key = str(entry["level"]) if spec["kind"] == "scale" else f"{entry['variant']}:{entry['problem']}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def measure(spec, seed, seconds, trace, workdir, workloads, tracer_mod):
    """Run one workload; returns (result line, full record)."""
    record = {"machine": machine(), "seed": seed, "seconds": seconds, "trace": trace,
              "client": "closed loop, 1 client, 1 process, 1 thread"}
    if trace:
        tracer = tracer_mod.Tracer()
        with tracer, tracer.span("setup"):
            manifest = workloads.setup(spec, seed, str(workdir))
        jobs = _jobs(workloads, spec, manifest)
        reference = workloads.Reference()
        started = time.perf_counter()
        _run_pass(workloads, spec, jobs, reference)
        untraced_s = time.perf_counter() - started
        started = time.perf_counter()
        with tracer:
            ratios = _run_pass(workloads, spec, jobs, reference, tracer.span)
        traced_s = time.perf_counter() - started
        metrics = per_layer(tracer_mod, tracer.spans, jobs, ratios)
        units = per_layer_units()
        spans_path = OUT / f"{record_stem(spec, seed, trace)}-spans.json"
        tracer.dump(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["untraced_pass_s"], record["traced_pass_s"] = untraced_s, traced_s
        if spec["kind"] == "oracle":
            record["row_split"] = [
                dict(row, problem=entry["problem"], variant=entry["variant"], n=entry["n"])
                for row, entry in zip(oracle_split(tracer.spans), manifest)
            ]
    else:
        setup_s, manifest = run_setup(spec, seed, workdir)
        jobs = _jobs(workloads, spec, manifest)
        reference = workloads.Reference()
        started = time.perf_counter()
        passes = []
        while len(passes) < PASSES and (not passes or time.perf_counter() - started < seconds):
            began = time.perf_counter()
            ratios = _run_pass(workloads, spec, jobs, reference)
            passes.append(time.perf_counter() - began)
        metrics, record["in_seconds"] = end_to_end(spec, jobs, manifest, setup_s)
        units = END_TO_END
        record["passes_s"] = passes
    if ratios:
        record["ratio_mean"] = statistics.fmean(ratios)

    kind = "solve" if spec["kind"] == "scale" else "row"
    attempted = sum(len(job.times) for _, job in jobs)
    failed = sum(job.failures for _, job in jobs)
    failures = [f"{job.kind} {job.problem} n={job.n}: {job.failure}" for _, job in jobs if job.failure]
    record.update({
        "spec": spec,
        "job_counts": job_counts(spec, manifest),
        "digest": workloads.digest(jobs, kind),
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "reference_s": reference.samples,
        "jobs": [[job.kind, job.problem, job.n, job.times, job.refs] for _, job in jobs],
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    return result, record


def record_stem(spec, seed, trace):
    return f"{spec['name']}-seed{seed}-trace{trace}"


def main(argv=None, catalog=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diskapprox" / "__init__.py").is_file():
        print(f"error: no diskapprox package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diskapprox
    import tracer as tracer_mod
    import workloads

    if Path(diskapprox.__file__).resolve().parent != SRC / "diskapprox":
        print(f"error: imported diskapprox from {diskapprox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = dict((catalog or workloads.CATALOG)[args.workload], name=args.workload)
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result, record = measure(spec, args.seed, args.seconds, args.trace, workdir, workloads, tracer_mod)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(OUT / f"{record_stem(spec, args.seed, args.trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"# machine: {json.dumps(record['machine'])}")
    print(f"# workload {args.workload} seed {args.seed}: jobs per level {json.dumps(record['job_counts'])}")
    print(f"# digest sha256:{record['digest']}  fail_frac {record['fail_frac']:.6g}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in record.get("in_seconds", {}).items():
        print(f"# (in seconds) {name} = {value:.6g}")
    print(f"# reference unit: median {statistics.median(record['reference_s']) * 1e3:.4g} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

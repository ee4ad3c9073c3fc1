"""Workload definitions: seeded inputs, the closed-loop job runners, their checks.

A workload spec is a plain dict so it can travel to the set-up child process
as JSON.  Set-up turns (spec, seed) into a manifest: the instance files of a
scale workload, or the row list of ``oracle-ratio``.  A pass then runs every
job of the manifest once, one after the other, in this process and thread.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

from diskapprox import bench, cli, exact, formats, geometry, graphs
from diskapprox.errors import DiskApproxError
from diskapprox.rng import Rng, derive_seed

PROBLEMS = cli.SOLVE_PROBLEMS
MEAN_DEGREE = 6.0

CATALOG = {
    # The paper's main regime.  Heavy jobs are triangle stripping in vc,
    # light jobs are parsing and build_graph; mis takes the geometric sweep.
    "unit-scale": {
        "kind": "scale",
        "radius": 1.0,
        "radius_high": None,
        "big_per": 0,
        "levels": [[1000, 6], [3000, 8], [10000, 1]],
        "variant": "unit",
        "mis_method": "sweep",
    },
    # Arbitrary radii plus about one radius-16 disk per 1000 disks: the CLI
    # picks the circle variant, and the large disks collapse the max-radius
    # grid, so geometry dominates every job.  A single n = 10^4 instance
    # costs about 30 s of solve + verify at the seed commit, so the levels
    # stop at 3000.
    "mixed-scale": {
        "kind": "scale",
        "radius": 0.5,
        "radius_high": 2.0,
        "big_per": 1000,
        "big_radius": 16.0,
        "levels": [[300, 9], [1000, 4], [3000, 1]],
        "variant": "circle",
        "mis_method": "eligibility-search",
    },
    # Heuristic against exact optimum on small connected instances, n up to
    # each oracle's default cap; the only workload that calls the oracles.
    "oracle-ratio": {"kind": "oracle", "rows": 12000, "mean_degree": 4.0},
}

# Same structure at sizes that finish in a second or two, for the smoke test.
TINY = {
    "unit-scale": dict(CATALOG["unit-scale"], levels=[[60, 2], [120, 1]]),
    "mixed-scale": dict(CATALOG["mixed-scale"], levels=[[60, 2], [120, 1]], big_per=60),
    "oracle-ratio": dict(CATALOG["oracle-ratio"], rows=44),
}

_CAPS = exact.DEFAULT_LIMITS
ORACLE_ROWS = [
    ("unit", "vc", _CAPS.max_vertex_cover),
    ("unit", "color", _CAPS.max_chromatic),
    ("unit", "online-color", _CAPS.max_chromatic),
    ("unit", "mis", _CAPS.max_independent_set),
    ("unit", "ds", _CAPS.max_domination),
    ("unit", "ids", _CAPS.max_domination),
    ("unit", "tds", _CAPS.max_domination),
    ("unit", "cds", _CAPS.max_connected_domination),
    ("circle", "vc", _CAPS.max_vertex_cover),
    ("circle", "color", _CAPS.max_chromatic),
    ("circle", "mis", _CAPS.max_independent_set),
]
RADII = {"unit": (1.0, None), "circle": (0.5, 2.0)}
# Rows take about a millisecond, so the reference is sampled every 20 rows.
ORACLE_ROWS_PER_SAMPLE = 20


def _instance_order(levels):
    """(level, index) pairs with the levels interleaved, so slow drift hits all sizes alike."""
    most = max(count for _, count in levels)
    return [
        (level, k)
        for k in range(most)
        for level, (_, count) in enumerate(levels)
        if k < count
    ]


def _scale_instance(spec, n, seed):
    """Disks of one scale instance, reduced to the giant component (lowest ids on ties)."""
    radius, radius_high = spec["radius"], spec["radius_high"]
    box = bench.tuned_box(n, radius, radius_high, MEAN_DEGREE)
    disks = geometry.random_instance(n, box, radius, seed, radius_high).disks
    if spec["big_per"]:
        extra = Rng(derive_seed(seed, 1 << 40))
        count = max(1, round(n / spec["big_per"]))
        disks += tuple(
            (box * extra.uniform(), box * extra.uniform(), spec["big_radius"]) for _ in range(count)
        )
    inst = geometry.GeometricInstance(disks)
    giant = max(graphs.components(geometry.instance_to_graph(inst)), key=len)
    return geometry.GeometricInstance(tuple(disks[i] for i in giant))


def setup(spec, seed, workdir):
    """Make the workload's inputs from ``seed``; returns the JSON-ready manifest."""
    if spec["kind"] == "oracle":
        rng = Rng(derive_seed(seed, 1 << 41))
        rows = []
        for k in range(spec["rows"]):
            variant, problem, cap = ORACLE_ROWS[k % len(ORACLE_ROWS)]
            low = cap // 2
            rows.append(
                {"variant": variant, "problem": problem, "n": low + rng.randrange(cap - low + 1),
                 "seed": derive_seed(seed, k)}
            )
        return rows
    manifest = []
    for level, k in _instance_order(spec["levels"]):
        n_target = spec["levels"][level][0]
        instance_seed = derive_seed(seed, level * 1000 + k)
        inst = _scale_instance(spec, n_target, instance_seed)
        path = os.path.join(workdir, f"inst-{level}-{k}.txt")
        formats.write_instance(inst, path)
        manifest.append({"path": path, "level": n_target, "n": inst.n})
    return manifest


class Reference:
    """A fixed piece of pure-Python work owned by the benchmark, timed between jobs.

    On a shared machine the CPU speed drifts by tens of percent over seconds
    to minutes, and the program and this loop slow down together.  A job's
    time divided by the median of the last ``WINDOW`` samples is its cost in
    reference units, which the drift mostly cancels.  The loop uses the
    program's kinds of work: integer arithmetic, set insertion and
    intersection, list traversal and a keyed sort.
    """

    WINDOW = 5

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        started = time.perf_counter()
        adjacency = [set() for _ in range(300)]
        state = 12345
        for _ in range(1500):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            u, v = state % 300, (state >> 10) % 300
            if u != v:
                adjacency[u].add(v)
                adjacency[v].add(u)
        common = [sum(len(adjacency[u] & adjacency[v]) for v in adjacency[u]) for u in range(300)]
        sorted(range(300), key=lambda u: (common[u], u))
        self.samples.append(time.perf_counter() - started)

    def unit(self):
        return statistics.median(self.samples[-self.WINDOW:])


class Job:
    """One closed-loop job and its measurements across passes."""

    __slots__ = ("kind", "problem", "n", "times", "refs", "digest", "failures", "failure")

    def __init__(self, kind, problem, n):
        self.kind = kind
        self.problem = problem
        self.n = n
        self.times: list[float] = []
        self.refs: list[float] = []
        self.digest = None
        self.failures = 0
        self.failure = None

    def record(self, elapsed, unit, output, failure):
        """Keep the time in seconds and in reference units; the output must
        match the first pass byte for byte."""
        self.times.append(elapsed)
        self.refs.append(elapsed / unit)
        digest = hashlib.sha256(output).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest and failure is None:
            failure = "output differs from the first pass"
        if failure is not None:
            self.failures += 1
            self.failure = self.failure or failure


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - started
    return code, out.getvalue(), err.getvalue(), elapsed


def scale_jobs(manifest):
    """A solve job then its verify job, for every instance and problem."""
    jobs = []
    for entry in manifest:
        for problem in PROBLEMS:
            jobs.append((entry, Job("solve", problem, entry["n"])))
            jobs.append((entry, Job("verify", problem, entry["n"])))
    return jobs


def run_scale_pass(spec, jobs, reference, on_job=None):
    """Run every job once; ``on_job(label)`` may return a context for tracing."""
    for index in range(0, len(jobs), 2):
        entry, solve = jobs[index]
        _, verify = jobs[index + 1]
        problem = solve.problem
        solution_path = entry["path"][:-4] + f"-{problem}.json"
        gc.collect()
        reference.sample()
        code, out, err, elapsed = _traced(on_job, "job.solve", _cli, ["solve", entry["path"], "--problem", problem])
        solve.record(elapsed, reference.unit(), out.encode(), _check_solve(spec, entry, problem, code, out, err))
        with open(solution_path, "w", encoding="utf-8") as handle:
            handle.write(out)
        gc.collect()
        reference.sample()
        code, out, err, elapsed = _traced(on_job, "job.verify", _cli, ["verify", entry["path"], solution_path])
        failure = None if code == 0 and out == "valid\n" else f"verify: exit {code}: {out.strip()} {err.strip()}"
        verify.record(elapsed, reference.unit(), out.encode(), failure)


def _traced(on_job, label, fn, *args):
    if on_job is None:
        return fn(*args)
    with on_job(label):
        return fn(*args)


def _check_solve(spec, entry, problem, code, out, err):
    if code != 0:
        return f"solve {problem}: exit {code}: {err.strip()}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"solve {problem}: bad JSON: {exc}"
    meta = doc.get("meta", {})
    if doc.get("problem") != problem or meta.get("n") != entry["n"]:
        return f"solve {problem}: document does not describe the job"
    if meta.get("variant") != spec["variant"]:
        return f"solve {problem}: variant {meta.get('variant')!r}, expected {spec['variant']!r}"
    if problem == "mis" and meta.get("method") != spec["mis_method"]:
        return f"solve mis: method {meta.get('method')!r}, expected {spec['mis_method']!r}"
    if not isinstance(doc.get("value"), int) or doc["value"] < 1:
        return f"solve {problem}: value {doc.get('value')!r}"
    return None


def oracle_jobs(manifest):
    return [(row, Job("row", row["problem"], row["n"])) for row in manifest]


def run_oracle_pass(spec, jobs, reference, on_job=None):
    """One bench.run_bench call per row; each row's ratio must lie in [1, bound]."""
    ratios = []
    for index, (row, job) in enumerate(jobs):
        if index % ORACLE_ROWS_PER_SAMPLE == 0:
            reference.sample()
        radius, radius_high = RADII[row["variant"]]
        failure = None
        output = b""
        started = time.perf_counter()
        try:
            records = _traced(
                on_job, "job.row", bench.run_bench,
                1, row["n"], row["n"], (row["problem"],), row["seed"], radius, radius_high,
                spec["mean_degree"],
            )
        except DiskApproxError as exc:
            records = []
            failure = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if records:
            record = records[0]
            output = record.to_csv_row().encode()
            ratios.append(record.ratio)
            if not 1.0 <= record.ratio <= record.bound:
                failure = f"ratio {record.ratio} outside [1, {record.bound}]"
        job.record(elapsed, reference.unit(), output, failure)
    return ratios


def digest(jobs, kind):
    """One digest over the outputs of every ``kind`` job, in job order."""
    total = hashlib.sha256()
    for _, job in jobs:
        if job.kind == kind:
            total.update(job.digest.encode())
    return total.hexdigest()

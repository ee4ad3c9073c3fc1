"""Layer-by-layer timings of diskapprox, appended to a ``BENCH_layers.json`` file.

    python3 tools/layers.py --label "abc1234" --out BENCH_layers.json
    python3 tools/layers.py --sizes 100 -k 1 --out /tmp/layers.json

Run from any directory; the package is imported from this checkout's
``src/``.  For three kinds of radii, ``unit`` (perfbench's unit-scale
workload), ``mixed`` (uniform in [0.5, 2]) and ``scale`` (perfbench's
mixed-scale workload: ``mixed`` plus one radius-16 disk per 1000 disks, so
pairing crosses radius levels), at each size n it takes perfbench's scale
instance, ``workloads._scale_instance``: ``random_instance`` at mean
degree 6, reduced to its giant component (so every heuristic, ``tds`` and
``cds`` included, has an input), and times each layer ``k`` times:

* ``random_instance`` (the raw draw of n disks, without the radius-16 ones)
  and ``parse_instance`` of the component's file text;
* ``instance_to_graph`` and ``nt_decompose`` on the whole graph;
* every heuristic of the problem table, named ``heuristic.<problem>``; the
  ``mis`` layer adds its method, ``sweep`` on unit disks and
  ``eligibility-search`` on the other radii;
* the verify core of each problem whose table entry has ``edge_free``
  (``vc``, ``mis``, ``color`` and ``online-color``):
  ``verify_full.<problem>`` pairs the whole instance and runs the
  problem's ``checks`` predicate, ``verify_subset.<problem>`` runs what
  ``verify`` runs on a geometric file, pairing only the sets ``edge_free``
  names.

The runs are timed with the objects made before them frozen
(``gc.freeze``), so the collection before each run scans only what the
layers made; times taken before this was done are not comparable.

Each layer records, per size, the median of the ``k`` times in seconds and
in reference units: the time over the median of the last
``Reference.WINDOW`` samples of ``perfbench/workloads.Reference``.  The
layer takes them next to its own runs, one before each run and one after
the last, so CPU speed drift on a shared machine mostly cancels, also over
a size group that lasts a minute.  The samples run beside the size's live
inputs: on a 2-vCPU VM, samples beside 10^5-disk inputs and beside none
differed by less than the drift between rounds, which spanned 1.8 to
3.1 ms.  A log-log least-squares slope over the sizes goes with each layer.

The oracle layers, ``oracle.<problem>`` for each problem of
``ORACLE_PROBLEMS``, of the ``unit`` and ``mixed`` kinds run the problem
table's oracle at the default size cap its ``cap`` names, whatever
``--sizes`` says: ``vc`` at n = 24, ``color`` at 16, ``ds`` and ``tds`` at
18 and ``cds`` at 16.  Each runs over the same ``ORACLE_DRAWS`` connected
draws at mean degree 4 (as perfbench's oracle-ratio rows) and records
seconds per call and ``nodes``, the search nodes per call, read from a
counting subclass of the oracles' node budget.  Runs recorded before the
layers took the problem names call them by solver: ``oracle.exact_vc``,
``oracle.exact_chromatic`` and ``oracle.exact_domination.plain``,
``.total`` and ``.connected``.

The run (label, machine, Python version, sizes, k, layers) is appended to
the ``runs`` list of ``--out``, which is created when missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from diskapprox import bench, cli, exact, formats, geometry, matching  # noqa: E402
from diskapprox.covering import ArrivalSequence  # noqa: E402
from diskapprox.problems import PROBLEMS, Options  # noqa: E402
from diskapprox.rng import derive_seed  # noqa: E402
from workloads import CATALOG, MEAN_DEGREE, Reference, _scale_instance  # noqa: E402

SEED = 7
# kind: the workload spec its instances are drawn from
KINDS = {
    "unit": CATALOG["unit-scale"],
    "mixed": dict(CATALOG["mixed-scale"], big_per=0),
    "scale": CATALOG["mixed-scale"],
}
ORACLE_KINDS = ("unit", "mixed")
SIZES = (1000, 10_000, 100_000)
ORACLE_DRAWS = 20
ORACLE_MEAN_DEGREE = 4.0
ORACLE_PROBLEMS = ("vc", "color", "ds", "tds", "cds")


def _inputs(kind: str, n: int):
    """(draw, instance, its text, its graph) for ``kind`` radii at size ``n``."""
    spec = KINDS[kind]
    radius, radius_high = spec["radius"], spec["radius_high"]
    box = bench.tuned_box(n, radius, radius_high, MEAN_DEGREE)
    seed = derive_seed(SEED, n)

    def draw():
        return geometry.random_instance(n, box, radius, seed, radius_high)

    inst = _scale_instance(spec, n, seed)
    return draw, inst, formats.render_instance(inst), geometry.instance_to_graph(inst)


def layers(kind: str, n: int):
    """(name, vertices, zero-argument callable) for every layer at one size."""
    draw, inst, text, G = _inputs(kind, n)
    variant = KINDS[kind]["variant"]
    options = Options(lambda count: ArrivalSequence.of(range(count)))
    out = [
        ("random_instance", n, draw),
        ("parse_instance", inst.n, lambda: formats.parse_instance(text)),
        ("instance_to_graph", inst.n, lambda: geometry.instance_to_graph(inst)),
        ("nt_decompose", inst.n, lambda: matching.nt_decompose(G)),
    ]
    for name, problem in PROBLEMS.items():
        meta: dict = {}
        answer = problem.heuristic(G, inst, variant, options, meta)
        label = f"heuristic.{name}" + (f".{meta['method']}" if "method" in meta else "")
        out.append((label, inst.n, lambda p=problem: p.heuristic(G, inst, variant, options, {})))
        if problem.edge_free is None:
            continue
        solution = answer.colors if problem.coloring else answer.members
        out += [
            (f"verify_full.{name}", inst.n,
             lambda p=problem, s=solution: p.check(geometry.instance_to_graph(inst), s)),
            (f"verify_subset.{name}", inst.n, lambda p=problem, s=solution: cli._holds(p, inst, s)),
        ]
    return out


def oracle_layers(kind: str):
    """(``oracle.<problem>``, n, callable over ``ORACLE_DRAWS`` graphs) per oracle."""
    radius, radius_high = KINDS[kind]["radius"], KINDS[kind]["radius_high"]
    out = []
    for name in ORACLE_PROBLEMS:
        oracle = PROBLEMS[name].oracle
        n = getattr(exact.DEFAULT_LIMITS, PROBLEMS[name].cap)
        box = bench.tuned_box(n, radius, radius_high, ORACLE_MEAN_DEGREE)
        graphs = [
            geometry.random_connected_instance(n, box, radius, derive_seed(SEED, draw), radius_high)[1]
            for draw in range(ORACLE_DRAWS)
        ]
        out.append((f"oracle.{name}", n, lambda o=oracle, gs=graphs: [o(G) for G in gs]))
    return out


def search_nodes(fn) -> int:
    """Search nodes ``fn()`` visits in the oracles, read from a counting ``_NodeBudget``."""
    budgets = []

    class CountingBudget(exact._NodeBudget):
        __slots__ = ()

        def __init__(self, cap: int):
            super().__init__(cap)
            budgets.append(self)

    plain = exact._NodeBudget
    exact._NodeBudget = CountingBudget
    try:
        fn()
    finally:
        exact._NodeBudget = plain
    return sum(budget.nodes for budget in budgets)


def slope(ns, times) -> float | None:
    """Least-squares slope of log(time) against log(n); None below two sizes."""
    if len(ns) < 2:
        return None
    xs = [math.log(n) for n in ns]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else None


def measure(sizes, k: int) -> dict:
    """Per ``<kind>/<layer>``: n, median seconds, median ref units and slope,
    and for an oracle layer its search nodes per call."""
    reference = Reference()
    table: dict[str, dict] = {}
    gc.freeze()
    try:
        for kind in KINDS:
            for n in sizes:
                time_layers(table, kind, lambda: layers(kind, n), 1, k, reference)
            if kind in ORACLE_KINDS:
                time_layers(table, kind, lambda: oracle_layers(kind), ORACLE_DRAWS, k, reference)
    finally:
        gc.unfreeze()
    for row in table.values():
        row["slope"] = slope(row["n"], row["s"])
        if row["slope"] is not None:
            row["slope"] = round(row["slope"], 3)
    return table


def time_layers(table: dict, kind: str, build, calls: int, k: int, reference) -> None:
    """Build the layers and time each ``k`` times between reference samples.

    Each layer's callable makes ``calls`` calls; an oracle layer
    (``calls`` > 1) also records its search nodes.
    """
    for name, vertices, fn in build():
        reference.sample()
        seconds = []
        for _ in range(k):
            gc.collect()
            started = time.perf_counter()
            fn()
            seconds.append((time.perf_counter() - started) / calls)
            reference.sample()
        unit = reference.unit()
        row = table.setdefault(f"{kind}/{name}", {"n": [], "s": [], "ref": []})
        row["n"].append(vertices)
        row["s"].append(round(statistics.median(seconds), 6))
        row["ref"].append(round(statistics.median(seconds) / unit, 4))
        if calls > 1:
            row["nodes"] = [round(search_nodes(fn) / calls, 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)),
                        help="comma-separated disk counts (default 1000,10000,100000)")
    parser.add_argument("-k", type=int, default=3, help="timed runs per layer and size")
    parser.add_argument("--label", default="", help="names the run, e.g. a commit")
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)
    sizes = [int(tok) for tok in args.sizes.split(",")]
    if args.k < 1 or not sizes or min(sizes) < 2:
        parser.error("-k must be at least 1 and every size at least 2")

    run = {
        "label": args.label,
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "seed": SEED,
        "mean_degree": MEAN_DEGREE,
        "sizes": sizes,
        "k": args.k,
        "layers": measure(sizes, args.k),
    }
    out = Path(args.out)
    document = json.loads(out.read_text()) if out.exists() else {"runs": []}
    document["runs"].append(run)
    out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

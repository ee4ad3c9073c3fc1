"""Layer-by-layer timings of diskapprox, appended to a ``BENCH_layers.json`` file.

    python3 tools/layers.py --label "abc1234" --out BENCH_layers.json
    python3 tools/layers.py --sizes 100 -k 1 --out /tmp/layers.json
    python3 tools/layers.py --parent ../parent -k 10 --label "abc1234 vs parent"

Run from any directory; the package is imported from this checkout's
``src/``.  For three kinds of radii, ``unit`` (perfbench's unit-scale
workload), ``mixed`` (uniform in [0.5, 2]) and ``scale`` (perfbench's
mixed-scale workload: ``mixed`` plus one radius-16 disk per 1000 disks, so
pairing crosses radius levels), at each size n it takes perfbench's scale
instance, ``workloads._scale_instance``: ``random_instance`` at mean
degree 6, reduced to its giant component (so every heuristic, ``tds`` and
``cds`` included, has an input), and times these layers:

* ``random_instance`` (the raw draw of n disks, without the radius-16 ones)
  and ``read_instance`` of the component's file text, written to a
  temporary file once per group;
* ``cli_parser``, the work every ``cli.main`` job does before it
  dispatches: ``cli._build_parser()`` and ``parse_args`` of a ``solve``
  argv naming that file;
* ``instance_to_graph``;
* every heuristic of the problem table, named ``heuristic.<problem>``; the
  ``mis`` layer adds its method, ``sweep`` on unit disks and
  ``eligibility-search`` on the other radii;
* ``verify_subset.<problem>``, the verify core of every problem: a call
  of the table entry's ``on_disks`` on the heuristic's answer, which is
  what ``verify`` runs on a geometric file.  It pairs only the sets whose
  edges decide the verdict and tests domination against a cell index of
  the chosen disks.

Older runs, whose rows stay in ``BENCH_layers.json``, also time three
layers that measure no step of a job: ``verify_full.<problem>`` (the whole
instance paired and the problem's ``checks`` predicate, a path ``verify``
no longer takes), ``parse_instance`` (the inner call of ``read_instance``)
and ``nt_decompose`` of the whole graph (``vc`` decomposes only its
triangle-free core).

The oracle layers, ``oracle.<problem>`` for each problem of
``ORACLE_PROBLEMS``, of the ``unit`` and ``mixed`` kinds run the problem
table's oracle at the default size cap its ``cap`` names, whatever
``--sizes`` says: ``vc`` at n = 24, ``color`` at 16, ``ds`` and ``tds`` at
18 and ``cds`` at 16, each over the same ``ORACLE_DRAWS`` connected draws
at mean degree 4 (as perfbench's oracle-ratio rows).  Older runs name them
by solver: ``oracle.exact_vc``, ``oracle.exact_chromatic`` and
``oracle.exact_domination.plain``, ``.total`` and ``.connected``.

Both modes share one timing loop, :func:`time_group`, over groups: one
size of one kind, or a kind's oracles.  A group's inputs are built, then
frozen (``gc.freeze``), so the collection before each run scans only what
the layers made.  In each of ``-k`` rounds every layer runs once, starting
one layer later than the round before, so drift that lasts a few runs
reaches one run of a layer, not all of them.

A plain run records per layer and size the median seconds, the median
reference units (each run over the median of the last ``Reference.WINDOW``
samples of ``perfbench/workloads.Reference``, one taken after each layer,
so CPU speed drift on a shared machine mostly cancels) and a log-log
least-squares slope over the sizes; an oracle layer's times are per call,
and it adds ``nodes``, the search nodes per call, from a counting
subclass of the oracles' node budget.  The run goes to the ``runs`` list
of ``--out``, created when missing; ``--out`` in a missing directory, or
naming a file that holds no JSON object, is an argument error before
anything is measured.  Runs recorded before both modes
shared the loop ran a layer's ``k`` runs back to back: on a 2-vCPU VM at
n = 3000 their ``ref`` medians read within a few percent of this loop's,
but this loop reads ``random_instance`` 4-16% higher, as its runs are no
longer back to back.

With ``--parent PATH`` the tool runs an A/B comparison instead.  It loads
``PATH/src`` as ``diskapprox_parent`` (the package imports itself only
relatively), builds every group with both copies on the same disks, and
before timing it stops with an error naming the first layer that one copy
has and the other lacks, or whose outputs differ.  Each
layer of a round runs the change, the parent and the parent again (an A/A
control) back to back, in an order that rotates with the round; 10 or
more rounds make a reading.  The ``ab`` list of ``--out`` gets per layer
and size the quartiles of the change/parent ratio, the rounds the change
won, and the control's quartiles, the machine's resolution.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from diskapprox import exact  # noqa: E402
from diskapprox.problems import PROBLEMS  # noqa: E402
from diskapprox.rng import derive_seed  # noqa: E402
from workloads import CATALOG, MEAN_DEGREE, Reference, _scale_instance  # noqa: E402

MODULES = ("bench", "cli", "covering", "formats", "geometry", "problems")


def modules(package: str) -> SimpleNamespace:
    """The submodules of ``package`` that the layers call, by short name."""
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}") for name in MODULES})


CHANGE = modules("diskapprox")
PARENT_NAME = "diskapprox_parent"


def load_parent(path) -> SimpleNamespace:
    """The package in ``path/src``, imported as ``diskapprox_parent``, as :func:`modules`."""
    root = Path(path).resolve() / "src" / "diskapprox"
    spec = importlib.util.spec_from_file_location(
        PARENT_NAME, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[PARENT_NAME] = package
    spec.loader.exec_module(package)
    return modules(PARENT_NAME)

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


def _inputs(kind: str, n: int, pkg: SimpleNamespace = CHANGE):
    """(draw, instance, its text, its graph) for ``kind`` radii at size ``n``,
    made with the modules ``pkg`` from the same disks whatever ``pkg`` is."""
    spec = KINDS[kind]
    radius, radius_high = spec["radius"], spec["radius_high"]
    box = pkg.bench.tuned_box(n, radius, radius_high, MEAN_DEGREE)
    seed = derive_seed(SEED, n)

    def draw():
        return pkg.geometry.random_instance(n, box, radius, seed, radius_high)

    inst = pkg.geometry.GeometricInstance(_scale_instance(spec, n, seed).disks)
    return draw, inst, pkg.formats.render_instance(inst), pkg.geometry.instance_to_graph(inst)


def layers(kind: str, n: int, folder: str, pkg: SimpleNamespace = CHANGE):
    """(``<kind>/<layer>``, vertices, zero-argument callable) for every layer at
    one size; the instance file is written into the directory ``folder``."""
    draw, inst, text, G = _inputs(kind, n, pkg)
    path = Path(folder, f"{kind}-{n}.udg")
    if not path.exists():  # the copy built first writes it, so both copies read the same bytes
        path.write_text(text)
    argv = ["solve", str(path), "--problem", "vc"]
    variant = KINDS[kind]["variant"]
    options = pkg.problems.Options(lambda count: pkg.covering.ArrivalSequence.of(range(count)))
    out = [
        ("random_instance", n, draw),
        ("read_instance", inst.n, lambda: pkg.formats.read_instance(path)),
        ("cli_parser", inst.n, lambda: pkg.cli._build_parser().parse_args(argv)),
        ("instance_to_graph", inst.n, lambda: pkg.geometry.instance_to_graph(inst)),
    ]
    for name, problem in pkg.problems.PROBLEMS.items():
        meta: dict = {}
        answer = problem.heuristic(G, inst, variant, options, meta)
        label = f"heuristic.{name}" + (f".{meta['method']}" if "method" in meta else "")
        solution = answer.colors if problem.coloring else answer.members
        out += [
            (label, inst.n, lambda p=problem: p.heuristic(G, inst, variant, options, {})),
            (f"verify_subset.{name}", inst.n,
             lambda p=problem, s=solution: p.on_disks(inst, s)),
        ]
    return [(f"{kind}/{name}", vertices, fn) for name, vertices, fn in out]


def oracle_layers(kind: str, pkg: SimpleNamespace = CHANGE):
    """(``<kind>/oracle.<problem>``, n, callable over ``ORACLE_DRAWS`` graphs) per oracle."""
    radius, radius_high = KINDS[kind]["radius"], KINDS[kind]["radius_high"]
    out = []
    for name in ORACLE_PROBLEMS:
        oracle = pkg.problems.PROBLEMS[name].oracle
        n = getattr(exact.DEFAULT_LIMITS, PROBLEMS[name].cap)
        box = pkg.bench.tuned_box(n, radius, radius_high, ORACLE_MEAN_DEGREE)
        graphs = [
            pkg.geometry.random_connected_instance(n, box, radius, derive_seed(SEED, draw), radius_high)[1]
            for draw in range(ORACLE_DRAWS)
        ]
        out.append((f"{kind}/oracle.{name}", n, lambda o=oracle, gs=graphs: [o(G) for G in gs]))
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


def plain(value):
    """``value`` with the package's records turned into tuples, so outputs
    of the two copies, whose classes differ, compare by content."""
    if dataclasses.is_dataclass(value):
        return tuple(plain(getattr(value, field.name)) for field in dataclasses.fields(value))
    if hasattr(value, "adj"):  # a Graph
        return tuple(map(tuple, value.adj))
    if isinstance(value, argparse.Namespace):  # parsed arguments; the command by name
        return tuple(sorted((key, getattr(item, "__name__", item)) for key, item in vars(value).items()))
    if isinstance(value, (list, tuple)):
        return tuple(map(plain, value))
    return value


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``, rounded."""
    if len(values) < 2:
        return (round(values[0], 4),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return round(q1, 4), round(q2, 4), round(q3, 4)


class Mismatch(ValueError):
    """A layer that only one copy has, or whose outputs differ between the
    change and the parent."""


def time_group(build, k: int, reference, parent: SimpleNamespace | None = None) -> list:
    """Build one group's layers and time them in ``k`` interleaved rounds.

    ``build(pkg)`` gives (name, vertices, callable) per layer made with the
    modules ``pkg``; with ``parent`` both copies are built and compared
    first, their layer names and then each layer's outputs
    (:class:`Mismatch`).  Per layer it returns (name, vertices,
    callable, each side's ``k`` seconds, the ``k`` reference units read
    after the layer's runs).
    """
    built = build(CHANGE)
    sides = [[("change", fn)] for _, _, fn in built]
    if parent is not None:
        old_built = build(parent)
        names, parent_names = [layer[0] for layer in built], [layer[0] for layer in old_built]
        lone = [f"layer {name} of the change has no counterpart in the parent"
                for name in names if name not in parent_names]
        lone += [f"layer {name} of the parent has no counterpart in the change"
                 for name in parent_names if name not in names]
        if lone:
            raise Mismatch(lone[0])
        for (name, vertices, new), (parent_name, _, old), row in zip(built, old_built, sides):
            if name != parent_name:
                raise Mismatch(f"layer {name} of the change meets {parent_name} of the parent")
            if plain(new()) != plain(old()):
                raise Mismatch(f"layer {name} at n={vertices}: the outputs differ")
            row += [("parent", old), ("control", old)]
    seconds = [{side: [] for side, _ in row} for row in sides]
    units: list[list[float]] = [[] for _ in built]
    gc.collect()
    gc.freeze()
    try:
        reference.sample()
        for round_ in range(k):
            for i in [(round_ + j) % len(built) for j in range(len(built))]:
                row = sides[i][round_ % len(sides[i]):] + sides[i][:round_ % len(sides[i])]
                for side, fn in row:
                    gc.collect()
                    started = time.perf_counter()
                    fn()
                    seconds[i][side].append(time.perf_counter() - started)
                reference.sample()
                units[i].append(reference.unit())
    finally:
        gc.unfreeze()
    return [(*layer, times, unit) for layer, times, unit in zip(built, seconds, units)]


def measure(sizes, k: int, parent: SimpleNamespace | None = None) -> dict:
    """Per ``<kind>/<layer>`` over the groups (each size of each kind, then
    the kind's oracles): plain, n, median seconds and ref units, slope and
    an oracle's search nodes per call; against ``parent``, n, the
    change/parent and control ratios' quartiles and the rounds the change won."""
    reference = Reference()
    table: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="layers-") as folder:
        for kind in KINDS:
            groups = [(1, lambda pkg, n=n: layers(kind, n, folder, pkg)) for n in sizes]
            if kind in ORACLE_KINDS:
                groups.append((ORACLE_DRAWS, lambda pkg: oracle_layers(kind, pkg)))
            for calls, build in groups:
                for name, vertices, fn, seconds, units in time_group(build, k, reference, parent):
                    change = seconds["change"]
                    if parent is None:
                        row = table.setdefault(name, {"n": [], "s": [], "ref": []})
                        row["s"].append(round(statistics.median(change) / calls, 6))
                        refs = [run / unit for run, unit in zip(change, units)]
                        row["ref"].append(round(statistics.median(refs) / calls, 4))
                        if calls > 1:
                            row["nodes"] = [round(search_nodes(fn) / calls, 1)]
                    else:
                        row = table.setdefault(name, {"n": [], "ratio": [], "won": [], "control": []})
                        ratios = [new / old for new, old in zip(change, seconds["parent"])]
                        row["ratio"].append(quartiles(ratios))
                        row["won"].append(sum(ratio < 1.0 for ratio in ratios))
                        controls = [again / old
                                    for again, old in zip(seconds["control"], seconds["parent"])]
                        row["control"].append(quartiles(controls))
                    row["n"].append(vertices)
    if parent is None:
        for row in table.values():
            fit = slope(row["n"], row["s"])
            row["slope"] = None if fit is None else round(fit, 3)
    return table


def size_list(text: str) -> list[int]:
    """The comma-separated disk counts of ``--sizes``."""
    return [int(token) for token in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=size_list, default=",".join(map(str, SIZES)),
                        help="comma-separated disk counts (default 1000,10000,100000)")
    parser.add_argument("-k", type=int, default=3,
                        help="timed rounds per layer and size")
    parser.add_argument("--label", default="", help="names the run, e.g. a commit")
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    parser.add_argument("--parent", help="A/B against the package in PARENT/src")
    args = parser.parse_args(argv)
    if args.k < 1 or min(args.sizes) < 2:
        parser.error("-k must be at least 1 and every size at least 2")
    if args.parent and not (init := Path(args.parent, "src", "diskapprox", "__init__.py")).is_file():
        parser.error(f"--parent: no package at {init}")
    out = Path(args.out)
    if not out.parent.is_dir():
        parser.error(f"--out: no directory {out.parent}")
    try:
        document = json.loads(out.read_text()) if out.exists() else {"runs": []}
    except (OSError, ValueError):
        document = None
    if not isinstance(document, dict):
        parser.error(f"--out: {out} holds no JSON object")

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
        "sizes": args.sizes,
        "k": args.k,
    }
    parent = load_parent(args.parent) if args.parent else None
    if parent:
        run["parent"] = str(args.parent)
    try:
        run["layers"] = measure(args.sizes, args.k, parent)
    except Mismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    document.setdefault("ab" if parent else "runs", []).append(run)
    out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Subcommands: gen, solve, exact, verify, bench, bound.  solve and exact
print a JSON document, bench prints CSV, gen prints an instance file; with
a fixed --seed every invocation is byte-reproducible.  Exit codes: 0 on
success, 1 on usage or input errors or when memory runs out, 2 when a
heuristic certifies the input is outside its graph class.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from . import covering
from .errors import BadParameter, ClassCertificateError, DiskApproxError
from .formats import (
    parse_solution,
    read_instance,
    render_instance,
    solution_document,
    solution_to_json,
    write_instance,
)
from .geometry import (
    GeometricInstance,
    instance_to_graph,
    polygon_independence_bound,
    random_connected_instance,
    random_instance,
)
from .graphs import Graph
from .problems import PROBLEMS, Options

SOLVE_PROBLEMS = tuple(PROBLEMS)


def _parse_radius_spec(spec: str) -> tuple[float, float | None]:
    low_text, colon, high_text = spec.partition(":")
    try:
        return float(low_text), float(high_text) if colon else None
    except ValueError:
        raise BadParameter(f"--radius must be R or LOW:HIGH, got {spec!r}") from None


def _parse_n_range(spec: str) -> tuple[int, int]:
    low_text, _, high_text = spec.partition(":")
    try:
        low, high = int(low_text), int(high_text)
    except ValueError:
        raise BadParameter(f"--n-range must be two integers LOW:HIGH, got {spec!r}") from None
    if not 1 <= low <= high:
        raise BadParameter(f"--n-range needs 1 <= LOW <= HIGH, got {spec!r}")
    return low, high


def _parse_order_spec(spec: str, n: int) -> covering.ArrivalSequence:
    if spec == "ids":
        return covering.ArrivalSequence.of(range(n))
    try:
        if spec.startswith("random:"):
            return covering.ArrivalSequence.random(n, int(spec.split(":", 1)[1]))
        order = [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise BadParameter(
            "--order must be 'ids', 'random:SEED' or a comma-separated list of vertex ids, "
            f"got {spec!r}"
        ) from None
    return covering.ArrivalSequence.of(order)


def _cmd_gen(args) -> int:
    radius, radius_high = _parse_radius_spec(args.radius)
    if args.connected:
        inst, _ = random_connected_instance(args.n, args.box, radius, args.seed, radius_high)
    else:
        inst = random_instance(args.n, args.box, radius, args.seed, radius_high)
    if args.output:
        write_instance(inst, args.output)
    else:
        sys.stdout.write(render_instance(inst))
    return 0


def _load(path) -> tuple[GeometricInstance | None, Graph]:
    """The instance file at ``path`` as (its disks, or None for an abstract file; its graph)."""
    instance = read_instance(path)
    if isinstance(instance, Graph):
        return None, instance
    return instance, instance_to_graph(instance)


def _cmd_solution(args) -> int:
    """solve and exact: the problem's heuristic or its exact oracle, as a solution document."""
    # --root and --order exist on args only when given (argparse.SUPPRESS)
    for flag, owner in (("root", "cds"), ("order", "online-color")):
        if hasattr(args, flag) and args.problem != owner:
            raise BadParameter(f"--{flag} applies only to --problem {owner}")
    inst, G = _load(args.instance)
    problem = PROBLEMS[args.problem]
    if args.command == "exact":
        meta: dict = {"n": G.n, "m": G.m, "oracle": True}
        value, answer = problem.oracle(G)
    else:
        variant = args.variant or ("unit" if inst is None or inst.unit else "circle")
        meta = {"variant": variant, "n": G.n, "m": G.m}
        order = getattr(args, "order", "ids")
        options = Options(lambda n: _parse_order_spec(order, n), getattr(args, "root", 0))
        answer = problem.heuristic(G, inst, variant, options, meta)
        value = problem.size(answer)
    if problem.coloring:
        result = solution_document(args.problem, value, colors=answer.colors, meta=meta)
    else:
        result = solution_document(args.problem, value, vertices=answer, meta=meta)
    sys.stdout.write(solution_to_json(result))
    return 0


def _holds(problem, instance, solution) -> bool:
    """Does ``solution`` pass ``problem.check`` on the graph of ``instance``?

    A geometric instance is not paired whole: ``problem.on_disks`` gives the
    same verdict from the disks (see :mod:`problems`).
    """
    if isinstance(instance, Graph):
        return problem.check(instance, solution)
    return problem.on_disks(instance, solution)


def _validate_solution(instance, doc) -> tuple[bool, str]:
    """Check a document from parse_solution against an instance (disks or a
    Graph); (ok, reason)."""
    name = doc["problem"]
    problem = PROBLEMS.get(name)
    if problem is None:
        return False, f"unknown problem {name!r}"
    n = instance.n
    if problem.coloring:
        colors = doc.get("colors", [])
        if len(colors) != n or min(colors, default=1) < 1 or not _holds(problem, instance, colors):
            return False, "coloring is not proper"
        if doc["value"] != max(colors, default=0):
            return False, "value does not match the number of colors"
    else:
        vertices = doc.get("vertices", [])
        if not all(0 <= v < n for v in vertices):
            return False, f"vertex id outside [0, {n})"
        if len(set(vertices)) != len(vertices):
            return False, "repeated vertex id"
        if doc["value"] != len(vertices):
            return False, "value does not match the vertex count"
        if not _holds(problem, instance, vertices):
            return False, f"not a valid {name} solution"
    return True, "ok"


def _cmd_verify(args) -> int:
    instance = read_instance(args.instance)
    with open(args.solution, "r", encoding="utf-8") as handle:
        solution = parse_solution(handle.read())
    ok, reason = _validate_solution(instance, solution)
    print("valid" if ok else f"invalid: {reason}")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    n_low, n_high = _parse_n_range(args.n_range)
    radius, radius_high = _parse_radius_spec(args.radius)
    problems = tuple(p.strip() for p in args.problems.split(",") if p.strip())
    records = bench_mod.run_bench(
        instances=args.instances,
        n_low=n_low,
        n_high=n_high,
        problems=problems,
        seed=args.seed,
        radius=radius,
        radius_high=radius_high,
        mean_degree=args.mean_degree,
    )
    sys.stdout.write(bench_mod.records_to_csv(records, with_timing=args.timings))
    return 0


def _cmd_bound(args) -> int:
    print(polygon_independence_bound(args.polygon))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskapprox",
        description="Approximation heuristics and exact oracles for disk intersection graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random geometric instance")
    gen.add_argument("-n", type=int, required=True, help="number of disks")
    gen.add_argument("--box", type=float, required=True, help="side of the sampling square")
    gen.add_argument("--radius", default="1", help="disk radius, or LOW:HIGH for a uniform range")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument(
        "--connected",
        action="store_true",
        help="rejection-sample until the derived graph is connected",
    )
    gen.add_argument("-o", "--output", help="write to this path instead of stdout")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run a heuristic on an instance file")
    solve.add_argument("instance")
    solve.add_argument("--problem", required=True, choices=SOLVE_PROBLEMS)
    solve.add_argument("--variant", choices=("unit", "circle"), default=None)
    solve.add_argument(
        "--root", type=int, default=argparse.SUPPRESS, help="root vertex for cds (default 0)"
    )
    solve.add_argument(
        "--order",
        default=argparse.SUPPRESS,
        help="arrival order for online-color: 'ids' (default), 'random:SEED', or a comma list",
    )
    solve.set_defaults(func=_cmd_solution)

    exact_cmd = sub.add_parser("exact", help="run an exact oracle on an instance file")
    exact_cmd.add_argument("instance")
    exact_cmd.add_argument("--problem", required=True, choices=SOLVE_PROBLEMS)
    exact_cmd.set_defaults(func=_cmd_solution)

    verify = sub.add_parser("verify", help="check a solution file against an instance")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="heuristic vs oracle ratios as CSV")
    bench.add_argument("--instances", type=int, required=True)
    bench.add_argument("--n-range", required=True, help="LOW:HIGH vertex counts")
    bench.add_argument("--problems", required=True, help="comma-separated problem names")
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--radius", default="1", help="radius, or LOW:HIGH for the circle variant")
    bench.add_argument("--mean-degree", type=float, default=4.0)
    bench.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock ms (off by default so output is reproducible)",
    )
    bench.set_defaults(func=_cmd_bench)

    bound = sub.add_parser("bound", help="neighborhood independence bound for regular polygons")
    bound.add_argument("--polygon", type=int, required=True, help="number of sides")
    bound.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except ClassCertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DiskApproxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input is too large or too dense", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

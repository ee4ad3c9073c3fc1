"""Benchmark harness: seeded instances, heuristic vs oracle, one CSV row each.

Instances are connected unit-disk (or arbitrary-radius) samples whose box
side targets a mean degree, the default matching the regime the guarantees
are usually exercised in.  Rows are emitted in generation order, which is
a pure function of the master seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

from .covering import ArrivalSequence
from .errors import BadParameter
from .exact import check_size
from .geometry import _check_radius_range, random_connected_instance
from .problems import PROBLEMS, Options
from .rng import Rng, derive_seed

CSV_HEADER = "seed,n,box,radius,problem,heur,opt,ratio,bound,ms"


@dataclass(frozen=True)
class BenchRecord:
    """One heuristic-vs-oracle measurement."""

    seed: int
    n: int
    box: float
    radius: float
    radius_high: Optional[float]
    problem: str
    heur: int
    opt: int
    ratio: float
    bound: float
    ms: int

    def to_csv_row(self, with_timing: bool = False) -> str:
        fields = (
            str(self.seed),
            str(self.n),
            format(self.box, ".6g"),
            _radius_text(self.radius, self.radius_high),
            self.problem,
            str(self.heur),
            str(self.opt),
            format(self.ratio, ".6g"),
            format(self.bound, ".6g"),
            str(self.ms if with_timing else 0),
        )
        return ",".join(fields)


def _radius_text(radius: float, radius_high: Optional[float]) -> str:
    """``R``, or ``LOW:HIGH`` for a radius range, as ``--radius`` takes it."""
    text = format(radius, "g")
    return text if radius_high is None else f"{text}:{format(radius_high, 'g')}"


def _reach_moments(radius: float, radius_high: Optional[float]) -> tuple[float, float, float]:
    """E[reach^2], E[reach^3], E[reach^4] for reach = r_i + r_j."""
    if radius_high is None or radius_high == radius:
        reach = 2.0 * radius
        return reach**2, reach**3, reach**4

    span = radius_high - radius

    def single(power: int) -> float:
        return (radius_high ** (power + 1) - radius ** (power + 1)) / ((power + 1) * span)

    def moment(k: int) -> float:
        return sum(math.comb(k, i) * single(i) * single(k - i) for i in range(k + 1))

    return moment(2), moment(3), moment(4)


@lru_cache(maxsize=1024, typed=True)
def tuned_box(n: int, radius: float, radius_high: Optional[float], mean_degree: float) -> float:
    """Box side giving the target expected mean degree, boundary effects included.

    For two uniform points in a square of side L and a reach at most L, the
    edge probability is exactly pi t^2 - (8/3) t^3 + t^4 / 2 with t = reach/L;
    averaging over the radius range keeps the formula exact because it is a
    polynomial in the reach.  The box never shrinks below the largest reach,
    which caps the density at nearly complete graphs for tiny n.
    """
    largest_reach = 2.0 * (radius_high if radius_high is not None else radius)
    if n <= 1:
        return largest_reach
    m2, m3, m4 = _reach_moments(radius, radius_high)

    def edge_probability(box: float) -> float:
        return (
            math.pi * m2 / box**2
            - (8.0 / 3.0) * m3 / box**3
            + m4 / (2.0 * box**4)
        )

    target = mean_degree / (n - 1)
    low = largest_reach
    if edge_probability(low) <= target:
        return low
    high = low
    while edge_probability(high) > target:
        high *= 2.0
    for _ in range(60):
        mid = (low + high) / 2.0
        if edge_probability(mid) > target:
            low = mid
        else:
            high = mid
    return high


def run_bench(
    instances: int,
    n_low: int,
    n_high: int,
    problems: tuple[str, ...],
    seed: int,
    radius: float = 1.0,
    radius_high: Optional[float] = None,
    mean_degree: float = 4.0,
) -> list[BenchRecord]:
    """Benchmark ``instances`` connected instances over the requested problems."""
    if instances < 1:
        raise BadParameter("need at least one instance")
    if not 1 <= n_low <= n_high:
        raise BadParameter("bad n range")
    if not problems:
        raise BadParameter("need at least one problem")
    unknown = [p for p in problems if p not in PROBLEMS]
    if unknown:
        raise BadParameter(f"unknown problems: {unknown}")
    if not 0 < mean_degree < math.inf:
        raise BadParameter("mean_degree must be positive and finite")
    _check_radius_range(radius, radius_high)
    if radius_high == radius:
        radius_high = None  # equal radii are unit disks, as in random_instance
    variant = "unit" if radius_high is None else "circle"
    for p in problems:
        if variant not in PROBLEMS[p].bounds:
            raise BadParameter(f"no {variant}-variant guarantee for problem {p!r}")

    size_stream = Rng(derive_seed(seed, 1 << 32))
    records: list[BenchRecord] = []
    for index in range(instances):
        n = n_low + size_stream.randrange(n_high - n_low + 1)
        instance_seed = derive_seed(seed, index)
        try:
            box = tuned_box(n, radius, radius_high, mean_degree)
        except (OverflowError, ZeroDivisionError):
            # a power of the reach or of the box left the float range
            raise BadParameter(
                f"no box side for --radius {_radius_text(radius, radius_high)}"
                f" and --mean-degree {mean_degree:g} is representable"
            ) from None
        for name in problems:
            # the oracle's own refusal, before a draw that it would refuse
            check_size(n, PROBLEMS[name].cap)
        inst, G = random_connected_instance(n, box, radius, instance_seed, radius_high)
        options = Options(partial(ArrivalSequence.random, seed=derive_seed(instance_seed, 7)))
        for name in problems:
            problem = PROBLEMS[name]
            started = time.perf_counter()
            heur = problem.size(problem.heuristic(G, inst, variant, options, {}))
            opt, _ = problem.oracle(G)
            elapsed_ms = int((time.perf_counter() - started) * 1000)
            records.append(
                BenchRecord(
                    seed=instance_seed,
                    n=n,
                    box=box,
                    radius=radius,
                    radius_high=radius_high,
                    problem=name,
                    heur=heur,
                    opt=opt,
                    ratio=problem.ratio(heur, opt),
                    bound=problem.bounds[variant],
                    ms=elapsed_ms,
                )
            )
    return records


def records_to_csv(records: list[BenchRecord], with_timing: bool = False) -> str:
    lines = [CSV_HEADER]
    lines.extend(record.to_csv_row(with_timing) for record in records)
    return "\n".join(lines) + "\n"

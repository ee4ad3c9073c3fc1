"""The problem table: each problem's heuristic, exact oracle, validity check,
and the ratio the heuristic is proven to meet per variant.

Entries reach covering, domination, exact, checks, geometry and graphs
through the module at call time, not through stored function objects, so a
caller that swaps module attributes (a tracer, a mock) sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import checks, covering, domination, exact, geometry, graphs


@dataclass(frozen=True)
class Options:
    """Inputs some heuristics read: the on-line arrival order for n vertices, the cds root."""

    arrival: Callable[[int], covering.ArrivalSequence]
    root: Optional[int] = None


@dataclass(frozen=True)
class Problem:
    """One row of the table.

    ``heuristic(G, inst, variant, options, meta)`` returns a VertexSet (a
    Coloring if ``coloring``) and may note how it ran in ``meta``;
    ``oracle(G, limits)`` returns (optimum, witness); ``check(G, solution)``
    validates a vertex list or a color list; ``bounds`` maps each variant
    with a guarantee to its ratio.
    """

    heuristic: Callable
    oracle: Callable
    check: Callable
    bounds: dict[str, float]
    maximize: bool = False
    coloring: bool = False

    def size(self, answer) -> int:
        """Objective value of a heuristic's answer: colors used or vertices chosen."""
        return answer.num_colors if self.coloring else len(answer)

    def ratio(self, heur: int, opt: int) -> float:
        """Approximation ratio, oriented so that 1 is optimal."""
        larger, smaller = (opt, heur) if self.maximize else (heur, opt)
        return larger / smaller if smaller else 1.0


def _online_color(G, inst, variant, options, meta):
    sequence = options.arrival(G.n)
    meta["order"] = list(sequence.order)
    return covering.color_online_firstfit(G, sequence)


def _independent_set(G, inst, variant, options, meta):
    """Equal radii: greedy maximal independent set over ``G`` in sweep_order.

    The leftmost surviving unit disk's neighborhood holds at most 3
    independent disks, all to its right, so each pick deletes at most 3
    disks of an optimum: ratio 3, in O(n log n + m) on the graph already
    built.  Anything else runs the eligibility search (bound 5 for circles).
    """
    if inst is not None and variant == "unit" and inst.unit:
        meta["method"] = "sweep"
        return graphs.greedy_maximal_independent_set(G, geometry.sweep_order(inst))
    meta["method"] = "eligibility-search"
    return domination.independent_set_graph(G, 3 if variant == "unit" else 5)


def _connected_dominating_set(G, inst, variant, options, meta):
    chosen, trace = domination.connected_dominating_set(G, options.root)
    meta["root"] = options.root if options.root is not None else 0
    meta["trace"] = trace.to_dict()
    return chosen


PROBLEMS: dict[str, Problem] = {
    "vc": Problem(
        heuristic=lambda G, inst, variant, *_: covering.vertex_cover(G, 4 if variant == "unit" else 6),
        oracle=lambda G, limits: exact.exact_vc(G, limits),
        check=lambda G, vertices: checks.is_vertex_cover(G, vertices),
        bounds={"unit": 1.5, "circle": 5.0 / 3.0},
    ),
    "color": Problem(
        heuristic=lambda G, *_: covering.color_offline(G),
        oracle=lambda G, limits: exact.exact_chromatic(G, limits),
        check=lambda G, colors: checks.is_proper_coloring(G, colors),
        bounds={"unit": 3.0, "circle": 6.0},
        coloring=True,
    ),
    "online-color": Problem(
        heuristic=_online_color,
        oracle=lambda G, limits: exact.exact_chromatic(G, limits),
        check=lambda G, colors: checks.is_proper_coloring(G, colors),
        bounds={"unit": 6.0},
        coloring=True,
    ),
    "mis": Problem(
        heuristic=_independent_set,
        oracle=lambda G, limits: exact.exact_mis(G, limits),
        check=lambda G, vertices: checks.is_independent_set(G, vertices),
        bounds={"unit": 3.0, "circle": 5.0},
        maximize=True,
    ),
    "ds": Problem(
        heuristic=lambda G, *_: domination.dominating_set(G),
        oracle=lambda G, limits: exact.exact_domination(G, "plain", limits),
        check=lambda G, vertices: checks.is_dominating_set(G, vertices),
        bounds={"unit": 5.0},
    ),
    "ids": Problem(
        heuristic=lambda G, *_: domination.dominating_set(G),
        oracle=lambda G, limits: exact.exact_domination(G, "independent", limits),
        check=lambda G, vertices: checks.is_independent_dominating_set(G, vertices),
        bounds={"unit": 5.0},
    ),
    "tds": Problem(
        heuristic=lambda G, *_: domination.total_dominating_set(G),
        oracle=lambda G, limits: exact.exact_domination(G, "total", limits),
        check=lambda G, vertices: checks.is_total_dominating_set(G, vertices),
        bounds={"unit": 10.0},
    ),
    "cds": Problem(
        heuristic=_connected_dominating_set,
        oracle=lambda G, limits: exact.exact_domination(G, "connected", limits),
        check=lambda G, vertices: checks.is_connected_dominating_set(G, vertices),
        bounds={"unit": 10.0},
    ),
}

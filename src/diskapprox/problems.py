"""The problem table: each problem's heuristic, exact oracle, validity check,
and the ratio the heuristic is proven to meet per variant.

Entries reach covering, domination, exact, checks, geometry and graphs
through the module at call time, not through stored function objects, so a
caller that swaps module attributes (a tracer, a mock) sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import checks, covering, domination, exact, geometry, graphs


@dataclass(frozen=True)
class Options:
    """Inputs some heuristics read: the on-line arrival order for n vertices, the cds root."""

    arrival: Callable[[int], covering.ArrivalSequence]
    root: int = 0


@dataclass(frozen=True)
class Problem:
    """One row of the table.

    ``heuristic(G, inst, variant, options, meta)`` returns a VertexSet (a
    Coloring if ``coloring``) and may note how it ran in ``meta``;
    ``oracle(G)`` returns (optimum, witness) under ``exact.DEFAULT_LIMITS``;
    ``cap`` names the ``exact.OracleLimits`` field that bounds the oracle's n;
    ``check(G, solution)`` validates a vertex list or a color list;
    ``bounds`` maps each variant with a guarantee to its ratio;
    ``on_disks(inst, solution)``, for a solution whose ids are in range and
    distinct (a color list: n positive colors), gives ``check``'s verdict on
    ``instance_to_graph(inst)`` from the disks, pairing only the sets that
    must induce no edge or be connected (domination: ``geometry.dominated``).
    """

    heuristic: Callable
    oracle: Callable
    cap: str
    check: Callable
    bounds: dict[str, float]
    on_disks: Callable
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


def _uncovered(n, vertices):
    """The vertices a cover leaves out: every edge has an end in the cover
    exactly when they induce no edge.  Freeing the cover's set before they
    are paired read 0.89 of the time of keeping it, on 10^5 unit disks."""
    chosen = set(vertices)
    return [v for v in range(n) if v not in chosen]


def _colors_disks(inst, colors):
    """A coloring is proper exactly when no color class holds an edge."""
    classes: dict[int, list[int]] = {}
    for v, color in enumerate(colors):
        classes.setdefault(color, []).append(v)
    return all(geometry.pairwise_disjoint(inst, ids) for ids in classes.values())


def _refuse_induced_star(G, inst, variant, independent):
    """On abstract input that claims the unit bound, refuse a graph in which
    some vertex has six neighbors in ``independent()``, the heuristic's
    greedy independent set (see ``domination.refuse_induced_star``).

    Geometric input is exempt: its graph comes from disks, up to the
    rounding of the pair test.
    """
    if inst is None and variant == "unit":
        domination.refuse_induced_star(G, independent())


def _dominating_set(G, inst, variant, options, meta):
    chosen = domination.dominating_set(G)
    _refuse_induced_star(G, inst, variant, lambda: chosen)
    return chosen


def _total_dominating_set(G, inst, variant, options, meta):
    chosen = domination.total_dominating_set(G)
    _refuse_induced_star(G, inst, variant, lambda: domination.dominating_set(G))
    return chosen


def _connected_dominating_set(G, inst, variant, options, meta):
    meta["root"] = options.root
    chosen, meta["trace"] = domination.connected_dominating_set(G, options.root)
    _refuse_induced_star(
        G, inst, variant, lambda: [v for level in meta["trace"]["independent"] for v in level]
    )
    return chosen


PROBLEMS: dict[str, Problem] = {
    "vc": Problem(
        heuristic=lambda G, inst, variant, *_: covering.vertex_cover(G, 4 if variant == "unit" else 6),
        oracle=lambda G: exact.exact_vc(G),
        cap="max_vertex_cover",
        check=lambda G, vertices: checks.is_vertex_cover(G, vertices),
        bounds={"unit": 1.5, "circle": 5.0 / 3.0},
        on_disks=lambda inst, vertices: geometry.pairwise_disjoint(inst, _uncovered(inst.n, vertices)),
    ),
    "color": Problem(
        heuristic=lambda G, *_: covering.color_offline(G),
        oracle=lambda G: exact.exact_chromatic(G),
        cap="max_chromatic",
        check=lambda G, colors: checks.is_proper_coloring(G, colors),
        bounds={"unit": 3.0, "circle": 6.0},
        on_disks=_colors_disks,
        coloring=True,
    ),
    "online-color": Problem(
        heuristic=_online_color,
        oracle=lambda G: exact.exact_chromatic(G),
        cap="max_chromatic",
        check=lambda G, colors: checks.is_proper_coloring(G, colors),
        bounds={"unit": 6.0},
        on_disks=_colors_disks,
        coloring=True,
    ),
    "mis": Problem(
        heuristic=_independent_set,
        oracle=lambda G: exact.exact_mis(G),
        cap="max_independent_set",
        check=lambda G, vertices: checks.is_independent_set(G, vertices),
        bounds={"unit": 3.0, "circle": 5.0},
        on_disks=lambda inst, vertices: geometry.pairwise_disjoint(inst, vertices),
        maximize=True,
    ),
    "ds": Problem(
        heuristic=_dominating_set,
        oracle=lambda G: exact.exact_domination(G, "plain"),
        cap="max_domination",
        check=lambda G, vertices: checks.is_dominating_set(G, vertices),
        bounds={"unit": 5.0},
        on_disks=lambda inst, vertices: geometry.dominated(inst, vertices),
    ),
    "ids": Problem(
        heuristic=_dominating_set,
        oracle=lambda G: exact.exact_domination(G, "independent"),
        cap="max_domination",
        check=lambda G, vertices: checks.is_independent_dominating_set(G, vertices),
        bounds={"unit": 5.0},
        on_disks=lambda inst, vs: geometry.pairwise_disjoint(inst, vs) and geometry.dominated(inst, vs),
    ),
    "tds": Problem(
        heuristic=_total_dominating_set,
        oracle=lambda G: exact.exact_domination(G, "total"),
        cap="max_domination",
        check=lambda G, vertices: checks.is_total_dominating_set(G, vertices),
        bounds={"unit": 10.0},
        on_disks=lambda inst, vertices: geometry.dominated(inst, vertices, total=True),
    ),
    "cds": Problem(
        heuristic=_connected_dominating_set,
        oracle=lambda G: exact.exact_domination(G, "connected"),
        cap="max_connected_domination",
        check=lambda G, vertices: checks.is_connected_dominating_set(G, vertices),
        bounds={"unit": 10.0},
        on_disks=lambda inst, vs: geometry.dominated(inst, vs) and geometry.connected(inst, vs),
    ),
}

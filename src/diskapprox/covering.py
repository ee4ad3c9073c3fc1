"""Vertex cover and the two coloring procedures.

The cover heuristic strips triangles whole, decomposes what is left, and
drops the largest color class of the half-integral core.  For unit-disk
inputs the core colors with 4 colors and the cover is within 1.5 of
optimal; with 6 colors (arbitrary radii) the factor is 5/3.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BadParameter, MinDegreeExceeded
from .geometry import GeometricInstance, sector_clique
from .graphs import Graph, VertexSet, degeneracy_ordering, induced_subgraph
from .matching import nt_decompose
from .rng import Rng


@dataclass(frozen=True)
class Coloring:
    """Per-vertex colors 1..num_colors (0 vertices use 0 colors)."""

    colors: tuple[int, ...]
    num_colors: int

    @staticmethod
    def of(colors: Iterable[int]) -> "Coloring":
        colors = tuple(colors)
        num = max(colors, default=0)
        if colors and (min(colors) < 1 or len(set(colors)) != num):
            raise BadParameter("colors must form the contiguous range 1..num_colors")
        return Coloring(colors, num)


@dataclass(frozen=True)
class ArrivalSequence:
    """Order in which vertices are presented to the on-line colorer."""

    order: tuple[int, ...]

    @staticmethod
    def of(order: Iterable[int]) -> "ArrivalSequence":
        order = tuple(order)
        if sorted(order) != list(range(len(order))):
            raise BadParameter("arrival order must be a permutation of 0..n-1")
        return ArrivalSequence(order)

    @staticmethod
    def random(n: int, seed: int) -> "ArrivalSequence":
        items = list(range(n))
        Rng(seed).shuffle(items)
        return ArrivalSequence(tuple(items))


def _first_fit(G: Graph, order: Iterable[int]) -> Coloring:
    colors = [0] * G.n
    for v in order:
        used = set(map(colors.__getitem__, G.adj[v]))  # 0, uncolored, is never tried
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return Coloring.of(colors)


def color_offline(G: Graph, degree_bound: Optional[int] = None) -> Coloring:
    """First-fit along the reverse minimum-degree removal order.

    Uses at most degeneracy + 1 colors, which is within 3x of optimal on
    unit-disk graphs and 6x on arbitrary-radius disk graphs.  With
    ``degree_bound`` set it uses at most degree_bound + 1, and a peel that
    meets a minimum degree above the bound stops with MinDegreeExceeded,
    whose witness, the vertices left, certifies the input is outside the
    intended class.
    """
    # each vertex sees at most degeneracy colored neighbors in this pass
    order, _ = degeneracy_ordering(G, degree_bound)
    return _first_fit(G, reversed(order))


def vertex_cover(G: Graph, color_bound: int = 4) -> VertexSet:
    """Cover every edge of ``G``.

    Triangles are removed whole (lowest edge first, lowest apex), the
    triangle-free remainder is decomposed, its half-integral core is colored
    by ``color_offline(core, color_bound - 1)``, so with at most
    ``color_bound`` colors, and the largest color class is spared.
    Within max(1.5, 2 * (1 - 1/color_bound)) of optimal whenever the core
    coloring succeeds: bound 4 for unit-disk inputs, 6 for arbitrary radii.
    """
    if color_bound < 2:
        raise BadParameter("color bound must be at least 2")
    alive = [True] * G.n
    taken: list[int] = []
    adj = G.adj
    # Removals only shrink common neighborhoods, so an edge passed over never
    # becomes a hit later: one forward pass strips what restarting at the
    # lowest edge would.  The pass walks adj[u] for v > u, which is G.edges
    # order.  ``here``, the live neighbors of u, is built once per row: a
    # removal happens only at a hit, and a hit removes u, which ends its row.
    for u, nbrs in enumerate(adj):
        if not alive[u]:
            continue
        here = {w for w in nbrs if alive[w]}
        for v in nbrs[bisect_right(nbrs, u):]:
            if v in here and not here.isdisjoint(adj[v]):
                for w in (u, v, min(here.intersection(adj[v]))):
                    alive[w] = False
                    taken.append(w)
                break

    remainder = VertexSet.of([v for v in range(G.n) if alive[v]], G.n)
    core, core_ids = induced_subgraph(G, remainder)
    decomposition = nt_decompose(core)
    cover = taken + [core_ids[v] for v in decomposition.forced]

    if len(decomposition.half) > 0:
        half_graph, half_ids = induced_subgraph(core, decomposition.half)
        try:
            coloring = color_offline(half_graph, color_bound - 1)
        except MinDegreeExceeded as exc:
            original = [core_ids[half_ids[w]] for w in exc.witness]
            raise MinDegreeExceeded(str(exc), VertexSet.of(original, G.n)) from None
        counts = [0] * (coloring.num_colors + 1)
        for c in coloring.colors:
            counts[c] += 1
        spared = max(range(1, coloring.num_colors + 1), key=lambda c: (counts[c], -c))
        cover.extend(
            core_ids[half_ids[v]]
            for v, c in enumerate(coloring.colors)
            if c != spared
        )
    return VertexSet.of(cover, G.n)


def color_online_firstfit(G: Graph, sequence: ArrivalSequence) -> Coloring:
    """Color each arriving vertex with the smallest color unused by the
    neighbors presented before it; never recolors.

    Uses at most max_degree + 1 colors on any graph and is 6-competitive
    with the off-line optimum on unit-disk graphs.
    """
    if len(sequence.order) != G.n:
        raise BadParameter("arrival sequence does not match the graph")
    return _first_fit(G, sequence.order)


def coloring_lower_bound(G: Graph, inst: Optional[GeometricInstance] = None) -> int:
    """Certified lower bound on the chromatic number of a unit-disk input.

    Combines ceil(degeneracy / 3) + 1 with the geometric sector clique when
    the instance is available.
    """
    if G.n == 0:
        return 0
    _, degeneracy = degeneracy_ordering(G)
    bound = (degeneracy + 2) // 3 + 1
    if inst is not None:
        bound = max(bound, len(sector_clique(inst, G)))
    return bound

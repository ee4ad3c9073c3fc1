"""Independent-set heuristics and the domination family built on them.

A maximal independent set dominates any graph.  On disk intersection
graphs every vertex neighborhood has a small independence number, which
pins each heuristic here within a constant factor of its optimum: 3 for
independent set on unit disks (5 with arbitrary radii), 5 for dominating
and independent dominating sets, 10 for total and connected domination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BadParameter, IsolatedVertex, NoEligibleVertex, NotConnected
from .graphs import Graph, VertexSet, bfs_levels, greedy_maximal_independent_set


@dataclass(frozen=True)
class CdsTrace:
    """Level-by-level record of the breadth-first backbone construction.

    Per BFS level: the level set, the vertices already dominated by the
    previous level's choices on arrival, the independent vertices chosen,
    and the tree parents pulled in to wire those choices to the level above.
    """

    depth: int
    levels: tuple[tuple[int, ...], ...]
    dominated: tuple[tuple[int, ...], ...]
    independent: tuple[tuple[int, ...], ...]
    connectors: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "levels": [list(level) for level in self.levels],
            "dominated": [list(level) for level in self.dominated],
            "independent": [list(level) for level in self.independent],
            "connectors": [list(level) for level in self.connectors],
        }


def _has_independent_subset(G: Graph, candidates: Iterable[int], size: int) -> bool:
    """Is there a set of ``size`` pairwise non-adjacent vertices among ``candidates``?"""
    if size <= 0:
        return True
    pool = list(candidates)
    if len(pool) < size:
        return False
    pool_set = set(pool)
    internal = {v: pool_set.intersection(G.adj[v]) for v in pool}
    pool.sort(key=lambda v: (len(internal[v]), v))  # sparse candidates first: succeeds sooner

    def extend(start: int, chosen: int, blocked: frozenset[int]) -> bool:
        for idx in range(start, len(pool)):
            if chosen + (len(pool) - idx) < size:
                return False
            v = pool[idx]
            if v in blocked:
                continue
            if chosen + 1 == size:
                return True
            if extend(idx + 1, chosen + 1, blocked | internal[v]):
                return True
        return False

    return extend(0, 0, frozenset())


def independent_set_graph(G: Graph, bound: int = 3) -> VertexSet:
    """Independent set of size at least (maximum independent set) / bound.

    Repeatedly take the lowest-id surviving vertex whose surviving
    neighborhood contains no bound+1 pairwise non-adjacent vertices, then
    delete its closed neighborhood.  Unit-disk graphs always offer such a
    vertex for bound 3 and arbitrary-radius disk graphs for bound 5; a graph
    with no eligible vertex is outside the claimed class and raises
    NoEligibleVertex with the surviving vertices as witness.
    """
    if bound < 1:
        raise BadParameter("bound must be at least 1")
    alive: set[int] = set(range(G.n))
    chosen: list[int] = []
    while alive:
        pick = None
        for v in sorted(alive):
            neighborhood = [u for u in G.adj[v] if u in alive]
            if len(neighborhood) <= bound or not _has_independent_subset(
                G, neighborhood, bound + 1
            ):
                pick = v
                break
        if pick is None:
            raise NoEligibleVertex(
                f"no vertex has neighborhood independence number <= {bound}",
                VertexSet.of(alive, G.n),
            )
        chosen.append(pick)
        alive.discard(pick)
        alive.difference_update(G.adj[pick])
    return VertexSet.of(chosen, G.n)


def dominating_set(G: Graph) -> VertexSet:
    """Greedy maximal independent set in id order.

    Simultaneously independent, dominating, and maximal; at most 5 times the
    minimum (independent) dominating set on unit-disk graphs.
    """
    return greedy_maximal_independent_set(G, range(G.n))


def total_dominating_set(G: Graph) -> VertexSet:
    """Maximal independent set plus the lowest-id neighbor of each member.

    Every vertex, members included, ends with a neighbor inside the set.
    Works per connected component; any isolated vertex makes total
    domination impossible and raises IsolatedVertex.
    """
    for v in range(G.n):
        if not G.adj[v]:
            raise IsolatedVertex(v)
    base = greedy_maximal_independent_set(G, range(G.n))
    partners = {G.adj[v][0] for v in base}
    return VertexSet.of(set(base.members) | partners, G.n)


def connected_dominating_set(
    G: Graph, root: Optional[int] = None
) -> tuple[VertexSet, CdsTrace]:
    """Breadth-first backbone: a maximal independent set threaded by tree parents.

    Level by level from ``root`` (default 0), the vertices not already
    dominated from the previous level's choices receive a greedy independent
    set of their own, and each chosen vertex pulls in its BFS-tree parent.
    The result dominates the graph, induces a connected subgraph, and is at
    most twice the size of the maximal independent set it contains; on
    unit-disk graphs that is within 10 times the optimal connected (or
    total) dominating set.
    """
    if G.n == 0:
        raise NotConnected("empty graph has no connected dominating set")
    if root is None:
        root = 0
    levels, parent = bfs_levels(G, root)

    independent_levels: list[tuple[int, ...]] = [(root,)]
    dominated_levels: list[tuple[int, ...]] = [()]
    connector_levels: list[tuple[int, ...]] = [()]
    previous_chosen: set[int] = {root}
    for level in levels[1:]:
        dominated = tuple(v for v in level if not previous_chosen.isdisjoint(G.adj[v]))
        picked: list[int] = []
        blocked = set(dominated)
        for v in level:
            if v in blocked:
                continue
            picked.append(v)
            blocked.update(G.adj[v])
        independent_levels.append(tuple(picked))
        dominated_levels.append(dominated)
        connector_levels.append(tuple(sorted({parent[v] for v in picked})))
        previous_chosen = set(picked)

    members: set[int] = set()
    for chunk in independent_levels:
        members.update(chunk)
    for chunk in connector_levels:
        members.update(chunk)
    trace = CdsTrace(
        depth=len(levels) - 1,
        levels=levels,
        dominated=tuple(dominated_levels),
        independent=tuple(independent_levels),
        connectors=tuple(connector_levels),
    )
    return VertexSet.of(members, G.n), trace

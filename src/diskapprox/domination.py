"""Independent-set heuristics and the domination family built on them.

A maximal independent set dominates any graph.  On disk intersection
graphs every vertex neighborhood has a small independence number, which
pins each heuristic here within a constant factor of its optimum: 3 for
independent set on unit disks (5 with arbitrary radii), 5 for dominating
and independent dominating sets, 10 for total and connected domination.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

from .errors import BadParameter, InducedStar, IsolatedVertex, NoEligibleVertex, NotConnected
from .graphs import Graph, VertexSet, _cover_exceeds, bfs_levels, greedy_maximal_independent_set


def _has_independent_subset(adj, pool: list[int], size: int) -> bool:
    """Does ``pool``, ascending ids, hold ``size`` (at least 1) pairwise
    non-adjacent vertices?

    The search runs on bitmasks: bit k is ``pool[k]``, and its mask holds
    its neighbors inside the pool.  Two greedy passes decide most search
    nodes.  The exact MIS search's clique cover
    (:func:`graphs._cover_exceeds`) with at most ``size - 1`` cliques
    answers no, since an independent set meets each clique at most once.  A
    greedy independent set, taking each vertex not adjacent to an earlier
    pick, that reaches ``size`` answers yes.  Otherwise the node branches on
    its lowest vertex: taken, a recursive call seeks ``size - 1`` among the
    survivors less that vertex's closed neighborhood; left out, the loop
    goes on without that vertex.  Recursion is at most ``size`` deep, and
    the search visits O(|pool|^size) nodes in the worst case, each making
    one cover and one greedy pass.
    """
    bits = {v: 1 << k for k, v in enumerate(pool)}
    masks = []
    for v in pool:
        mask = 0
        for u in adj[v]:
            if u in bits:
                mask |= bits[u]
        masks.append(mask)

    def search(alive: int, size: int) -> bool:
        while _cover_exceeds(masks, alive, size - 1):
            rest = alive
            found = 0
            while rest:
                low = rest & -rest
                found += 1
                if found == size:
                    return True
                rest &= ~(masks[low.bit_length() - 1] | low)
            low = alive & -alive
            alive ^= low
            if search(alive & ~masks[low.bit_length() - 1], size - 1):
                return True
        return False

    return search((1 << len(pool)) - 1, size)


def independent_set_graph(G: Graph, bound: int = 3) -> VertexSet:
    """Independent set of size at least (maximum independent set) / bound.

    Repeatedly take the lowest-id surviving vertex whose surviving
    neighborhood contains no bound+1 pairwise non-adjacent vertices, then
    delete its closed neighborhood.  Unit-disk graphs always offer such a
    vertex for bound 3 and arbitrary-radius disk graphs for bound 5; a graph
    with no eligible vertex is outside the claimed class and raises
    NoEligibleVertex with the surviving vertices as witness.

    Candidates come off a min-heap of ids.  Deletions only shrink surviving
    neighborhoods, so a vertex can gain eligibility but never lose it, and
    one that fails the test stays ineligible until a neighbor is deleted.
    So a failed vertex waits outside the heap and is pushed back only when
    one of its neighbors dies; every survivor below the heap's top is
    waiting and ineligible, and each pick is the lowest-id eligible
    survivor.  When the heap runs dry every survivor waits: none is
    eligible.  Each vertex is tested once plus once per re-push, so the
    cost is O((n + m) log n) plus the tests, not a re-scan per pick.
    """
    if bound < 1:
        raise BadParameter("bound must be at least 1")
    adj = G.adj
    alive: set[int] = set(range(G.n))
    heap = list(range(G.n))  # ascending, so already a heap
    waiting: set[int] = set()
    chosen: list[int] = []
    while heap:
        v = heappop(heap)
        if v not in alive:
            continue
        neighborhood = alive.intersection(adj[v])
        if len(neighborhood) > bound and _has_independent_subset(
            adj, sorted(neighborhood), bound + 1
        ):
            waiting.add(v)
            continue
        chosen.append(v)
        alive.discard(v)
        alive -= neighborhood
        if waiting:
            waiting -= neighborhood
            for u in neighborhood:
                woken = waiting.intersection(adj[u])
                if woken:
                    waiting -= woken
                    for w in woken:
                        heappush(heap, w)
    if alive:
        raise NoEligibleVertex(
            f"no vertex has neighborhood independence number <= {bound}",
            VertexSet.of(alive, G.n),
        )
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
    base = dominating_set(G)
    partners = {G.adj[v][0] for v in base}
    return VertexSet.of(set(base.members) | partners, G.n)


def refuse_induced_star(G: Graph, independent: Iterable[int]) -> None:
    """Raise InducedStar when some vertex has six neighbors in ``independent``.

    With I the independent set a domination heuristic built and
    c = max over v of |N[v] ∩ I|, every vertex dominates at most c members
    of I, so the optimum is at least |I| / c.  A member's closed
    neighborhood meets I in itself alone, so c >= 6 puts some v outside I
    with six pairwise non-adjacent neighbors: an induced K_{1,6}, which no
    unit disk graph contains.  The witness is v (lowest id among those
    reaching c) and its six lowest-id neighbors in I.  One O(n + m) pass.
    """
    members = set(independent)
    count = [0] * G.n
    for u in members:
        count[u] += 1
        for w in G.adj[u]:
            count[w] += 1
    c = max(count, default=0)
    if c >= 6:
        v = count.index(c)
        six = [u for u in G.adj[v] if u in members][:6]
        raise InducedStar(
            f"vertex {v} and its pairwise non-adjacent neighbors {', '.join(map(str, six))} "
            "form an induced K_{1,6}, which no unit disk graph contains",
            VertexSet.of([v, *six], G.n),
        )


def connected_dominating_set(G: Graph, root: int = 0) -> tuple[VertexSet, dict]:
    """Breadth-first backbone: a maximal independent set threaded by tree parents.

    Level by level from ``root``, the vertices not already dominated from
    the previous level's choices receive a greedy independent set of their
    own, and each chosen vertex pulls in its BFS-tree parent.  The result
    dominates the graph, induces a connected subgraph, and is at most twice
    the size of the maximal independent set it contains; on unit-disk graphs
    that is within 10 times the optimal connected (or total) dominating set.

    Returns the set and a level-by-level trace: ``depth``, the last BFS
    level's index, and per level, as lists of lists, the level set
    (``levels``), the vertices already dominated by the previous level's
    choices on arrival (``dominated``), the independent vertices chosen
    (``independent``), and the tree parents pulled in to wire those choices
    to the level above (``connectors``).
    """
    if G.n == 0:
        raise NotConnected("empty graph has no connected dominating set")
    levels, parent = bfs_levels(G, root)

    independent_levels: list[list[int]] = [[root]]
    dominated_levels: list[list[int]] = [[]]
    connector_levels: list[list[int]] = [[]]
    previous_chosen: set[int] = {root}
    for level in levels[1:]:
        dominated = [v for v in level if not previous_chosen.isdisjoint(G.adj[v])]
        picked: list[int] = []
        blocked = set(dominated)
        for v in level:
            if v in blocked:
                continue
            picked.append(v)
            blocked.update(G.adj[v])
        independent_levels.append(picked)
        dominated_levels.append(dominated)
        connector_levels.append(sorted({parent[v] for v in picked}))
        previous_chosen = set(picked)

    members: set[int] = set()
    for chunk in independent_levels:
        members.update(chunk)
    for chunk in connector_levels:
        members.update(chunk)
    trace = {
        "depth": len(levels) - 1,
        "levels": [list(level) for level in levels],
        "dominated": dominated_levels,
        "independent": independent_levels,
        "connectors": connector_levels,
    }
    return VertexSet.of(members, G.n), trace

"""Immutable undirected graphs and the ordering/search primitives shared by the heuristics.

Vertices are dense integers 0..n-1 and every tie anywhere in the package
breaks toward the lowest id, so repeated runs produce identical output.
Graphs never mutate after construction; algorithms express deletion
through induced subgraphs or local alive masks.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BadParameter, IdOutOfRange, MinDegreeExceeded, NotConnected, SelfLoop


@dataclass(frozen=True)
class VertexSet:
    """Sorted vertex ids belonging to a host graph on ``host_n`` vertices."""

    members: tuple[int, ...]
    host_n: int

    @staticmethod
    def of(vertices: Iterable[int], host_n: int) -> "VertexSet":
        members = tuple(sorted(set(vertices)))
        if members and (members[0] < 0 or members[-1] >= host_n):
            raise IdOutOfRange(f"vertex ids must lie in [0, {host_n})")
        return VertexSet(members, host_n)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class Graph:
    """Simple undirected graph held as its sorted adjacency: symmetric, no loops, no repeats.

    ``adj[v]`` is the neighbor tuple of ``v`` and ``len(adj[v])`` its degree.
    ``edges`` and ``m`` are derived from ``adj`` on each call, so loops read
    ``adj`` instead.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n, adj):
        self.n = n
        self.adj = adj              # per-vertex sorted neighbor tuples

    @staticmethod
    def of_rows(rows: list[list[int]]) -> "Graph":
        """Graph of symmetric, repeat-free neighbor lists; each is sorted and frozen in place."""
        for v, row in enumerate(rows):
            row.sort()
            rows[v] = tuple(row)
        return Graph(len(rows), tuple(rows))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted (u, v) pairs with u < v."""
        return tuple((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if v > u)

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Canonical graph on ``n`` vertices; (u, v) and (v, u) collapse, duplicates too."""
    if n < 0:
        raise BadParameter("vertex count must be nonnegative")
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in edge_list:
        if not (0 <= u < n) or not (0 <= v < n):
            raise IdOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        neighbors[u].add(v)
        neighbors[v].add(u)
    return Graph(n, tuple(tuple(sorted(nbrs)) for nbrs in neighbors))


def induced_subgraph(G: Graph, subset: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on ``subset`` with relabelled ids; the map sends new id -> original id."""
    if subset.host_n != G.n:
        raise IdOutOfRange("vertex set does not belong to this graph")
    id_map = subset.members
    back = {old: new for new, old in enumerate(id_map)}
    # id_map is sorted, so relabelling keeps each neighbor tuple sorted
    adj = tuple(tuple(back[v] for v in G.adj[u] if v in back) for u in id_map)
    return Graph(len(id_map), adj), id_map


def degeneracy_ordering(
    G: Graph, degree_cap: Optional[int] = None
) -> tuple[tuple[int, ...], int]:
    """Repeatedly remove a minimum-degree vertex (lowest id on ties).

    Returns ``(order, degeneracy)``: the removal order, and the largest
    current degree seen at any removal, i.e. the largest d such that some
    subgraph has minimum degree d.  Within the suffix that starts at
    position i, order[i] has degree <= degeneracy.

    Degree buckets (Matula & Beck): ``buckets[d]`` is a min-heap of ids that
    holds every present vertex of current degree d, plus stale entries left
    behind when a vertex lost a neighbor or was removed; an entry is live
    when its vertex's degree equals its bucket.  No live entry sits below
    ``low``: it moves down when a decrement drops a vertex beneath it, and up
    past empty buckets and stale heads.  Each step pops bucket ``low`` to its
    lowest live id, so ties go to the lowest id, and a removed vertex gets
    degree -1.

    With ``degree_cap`` set, a minimum degree above it stops the peel with
    MinDegreeExceeded; the witness is the vertices still present.
    """
    degree = [len(nbrs) for nbrs in G.adj]
    buckets: list[list[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    for v, d in enumerate(degree):
        buckets[d].append(v)  # ascending ids already form a heap
    heappop, heappush = heapq.heappop, heapq.heappush
    order: list[int] = []
    low = 0
    top = -1  # highest bucket removed from so far
    for _ in range(G.n):
        while True:
            bucket = buckets[low]
            if not bucket:
                low += 1
            else:
                v = heappop(bucket)
                if degree[v] == low:
                    break
        if low > top:
            if degree_cap is not None and low > degree_cap:
                alive = [u for u in range(G.n) if degree[u] >= 0]
                raise MinDegreeExceeded(
                    f"residual subgraph has minimum degree {low} > {degree_cap}",
                    VertexSet.of(alive, G.n),
                )
            top = low
        degree[v] = -1
        order.append(v)
        for u in G.adj[v]:
            d = degree[u]
            if d > 0:  # present: it still counts v
                degree[u] = d - 1
                heappush(buckets[d - 1], u)
                if d <= low:
                    low = d - 1
    return tuple(order), max(top, 0)


def greedy_maximal_independent_set(G: Graph, order: Iterable[int]) -> VertexSet:
    """Take each vertex of ``order`` unless it or a neighbor was taken before it."""
    order = tuple(order)
    if sorted(order) != list(range(G.n)):
        raise BadParameter("order must be a permutation of the vertices")
    blocked = [False] * G.n
    chosen: list[int] = []
    for v in order:
        if blocked[v]:
            continue
        chosen.append(v)
        blocked[v] = True
        for u in G.adj[v]:
            blocked[u] = True
    return VertexSet.of(chosen, G.n)


def _cover_exceeds(masks: list[int], alive: int, limit: int) -> bool:
    """Does the greedy clique cover of the vertices in bitmask ``alive`` need
    more than ``limit`` cliques?  ``masks[v]`` is v's neighbor bitmask.

    Each clique starts at the lowest uncovered vertex and grows by the lowest
    uncovered one adjacent to all its members.  An independent set meets each
    clique at most once, so a cover of at most ``limit`` cliques proves that
    ``alive`` holds no ``limit + 1`` independent vertices; the exact MIS
    search and the independent-set eligibility test both cut on it.  Any
    ``limit < 0`` answers True.  The pass stops once ``limit`` cliques are built.
    """
    rest = alive
    while rest and limit > 0:
        low = rest & -rest
        rest ^= low
        grow = rest & masks[low.bit_length() - 1]
        while grow:
            low = grow & -grow
            rest ^= low
            grow &= masks[low.bit_length() - 1]
        limit -= 1
    return rest != 0 or limit < 0


def bfs_levels(G: Graph, root: int) -> tuple[tuple[tuple[int, ...], ...], tuple[Optional[int], ...]]:
    """Breadth-first level sets and tree parents from ``root``.

    Levels come out sorted and each vertex's parent is its lowest-id
    neighbor on the previous level.  Raises NotConnected if some vertex
    is unreachable.
    """
    if not 0 <= root < G.n:
        raise IdOutOfRange(f"root {root} outside [0, {G.n})")
    parent: list[Optional[int]] = [None] * G.n
    seen = [False] * G.n
    seen[root] = True
    levels: list[tuple[int, ...]] = []
    frontier = [root]
    reached = 1
    while frontier:
        levels.append(tuple(frontier))
        discovered: list[int] = []
        for v in frontier:
            for u in G.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    discovered.append(u)
                    reached += 1
        frontier = sorted(discovered)
    if reached != G.n:
        raise NotConnected(f"only {reached} of {G.n} vertices reachable from {root}")
    return tuple(levels), tuple(parent)


def _reach(adj, start: int, seen: list[bool]) -> list[int]:
    """Mark and return the unseen vertices reachable from unseen ``start``.

    ``reached`` is its own work list: the loop also visits what it appends.
    """
    seen[start] = True
    reached = [start]
    for v in reached:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                reached.append(u)
    return reached


def is_connected(G: Graph) -> bool:
    """True when ``G`` has at most one component (so the empty graph is connected)."""
    return G.n == 0 or len(_reach(G.adj, 0, [False] * G.n)) == G.n


def components(G: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted tuples, ordered by smallest member."""
    seen = [False] * G.n
    return tuple(
        tuple(sorted(_reach(G.adj, start, seen))) for start in range(G.n) if not seen[start]
    )

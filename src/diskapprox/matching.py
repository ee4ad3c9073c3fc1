"""The Nemhauser-Trotter style half-integral decomposition of a graph, read
off one Hopcroft-Karp run on its bipartite double cover."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, VertexSet


@dataclass(frozen=True)
class NtDecomposition:
    """Half-integral cover decomposition of a graph's vertex set.

    ``forced`` lies inside some optimum vertex cover; any cover of the
    subgraph induced on ``half`` together with ``forced`` covers the whole
    graph; ``excluded`` is independent with all its neighbors in ``forced``;
    and len(forced) + len(half)/2 never exceeds the optimum cover size.
    """

    forced: VertexSet
    half: VertexSet
    excluded: VertexSet

    @property
    def lower_bound(self) -> float:
        return len(self.forced) + len(self.half) / 2.0


def _hopcroft_karp(adjacency, right_n: int) -> tuple[list[int], list[int]]:
    """Maximum-cardinality matching by layered augmentation (Hopcroft-Karp).

    Row l of ``adjacency`` holds the right neighbors of left vertex l,
    strictly increasing in [0, right_n).  Returns each left vertex's right
    partner (or -1) and the last layering: the breadth-first alternating
    search from the unmatched left vertices that reached no free right
    vertex, -1 on each left vertex it missed.  Both are deterministic.
    """
    left_n = len(adjacency)
    match_left = [-1] * left_n
    match_right = [-1] * right_n
    layer = [0] * left_n

    def build_layers() -> bool:
        queue: deque[int] = deque()
        for l in range(left_n):
            if match_left[l] == -1:
                layer[l] = 0
                queue.append(l)
            else:
                layer[l] = -1
        free_right_reachable = False
        while queue:
            l = queue.popleft()
            for r in adjacency[l]:
                nxt = match_right[r]
                if nxt == -1:
                    free_right_reachable = True
                elif layer[nxt] == -1:
                    layer[nxt] = layer[l] + 1
                    queue.append(nxt)
        return free_right_reachable

    def augment(root: int) -> None:
        """Depth-first search for an augmenting path along the layers.

        An explicit stack replaces recursion, since paths can be as long as
        the graph; the scan order is that of the recursive formulation.
        ``path`` holds the left vertices from ``root`` down and ``cursor``
        the index of the right neighbor each is trying.
        """
        path = [root]
        cursor = [0]
        while path:
            l = path[-1]
            nbrs = adjacency[l]
            i = cursor[-1]
            while i < len(nbrs):
                nxt = match_right[nbrs[i]]
                if nxt == -1:
                    cursor[-1] = i
                    for l, i in zip(path, cursor):
                        match_left[l] = adjacency[l][i]
                        match_right[adjacency[l][i]] = l
                    return
                if layer[nxt] == layer[l] + 1:
                    break
                i += 1
            if i < len(nbrs):
                cursor[-1] = i
                path.append(nxt)
                cursor.append(0)
            else:
                layer[l] = -1  # dead end: no augmenting path through l
                path.pop()
                cursor.pop()
                if cursor:
                    cursor[-1] += 1

    while build_layers():
        for l in range(left_n):
            if match_left[l] == -1:
                augment(l)
    return match_left, layer


def nt_decompose(G: Graph) -> NtDecomposition:
    """Decompose via a minimum (Konig) cover of the bipartite double graph.

    Each edge (u, v) becomes (u_left, v_right) and (v_left, u_right), so the
    double's left adjacency is ``G.adj`` itself.  Hopcroft-Karp's last
    layering is the alternating search from the unmatched left copies, so
    the Konig cover is the left copies it did not reach plus every right
    copy next to one it did.  A vertex scores half per copy inside that
    cover, and the vertices with score 1, 1/2 and 0 form ``forced``,
    ``half`` and ``excluded``.  Every maximum matching gives the same cover,
    so the classes do not depend on which one the scan order finds.
    """
    _, layer = _hopcroft_karp(G.adj, G.n)
    right_in_cover = [False] * G.n
    for l, row in enumerate(G.adj):
        if layer[l] != -1:
            for r in row:
                right_in_cover[r] = True
    classes: tuple[list[int], ...] = ([], [], [])  # by copies in the cover
    for v in range(G.n):
        classes[(layer[v] == -1) + right_in_cover[v]].append(v)
    excluded, half, forced = (VertexSet.of(part, G.n) for part in classes)
    return NtDecomposition(forced, half, excluded)

"""Validity predicates for solutions.

Deliberately naive re-implementations, independent of the heuristics and
oracles they audit; used by the test suite and the verify command.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph


def is_vertex_cover(G: Graph, vertices: Iterable[int]) -> bool:
    chosen = set(vertices)
    return all(v in chosen or chosen.issuperset(G.adj[v]) for v in range(G.n))


def is_independent_set(G: Graph, vertices: Iterable[int]) -> bool:
    chosen = set(vertices)
    return all(chosen.isdisjoint(G.adj[v]) for v in chosen if 0 <= v < G.n)


def is_clique(G: Graph, vertices: Iterable[int]) -> bool:
    chosen = sorted(set(vertices))
    return all(
        G.has_edge(chosen[i], chosen[j])
        for i in range(len(chosen))
        for j in range(i + 1, len(chosen))
    )


def is_dominating_set(G: Graph, vertices: Iterable[int]) -> bool:
    chosen = set(vertices)
    return all(v in chosen or not chosen.isdisjoint(G.adj[v]) for v in range(G.n))


def is_independent_dominating_set(G: Graph, vertices: Iterable[int]) -> bool:
    chosen = set(vertices)
    return is_independent_set(G, chosen) and is_dominating_set(G, chosen)


def is_total_dominating_set(G: Graph, vertices: Iterable[int]) -> bool:
    chosen = set(vertices)
    return not any(map(chosen.isdisjoint, G.adj))


def is_connected_dominating_set(G: Graph, vertices: Iterable[int]) -> bool:
    chosen = set(vertices)
    if not is_dominating_set(G, chosen):
        return False
    if len(chosen) <= 1:
        return True
    start = min(chosen)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in G.adj[v]:
            if u in chosen and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == chosen


def is_proper_coloring(G: Graph, colors: Iterable[int]) -> bool:
    colors = list(colors)
    if len(colors) != G.n or any(c < 1 for c in colors):
        return False
    return not any(colors[u] == colors[v] for v in range(G.n) for u in G.adj[v])

"""Cross-checks against networkx, an implementation independent of this package.

networkx is a test-only dependency: without it this module is skipped.
"""

import pytest

from diskapprox.bench import tuned_box
from diskapprox.domination import (
    connected_dominating_set,
    dominating_set,
    independent_set_graph,
)
from diskapprox.geometry import instance_to_graph, random_connected_instance, random_instance
from diskapprox.graphs import components, is_connected
from diskapprox.problems import PROBLEMS
from diskapprox.matching import max_matching, nt_decompose
from diskapprox.rng import derive_seed
from refimpl import all_pairs, bipartite_edges, build_bipartite

nx = pytest.importorskip("networkx")


def instances():
    """Seeded connected instances, unit radii and radii in [1, 2] alternately."""
    for index in range(12):
        n = 30 + 5 * index
        unit = index % 2 == 0
        yield random_connected_instance(
            n, 1.2 * n ** 0.5 * (1.0 if unit else 1.5), 1.0, derive_seed(0x4E58, index),
            radius_high=None if unit else 2.0,
        )[0]


def nx_graph(n, pairs):
    H = nx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from(pairs)
    return H


def test_intersection_graph():
    for inst in instances():
        G = instance_to_graph(inst)
        H = nx_graph(inst.n, all_pairs(inst))
        assert G.edges == tuple(sorted((min(u, v), max(u, v)) for u, v in H.edges))
        assert G.m == H.number_of_edges()
        assert [len(nbrs) for nbrs in G.adj] == [H.degree(v) for v in range(inst.n)]


def test_matching_on_the_bipartite_double():
    for inst in instances():
        G = instance_to_graph(inst)
        double = build_bipartite(G.n, G.n, list(G.edges) + [(v, u) for u, v in G.edges])
        D = nx.Graph()
        D.add_nodes_from((("left", v) for v in range(G.n)), bipartite=0)
        D.add_nodes_from((("right", v) for v in range(G.n)), bipartite=1)
        D.add_edges_from((("left", l), ("right", r)) for l, r in bipartite_edges(double))
        size = len(nx.max_weight_matching(D, maxcardinality=True))
        assert len(max_matching(double)) == size
        # the vertex-cover LP optimum is half the double's maximum matching
        assert nt_decompose(G).lower_bound == size / 2


def test_domination_and_independence():
    for inst in instances():
        G = instance_to_graph(inst)
        H = nx_graph(inst.n, all_pairs(inst))
        independent = [dominating_set(G), independent_set_graph(G, 3 if inst.unit else 5)]
        if inst.unit:
            independent.append(PROBLEMS["mis"].heuristic(G, inst, "unit", None, {}))
        for chosen in independent:
            assert H.subgraph(chosen.members).number_of_edges() == 0
        assert nx.is_dominating_set(H, set(dominating_set(G)))
        cds, _ = connected_dominating_set(G)
        assert nx.is_dominating_set(H, set(cds))
        assert nx.is_connected(H.subgraph(cds.members))


def sparse_instances():
    """Seeded instances at mean degree 1 to 4, unit radii and radii in [0.5, 2] alternately."""
    for index in range(24):
        n = 4 + 3 * index
        low, high = (1.0, None) if index % 2 == 0 else (0.5, 2.0)
        box = tuned_box(n, low, high, 1 + index % 4)
        yield random_instance(n, box, low, derive_seed(0x434F, index), high)


def test_connectivity():
    """Most sparse instances are disconnected; every one of ``instances()`` is connected."""
    verdicts = []
    for inst in [*sparse_instances(), *instances()]:
        G = instance_to_graph(inst)
        H = nx_graph(inst.n, all_pairs(inst))
        verdicts.append(nx.is_connected(H))
        assert is_connected(G) == verdicts[-1]
        assert components(G) == tuple(sorted(tuple(sorted(c)) for c in nx.connected_components(H)))
    assert verdicts.count(False) >= 12 and verdicts.count(True) >= 12

import math
from collections import Counter

import pytest

from diskapprox import checks, covering
from diskapprox.errors import BadParameter, IdOutOfRange, NotMaximumMatching
from diskapprox.exact import exact_vc
from diskapprox.geometry import instance_to_graph, random_instance
from diskapprox.graphs import build_graph, induced_subgraph
from diskapprox.matching import BipartiteGraph, konig_cover, max_matching, nt_decompose
from diskapprox.rng import Rng
from refimpl import (
    all_labeled_graphs,
    bipartite_edges,
    build_bipartite,
    find_triangle,
    lp_half_integral_vc,
    minimum_vertex_covers,
    random_graph,
)


def k22():
    return build_bipartite(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


class TestBuildBipartite:
    def test_adjacency_is_sorted_and_deduplicated(self):
        rng = Rng(43)
        for _ in range(40):
            left = 1 + rng.randrange(6)
            right = 1 + rng.randrange(6)
            pairs = [(rng.randrange(left), rng.randrange(right)) for _ in range(rng.randrange(30))]
            B = build_bipartite(left, right, pairs)
            assert B.adj == tuple(
                tuple(sorted({r for l, r in pairs if l == row})) for row in range(left)
            )
            assert bipartite_edges(B) == tuple(sorted(set(pairs)))


class TestMaxMatching:
    def test_k22(self):
        assert len(max_matching(k22())) == 2

    def test_three_vertex_path(self):
        B = build_bipartite(2, 1, [(0, 0), (1, 0)])
        assert len(max_matching(B)) == 1

    def test_empty(self):
        assert max_matching(build_bipartite(3, 3, [])) == ()

    def test_needs_augmenting_paths(self):
        # greedy in id order stalls at 2 here; maximum is 3
        B = build_bipartite(3, 3, [(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (1, 2)])
        assert len(max_matching(B)) == 3

    def test_matched_pairs_are_edges(self):
        rng = Rng(41)
        for _ in range(50):
            left = 1 + rng.randrange(6)
            right = 1 + rng.randrange(6)
            edges = [
                (l, r) for l in range(left) for r in range(right)
                if rng.uniform() < 0.4
            ]
            B = build_bipartite(left, right, edges)
            matching = max_matching(B)
            assert all(pair in set(bipartite_edges(B)) for pair in matching)
            assert len({l for l, _ in matching}) == len(matching)
            assert len({r for _, r in matching}) == len(matching)

    def test_long_augmenting_paths(self):
        # the first phase matches left i to right i; the last left vertex
        # then needs one augmenting path through all the others, deeper
        # than the interpreter's recursion limit
        n = 3000
        edges = [(i, i) for i in range(n - 1)] + [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
        matching = max_matching(build_bipartite(n, n, edges))
        assert matching == tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)

    def test_edge_validation(self):
        with pytest.raises(IdOutOfRange):
            build_bipartite(2, 2, [(0, 2)])

    def test_size_matches_line_graph_oracle(self):
        # a matching is an independent set in the line graph, so the exact
        # MIS solver provides an independent route to the optimum size
        from diskapprox.exact import exact_mis

        rng = Rng(42)
        for _ in range(120):
            left = 1 + rng.randrange(6)
            right = 1 + rng.randrange(6)
            edges = [
                (l, r) for l in range(left) for r in range(right)
                if rng.uniform() < 0.45
            ]
            B = build_bipartite(left, right, edges)
            pairs = bipartite_edges(B)
            conflicts = [
                (a, b)
                for a in range(len(pairs))
                for b in range(a + 1, len(pairs))
                if pairs[a][0] == pairs[b][0] or pairs[a][1] == pairs[b][1]
            ]
            line_graph = build_graph(len(pairs), conflicts)
            assert len(max_matching(B)) == exact_mis(line_graph)[0]


class TestKonigCover:
    def test_perfect_matching_on_k22(self):
        B = k22()
        left, right = konig_cover(B, max_matching(B))
        assert len(left) + len(right) == 2

    def test_left_star(self):
        B = build_bipartite(1, 3, [(0, 0), (0, 1), (0, 2)])
        left, right = konig_cover(B, max_matching(B))
        assert left == (0,) and right == ()

    def test_empty(self):
        assert konig_cover(build_bipartite(2, 2, []), ()) == ((), ())

    def test_submaximal_matching_rejected(self):
        with pytest.raises(NotMaximumMatching):
            konig_cover(k22(), [(0, 0)])

    def test_non_matching_rejected(self):
        with pytest.raises(BadParameter):
            konig_cover(k22(), [(0, 0), (0, 1)])
        with pytest.raises(BadParameter):
            konig_cover(build_bipartite(2, 2, [(0, 0)]), [(0, 1)])

    @pytest.mark.parametrize(
        "pair", [(-1, 0), (2, 0), (0, 2), (0, -1)], ids=["left-1", "left-n", "right-n", "right-1"]
    )
    @pytest.mark.parametrize(
        "B", [k22(), build_bipartite(2, 2, [(1, 0)])], ids=["k22", "last-row-edge"]
    )
    def test_out_of_range_pair_rejected(self, B, pair):
        # both sides have 2 vertices, so each pair has an id just outside one side
        with pytest.raises(BadParameter):
            konig_cover(B, [pair])

    def test_cover_touches_every_edge(self):
        rng = Rng(8)
        for _ in range(60):
            left = 1 + rng.randrange(7)
            right = 1 + rng.randrange(7)
            edges = [
                (l, r) for l in range(left) for r in range(right)
                if rng.uniform() < 0.35
            ]
            B = build_bipartite(left, right, edges)
            matching = max_matching(B)
            cover_l, cover_r = konig_cover(B, matching)
            assert len(cover_l) + len(cover_r) == len(matching)
            left_set, right_set = set(cover_l), set(cover_r)
            assert all(l in left_set or r in right_set for l, r in bipartite_edges(B))


def reference_decomposition(G):
    """Classes and matching of the bipartite double built pair by pair with build_bipartite."""
    double = build_bipartite(G.n, G.n, list(G.edges) + [(v, u) for u, v in G.edges])
    matching = max_matching(double)
    cover_left, cover_right = konig_cover(double, matching)
    copies = Counter(cover_left) + Counter(cover_right)
    classes = tuple(tuple(v for v in range(G.n) if copies[v] == k) for k in (2, 1, 0))
    return double, classes, matching


def assert_valid_decomposition(G, decomposition):
    forced = set(decomposition.forced)
    half = set(decomposition.half)
    excluded = set(decomposition.excluded)
    assert not forced & half and not forced & excluded and not half & excluded
    assert forced | half | excluded == set(range(G.n))
    assert checks.is_independent_set(G, excluded)
    for v in excluded:
        assert set(G.adj[v]) <= forced
    # any cover of the half part extends to a cover of the whole graph
    for u, v in G.edges:
        assert u in forced or v in forced or (u in half and v in half)


class TestNtDecomposition:
    def test_star_forces_its_center(self):
        star = build_graph(6, [(0, v) for v in range(1, 6)])
        decomposition = nt_decompose(star)
        assert decomposition.forced.members == (0,)
        assert decomposition.half.members == ()
        assert decomposition.excluded.members == (1, 2, 3, 4, 5)

    def test_odd_cycle_is_all_half(self):
        c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        decomposition = nt_decompose(c5)
        assert decomposition.half.members == (0, 1, 2, 3, 4)
        assert decomposition.lower_bound == 2.5

    def test_edgeless(self):
        decomposition = nt_decompose(build_graph(4, []))
        assert decomposition.excluded.members == (0, 1, 2, 3)
        assert decomposition.lower_bound == 0

    def test_all_labeled_graphs_up_to_4(self):
        for n in range(5):
            for G in all_labeled_graphs(n):
                decomposition = nt_decompose(G)
                assert_valid_decomposition(G, decomposition)
                optimum, _ = exact_vc(G)
                assert decomposition.lower_bound <= optimum
                covers = minimum_vertex_covers(G)
                assert any(set(decomposition.forced) <= cover for cover in covers)

    def test_lower_bound_is_the_lp_optimum(self):
        rng = Rng(55)
        for i in range(40):
            G = random_graph(3 + i % 6, rng.uniform(), rng)
            decomposition = nt_decompose(G)
            assert decomposition.lower_bound == lp_half_integral_vc(G)

    def test_double_cover_accounting(self):
        # twice the lower bound equals the minimum cover of the doubled graph
        rng = Rng(56)
        for i in range(30):
            G = random_graph(3 + i % 6, rng.uniform(), rng)
            doubled_edges = []
            for u, v in G.edges:
                doubled_edges.append((u, G.n + v))
                doubled_edges.append((v, G.n + u))
            doubled = build_graph(2 * G.n, doubled_edges)
            optimum, _ = exact_vc(doubled)
            assert 2 * nt_decompose(G).lower_bound == optimum

    def test_random_graphs_properties(self):
        rng = Rng(57)
        for i in range(60):
            G = random_graph(4 + i % 7, rng.uniform(), rng)
            decomposition = nt_decompose(G)
            assert_valid_decomposition(G, decomposition)
            optimum, _ = exact_vc(G)
            assert decomposition.lower_bound <= optimum
            # an exact cover of the half part plus the forced part covers G
            half_graph, half_ids = induced_subgraph(G, decomposition.half)
            _, half_cover = exact_vc(half_graph)
            combined = set(decomposition.forced) | {half_ids[v] for v in half_cover}
            assert checks.is_vertex_cover(G, combined)

    def test_matches_the_double_built_from_pairs(self, monkeypatch):
        rng = Rng(58)
        graphs = [build_graph(0, []), build_graph(5, [])]
        graphs += [random_graph(4 + i % 17, 0.5 * rng.uniform(), rng) for i in range(40)]
        # the triangle-free cores vertex_cover decomposes on unit disks at mean degree 6
        cores = []
        monkeypatch.setattr(covering, "nt_decompose", lambda G: cores.append(G) or nt_decompose(G))
        for seed in range(6):
            n = 200 + 100 * seed
            inst = random_instance(n, math.sqrt(4 * math.pi * n / 6), 1.0, seed)
            covering.vertex_cover(instance_to_graph(inst))
        assert all(find_triangle(core) is None for core in cores)
        assert sum(core.m for core in cores) > 100
        for G in graphs + cores:
            double, classes, matching = reference_decomposition(G)
            assert double.adj == G.adj
            decomposition = nt_decompose(G)
            members = (decomposition.forced, decomposition.half, decomposition.excluded)
            assert tuple(part.members for part in members) == classes
            assert max_matching(BipartiteGraph(G.n, G.n, G.adj)) == matching

import ast
import inspect
from itertools import combinations

import pytest

import diskapprox
from diskapprox import checks
from diskapprox.covering import color_offline, vertex_cover
from diskapprox.domination import connected_dominating_set
from diskapprox.errors import BadParameter, IdOutOfRange, MinDegreeExceeded, NotConnected, SelfLoop
from diskapprox.graphs import (
    Graph,
    VertexSet,
    _cover_exceeds,
    bfs_levels,
    build_graph,
    components,
    degeneracy_ordering,
    greedy_maximal_independent_set,
    induced_subgraph,
    is_connected,
)
from diskapprox.rng import Rng, derive_seed
from refimpl import (
    all_labeled_graphs,
    brute_degeneracy,
    c5,
    complete,
    cycle,
    disk_graph,
    find_triangle,
    greedy_cover_exceeds,
    grid,
    heap_degeneracy_ordering,
    path,
    random_graph,
    star,
    union_find_components,
)


class TestBuildGraph:
    def test_single_edge(self):
        G = build_graph(2, [(0, 1)])
        assert G.m == 1
        assert G.adj[0] == (1,)

    def test_reversed_duplicate_collapses(self):
        G = build_graph(3, [(0, 1), (1, 0)])
        assert G.m == 1

    def test_c5_degrees(self):
        G = c5()
        assert [len(nbrs) for nbrs in G.adj] == [2, 2, 2, 2, 2]
        assert sum(map(len, G.adj)) == 2 * G.m

    def test_id_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            build_graph(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph(3, [(1, 1)])

    def test_negative_vertex_count(self):
        with pytest.raises(BadParameter, match="^vertex count must be nonnegative$"):
            build_graph(-1, [])

    def test_graphs_compare_by_structure(self):
        assert build_graph(3, [(0, 1)]) == build_graph(3, [(1, 0), (0, 1)])

    def test_derived_views_agree_with_the_adjacency(self):
        rng = Rng(11)
        for _ in range(20):
            G = random_graph(12, 0.3, rng)
            pairs = {(u, v) for u in range(G.n) for v in G.adj[u] if u < v}
            assert G.edges == tuple(sorted(pairs))
            assert G.m == len(pairs)
            for u in range(G.n):
                assert [G.has_edge(u, v) for v in range(G.n)] == [
                    (min(u, v), max(u, v)) in pairs for v in range(G.n)
                ]


class TestOfRows:
    def test_shuffled_rows_give_the_canonical_graph(self):
        rng = Rng(33)
        for n in (0, 1, 2, 7, 30):
            for probability in (0.0, 0.3, 1.0):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.uniform() < probability]
                rows = [[] for _ in range(n)]
                for u, v in edges:
                    rows[u].append(v)
                    rows[v].append(u)
                for row in rows:
                    rng.shuffle(row)
                G = Graph.of_rows(rows)
                assert G == build_graph(n, edges)
                # each row was replaced in place by its sorted tuple
                assert all(type(row) is tuple for row in rows) and tuple(rows) == G.adj


class TestInducedSubgraph:
    def test_k4_pair(self):
        sub, id_map = induced_subgraph(complete(4), VertexSet.of([0, 1], 4))
        assert sub.n == 2 and sub.m == 1
        assert id_map == (0, 1)

    def test_c5_nonadjacent_pair(self):
        sub, _ = induced_subgraph(c5(), VertexSet.of([0, 2], 5))
        assert sub.m == 0

    def test_identity(self):
        G = c5()
        sub, id_map = induced_subgraph(G, VertexSet.of(range(5), 5))
        assert sub == G
        assert id_map == (0, 1, 2, 3, 4)

    def test_wrong_host(self):
        with pytest.raises(IdOutOfRange):
            induced_subgraph(c5(), VertexSet.of([0], 4))

    def test_matches_build_graph_of_the_relabelled_edges(self):
        rng = Rng(12)
        for i in range(30):
            G = random_graph(3 + i % 10, rng.uniform(), rng)
            for members in ([], range(G.n), [v for v in range(G.n) if rng.uniform() < 0.5]):
                subset = VertexSet.of(members, G.n)
                back = {old: new for new, old in enumerate(subset.members)}
                edges = [(back[u], back[v]) for u, v in G.edges if u in back and v in back]
                expected = build_graph(len(subset), edges)
                sub, id_map = induced_subgraph(G, subset)
                assert sub == expected and hash(sub) == hash(expected)
                assert id_map == subset.members


class TestDegeneracy:
    def test_examples(self):
        for G, expected in ((complete(4), 3), (c5(), 2), (build_graph(3, []), 0)):
            _, degeneracy = degeneracy_ordering(G)
            assert degeneracy == expected

    def test_lowest_id_ties(self):
        order, _ = degeneracy_ordering(c5())
        assert order == (0, 1, 2, 3, 4)

    def test_suffix_degree_bound(self):
        rng = Rng(11)
        for _ in range(40):
            G = random_graph(8, rng.uniform(), rng)
            order, degeneracy = degeneracy_ordering(G)
            suffix = set(range(G.n))
            for v in order:
                assert len(suffix.intersection(G.adj[v])) <= degeneracy
                suffix.discard(v)

    def test_matches_brute_force_exhaustively_n4(self):
        for G in all_labeled_graphs(4):
            _, degeneracy = degeneracy_ordering(G)
            assert degeneracy == brute_degeneracy(G)

    def test_matches_brute_force_random_n8(self):
        rng = Rng(7)
        for i in range(150):
            G = random_graph(5 + i % 4, rng.uniform(), rng)
            _, degeneracy = degeneracy_ordering(G)
            assert degeneracy == brute_degeneracy(G)


def peel_outcome(peel, G, degree_cap):
    """The peel's order and degeneracy, or the message and witness it raises."""
    try:
        order, degeneracy = peel(G, degree_cap)
    except MinDegreeExceeded as exc:
        return "raised", str(exc), exc.witness
    return "peeled", order, degeneracy


def assert_peel_matches_heap(G):
    expected = heap_degeneracy_ordering(G)
    assert degeneracy_ordering(G) == expected
    _, degeneracy = expected
    # a cap at or above the degeneracy never stops either peel, so the caps
    # worth checking run from 0 to the first one that lets the peel finish
    for degree_cap in range(degeneracy + 1):
        expected_outcome = peel_outcome(heap_degeneracy_ordering, G, degree_cap)
        assert peel_outcome(degeneracy_ordering, G, degree_cap) == expected_outcome


class TestDegeneracyAgainstHeapPeel:
    """The bucket peel returns what the (degree, id) heap peel returns, and
    under every degree cap raises the same message with the same witness."""

    def test_every_labeled_graph_up_to_six_vertices(self):
        for n in range(7):
            for G in all_labeled_graphs(n):
                assert_peel_matches_heap(G)

    def test_seeded_random_graphs(self):
        rng = Rng(13)
        for i in range(200):
            assert_peel_matches_heap(random_graph(7 + i % 24, rng.uniform(), rng))

    def test_structured_graphs(self):
        n = 12
        isolated = build_graph(n, [(2, 5), (5, 9), (9, 2), (9, 11)])
        empty = build_graph(0, [])
        for G in (cycle(n), path(n), star(n - 1), grid(5, 7), complete(9), empty, build_graph(n, []), isolated):
            assert_peel_matches_heap(G)

    @pytest.mark.parametrize("radius, radius_high", [(1.0, None), (0.5, 2.0)])
    def test_disk_graphs_at_a_thousand_vertices(self, radius, radius_high):
        for index in range(2):
            assert_peel_matches_heap(disk_graph(1000, radius, radius_high, derive_seed(0xD6, index)))

    def test_cap_witness_is_the_vertices_left(self):
        # K4 with a pendant path: the path peels away, then K4 stalls a cap of 2
        G = build_graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)])
        with pytest.raises(MinDegreeExceeded) as info:
            degeneracy_ordering(G, 2)
        assert str(info.value) == "residual subgraph has minimum degree 3 > 2"
        assert info.value.witness.members == (0, 1, 2, 3)
        assert degeneracy_ordering(G, 3) == ((6, 5, 4, 0, 1, 2, 3), 3)


def test_package_exports():
    tree = ast.parse(inspect.getsource(diskapprox))
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names and all(hasattr(diskapprox, name) for name in names)
    # test-only helpers live in refimpl, not in the package
    assert not hasattr(diskapprox, "find_triangle")
    assert not hasattr(diskapprox, "build_bipartite")


class TestFindTriangle:
    def test_k3(self):
        assert find_triangle(complete(3)) == (0, 1, 2)

    def test_c5_has_none(self):
        assert find_triangle(c5()) is None

    def test_k4_minus_edge(self):
        G = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        triangle = find_triangle(G)
        assert triangle is not None
        assert checks.is_clique(G, triangle)

    def test_against_triple_enumeration(self):
        rng = Rng(23)
        for i in range(120):
            G = random_graph(4 + i % 9, rng.uniform() * 0.5, rng)
            exhaustive = any(
                G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(a, c)
                for a, b, c in combinations(range(G.n), 3)
            )
            found = find_triangle(G)
            assert (found is not None) == exhaustive
            if found is not None:
                assert checks.is_clique(G, found)


class TestGreedyMis:
    def test_k4_any_order(self):
        assert len(greedy_maximal_independent_set(complete(4), [2, 0, 3, 1])) == 1

    def test_edgeless(self):
        assert len(greedy_maximal_independent_set(build_graph(5, []), range(5))) == 5

    def test_c5_id_order(self):
        assert greedy_maximal_independent_set(c5(), range(5)).members == (0, 2)

    def test_not_a_permutation(self):
        with pytest.raises(BadParameter):
            greedy_maximal_independent_set(c5(), [0, 0, 1, 2, 3])

    def test_independent_and_maximal(self):
        rng = Rng(3)
        for i in range(100):
            G = random_graph(3 + i % 10, rng.uniform(), rng)
            order = list(range(G.n))
            rng.shuffle(order)
            chosen = greedy_maximal_independent_set(G, order)
            assert checks.is_independent_dominating_set(G, chosen)


class TestCoverExceeds:
    """The greedy clique cover both independent-set searches cut with."""

    def test_matches_the_set_based_cover(self):
        rng = Rng(0xC0)
        for _ in range(300):
            n = rng.randrange(17)
            G = random_graph(n, rng.uniform(), rng)
            masks = [sum(1 << u for u in nbrs) for nbrs in G.adj]
            for alive in (0, (1 << n) - 1, *(rng.randrange(1 << n) for _ in range(3))):
                pool = [v for v in range(n) if (alive >> v) & 1]
                # limit -1 is the MIS search's first node, before any
                # incumbent: it must answer True, even with no survivors
                for limit in range(-1, 7):
                    assert _cover_exceeds(masks, alive, limit) == greedy_cover_exceeds(
                        G.adj, pool, limit
                    ), (G.adj, pool, limit)


class TestBfsLevels:
    def test_path_from_endpoint(self):
        P5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        levels, parent = bfs_levels(P5, 0)
        assert [len(level) for level in levels] == [1, 1, 1, 1, 1]
        assert parent[0] is None and parent[4] == 3

    def test_k4(self):
        levels, _ = bfs_levels(complete(4), 2)
        assert [len(level) for level in levels] == [1, 3]

    def test_star_from_leaf(self):
        levels, parent = bfs_levels(star(5), 1)
        assert [len(level) for level in levels] == [1, 1, 4]
        assert parent[0] == 1

    def test_not_connected(self):
        with pytest.raises(NotConnected):
            bfs_levels(build_graph(4, [(0, 1), (2, 3)]), 0)

    def test_root_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            bfs_levels(c5(), 5)

    def test_non_tree_edges_span_at_most_one_level(self):
        rng = Rng(19)
        done = 0
        while done < 60:
            G = random_graph(9, 0.35, rng)
            if not is_connected(G):
                continue
            done += 1
            levels, _ = bfs_levels(G, 0)
            depth = {v: i for i, level in enumerate(levels) for v in level}
            for u, v in G.edges:
                assert abs(depth[u] - depth[v]) <= 1


class TestConnectivity:
    def test_examples(self):
        assert is_connected(c5())
        two_edges = build_graph(4, [(0, 1), (2, 3)])
        assert not is_connected(two_edges)
        assert components(two_edges) == ((0, 1), (2, 3))
        assert is_connected(build_graph(1, []))
        assert is_connected(build_graph(0, []))

    def test_components_partition(self):
        G = build_graph(6, [(0, 3), (1, 4)])
        parts = components(G)
        assert sorted(v for part in parts for v in part) == list(range(6))

    def test_reach_walk_agrees_with_components(self):
        # both share one walk, so each is checked against union-find instead
        path_then_isolated = build_graph(5, [(0, 1), (1, 2), (2, 3)])
        isolated_then_path = build_graph(5, [(1, 2), (2, 3), (3, 4)])
        fixed = [build_graph(0, []), build_graph(1, []), build_graph(2, []), path_then_isolated, isolated_then_path]
        rng = Rng(313)
        sampled = [random_graph(1 + i % 12, 0.5 * rng.uniform(), rng) for i in range(300)]
        sparse = disk_graph(3000, 1.0, None, derive_seed(0x313, 1), degree=1.0)
        for G in fixed + sampled + [sparse]:
            reference = union_find_components(G)
            assert components(G) == reference, G.adj
            assert is_connected(G) == (len(reference) <= 1), G.adj
        assert [is_connected(G) for G in fixed] == [True, True, False, False, False]
        assert any(is_connected(G) for G in sampled) and not all(is_connected(G) for G in sampled)
        assert len(union_find_components(sparse)) > 1000


class TestLongChain:
    """A path of 2 * 10^4 vertices: every deep search here must be iterative."""

    n = 2 * 10 ** 4

    def chain(self):
        return path(self.n)

    def test_vertex_cover(self):
        G = self.chain()
        cover = vertex_cover(G)
        assert checks.is_vertex_cover(G, cover)

    def test_color_offline(self):
        G = self.chain()
        coloring = color_offline(G)
        assert checks.is_proper_coloring(G, coloring.colors)
        assert coloring.num_colors == 2

    def test_connected_dominating_set(self):
        G = self.chain()
        cds, trace = connected_dominating_set(G)
        assert checks.is_connected_dominating_set(G, cds)
        assert trace["depth"] == self.n - 1


class TestVertexSet:
    def test_dedup_and_sort(self):
        assert VertexSet.of([3, 1, 3], 4).members == (1, 3)

    def test_range_check(self):
        with pytest.raises(IdOutOfRange):
            VertexSet.of([4], 4)

    def test_membership(self):
        vs = VertexSet.of([0, 2], 5)
        assert 2 in vs and 1 not in vs and len(vs) == 2

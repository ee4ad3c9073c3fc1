import dataclasses
import functools

import pytest

from diskapprox import checks
from diskapprox.errors import (
    BadParameter,
    IsolatedVertex,
    NotConnected,
    Timeout,
    TooLarge,
)
from diskapprox.exact import (
    DEFAULT_LIMITS,
    DOMINATION_VARIANTS,
    OracleLimits,
    _domination_lower_bound,
    _mis_search,
    _neighbor_masks,
    _NodeBudget,
    _try_k_coloring,
    check_size,
    exact_chromatic,
    exact_clique,
    exact_domination,
    exact_mis,
    exact_vc,
)
from diskapprox import exact
from diskapprox.covering import Coloring, _first_fit
from diskapprox.domination import connected_dominating_set
from diskapprox.graphs import VertexSet, build_graph, is_connected
from diskapprox.problems import PROBLEMS
from diskapprox.rng import Rng
from refimpl import (
    all_labeled_graphs,
    brute_chromatic,
    brute_clique,
    brute_domination,
    brute_mis,
    brute_vc,
    c5,
    complement,
    complete,
    connected_disk_graphs,
    cycle,
    eccentricity_connected_bound,
    first_dominating_set,
    grid,
    path,
    random_graph,
    recount_k_coloring,
    scan_first_mis_search,
    star,
)


def disjoint_union(*graphs):
    """The graphs side by side, each one's ids shifted past the previous ones."""
    edges, offset = [], 0
    for G in graphs:
        edges += [(u + offset, v + offset) for u, v in G.edges]
        offset += G.n
    return build_graph(offset, edges)


def spider_graph(legs, length):
    """A center, 0, with ``legs`` paths of ``length`` vertices hanging off it."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges += [(v, v + 1) for v in range(first, first + length - 1)]
    return build_graph(1 + legs * length, edges)


class TestExamples:
    def test_mis(self):
        assert exact_mis(c5())[0] == 2
        assert exact_mis(complete(4))[0] == 1
        assert exact_mis(build_graph(6, []))[0] == 6

    def test_vc(self):
        assert exact_vc(c5())[0] == 3
        assert exact_vc(complete(3))[0] == 2
        assert exact_vc(star(5))[0] == 1

    def test_chromatic(self):
        assert exact_chromatic(c5())[0] == 3
        assert exact_chromatic(complete(4))[0] == 4
        assert exact_chromatic(build_graph(4, [(0, 1), (1, 2), (2, 3)]))[0] == 2

    def test_clique(self):
        assert exact_clique(c5())[0] == 2
        assert exact_clique(complete(4))[0] == 4
        assert exact_clique(build_graph(5, []))[0] == 1

    def test_domination(self):
        assert exact_domination(c5(), "plain")[0] == 2
        assert exact_domination(c5(), "connected")[0] == 3
        assert exact_domination(star(5), "plain")[0] == 1
        assert exact_domination(star(5), "connected")[0] == 1
        assert exact_domination(star(5), "total")[0] == 2

    def test_empty_graph(self):
        empty = build_graph(0, [])
        assert exact_mis(empty)[0] == 0
        assert exact_chromatic(empty)[0] == 0
        assert exact_domination(empty, "plain")[0] == 0


class TestGuards:
    def test_too_large(self):
        big = build_graph(25, [])
        with pytest.raises(TooLarge):
            exact_mis(big)
        with pytest.raises(TooLarge):
            exact_vc(big)
        with pytest.raises(TooLarge):
            exact_clique(big)
        with pytest.raises(TooLarge):
            exact_domination(build_graph(19, []), "plain")
        with pytest.raises(TooLarge):
            exact_chromatic(build_graph(17, []))

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_problem_cap_is_the_oracles_own(self, name):
        # the cap a problem names is where its oracle starts to refuse, in
        # the words check_size uses
        problem = PROBLEMS[name]
        cap = getattr(DEFAULT_LIMITS, problem.cap)
        check_size(cap, problem.cap)
        with pytest.raises(TooLarge) as oracle_refusal:
            problem.oracle(build_graph(cap + 1, []))
        with pytest.raises(TooLarge) as check_refusal:
            check_size(cap + 1, problem.cap)
        assert str(oracle_refusal.value) == str(check_refusal.value)

    def test_unknown_variant(self):
        with pytest.raises(BadParameter):
            exact_domination(c5(), "weird")

    def test_connected_variant_needs_connected_graph(self):
        with pytest.raises(NotConnected):
            exact_domination(build_graph(4, [(0, 1), (2, 3)]), "connected")

    @pytest.mark.parametrize("G", [
        disjoint_union(path(3), path(2)),
        disjoint_union(path(2), path(3)),
    ], ids=["zero-in-larger", "zero-in-smaller"])
    def test_connected_refusal_comes_before_the_search(self, monkeypatch, G):
        # the lower bound's bfs_levels walk refuses, in the heuristic's words
        def no_node(budget):
            raise AssertionError("visited a search node")

        monkeypatch.setattr(exact._NodeBudget, "check", no_node)
        with pytest.raises(NotConnected) as oracle_refusal:
            exact_domination(G, "connected")
        with pytest.raises(NotConnected) as heuristic_refusal:
            connected_dominating_set(G)
        assert str(oracle_refusal.value) == str(heuristic_refusal.value)

    def test_connected_variant_on_the_empty_graph(self):
        size, witness = exact_domination(build_graph(0, []), "connected")
        assert (size, witness.members) == (0, ())

    def test_total_variant_rejects_isolated_vertices(self):
        with pytest.raises(IsolatedVertex):
            exact_domination(build_graph(2, []), "total")
        with pytest.raises(IsolatedVertex):
            exact_domination(disjoint_union(path(5), complete(4), path(1)), "total")

    def test_limits_must_be_positive(self):
        OracleLimits(**{field.name: 1 for field in dataclasses.fields(OracleLimits)})
        for field in dataclasses.fields(OracleLimits):
            for bad in (0, -1):
                with pytest.raises(BadParameter):
                    OracleLimits(**{field.name: bad})

    def test_node_cap_is_enforced(self):
        # connected domination on C16 searches sizes 7 (diameter 8, minus 1)
        # to 14 in exactly 23,490 nodes
        C16 = cycle(16)
        nodes = 23_490
        with pytest.raises(Timeout, match=f"cap of {nodes - 1} nodes"):
            exact_domination(C16, "connected", OracleLimits(max_nodes=nodes - 1))
        size, witness = exact_domination(C16, "connected", OracleLimits(max_nodes=nodes))
        assert (size, witness.members) == (14, tuple(range(14)))

    def test_same_call_same_outcome(self):
        searches = [
            (lambda limits: exact_domination(cycle(16), "connected", limits), 23_490),
            (lambda limits: exact_mis(grid(4, 6), limits), 10**4),
            (lambda limits: exact_chromatic(c5(), limits), 10**4),
        ]
        for search, enough in searches:
            seen = []
            for cap in (1, enough // 3, enough - 1, enough):
                outcomes = set()
                for _ in range(3):
                    try:
                        outcomes.add(search(OracleLimits(max_nodes=cap)))
                    except Timeout as error:
                        outcomes.add(str(error))
                assert len(outcomes) == 1, cap
                seen += outcomes
            assert isinstance(seen[0], str) and not isinstance(seen[-1], str)


class TestNaiveReference:
    def test_all_labeled_graphs_up_to_4(self):
        for n in range(5):
            for G in all_labeled_graphs(n):
                assert exact_mis(G)[0] == brute_mis(G)
                assert exact_vc(G)[0] == brute_vc(G)
                assert exact_clique(G)[0] == brute_clique(G)
                assert exact_chromatic(G)[0] == brute_chromatic(G)
                for variant in ("plain", "independent", "total"):
                    expected = brute_domination(G, variant)
                    if expected is None:
                        continue
                    assert exact_domination(G, variant)[0] == expected
                if is_connected(G) and G.n > 0:
                    assert exact_domination(G, "connected")[0] == brute_domination(G, "connected")

    def test_all_labeled_graphs_n5_core_problems(self):
        for G in all_labeled_graphs(5):
            assert exact_mis(G)[0] == brute_mis(G)
            assert exact_vc(G)[0] == brute_vc(G)
            assert exact_clique(G)[0] == brute_clique(G)

    def test_sampled_n5_chromatic_and_domination(self):
        for index, G in enumerate(all_labeled_graphs(5)):
            if index % 7:
                continue
            assert exact_chromatic(G)[0] == brute_chromatic(G)
            expected = brute_domination(G, "plain")
            assert exact_domination(G, "plain")[0] == expected


class TestWitnessesAndConsistency:
    def test_witnesses_validate(self):
        rng = Rng(606)
        for i in range(60):
            G = random_graph(4 + i % 8, rng.uniform(), rng)
            size, mis = exact_mis(G)
            assert len(mis) == size and checks.is_independent_set(G, mis)
            size, cover = exact_vc(G)
            assert len(cover) == size and checks.is_vertex_cover(G, cover)
            size, clique = exact_clique(G)
            assert len(clique) == size and checks.is_clique(G, clique)
            chromatic, coloring = exact_chromatic(G)
            assert checks.is_proper_coloring(G, coloring.colors)
            assert coloring.num_colors == chromatic
            size, dom = exact_domination(G, "plain")
            assert len(dom) == size and checks.is_dominating_set(G, dom)

    def test_cross_oracle_identities(self):
        rng = Rng(607)
        for i in range(50):
            G = random_graph(4 + i % 7, rng.uniform(), rng)
            assert exact_vc(G)[0] + exact_mis(G)[0] == G.n
            assert exact_clique(G)[0] == exact_mis(complement(G))[0]
            assert exact_chromatic(G)[0] >= exact_clique(G)[0]

    def test_domination_chain(self):
        rng = Rng(608)
        checked = 0
        while checked < 40:
            G = random_graph(8, 0.3 + 0.4 * rng.uniform(), rng)
            if not is_connected(G) or G.max_degree() == 0:
                continue
            checked += 1
            gamma = exact_domination(G, "plain")[0]
            independent = exact_domination(G, "independent")[0]
            total = exact_domination(G, "total")[0]
            connected = exact_domination(G, "connected")[0]
            assert gamma <= independent
            assert gamma <= total
            assert gamma <= connected
            if connected >= 2:
                # a connected dominating set of two or more vertices is total
                assert total <= connected


def _cap(variant):
    if variant == "connected":
        return DEFAULT_LIMITS.max_connected_domination
    return DEFAULT_LIMITS.max_domination


def lower_bound(G, variant):
    masks = _neighbor_masks(G)
    closed = [masks[v] | (1 << v) for v in range(G.n)]
    return _domination_lower_bound(G, variant, masks if variant == "total" else closed)


def _domination_graphs():
    """Labeled, structured and random disk graphs up to the domination caps."""
    for n in range(6):
        yield from all_labeled_graphs(n)
    top = max(map(_cap, DOMINATION_VARIANTS))
    for n in range(1, top + 1):
        yield path(n)
        yield star(n - 1)
        if n >= 3:
            yield cycle(n)
    # several components, so no member of one can cover another
    yield disjoint_union(cycle(6), cycle(6))
    yield disjoint_union(path(5), complete(4), path(1))
    yield disjoint_union(cycle(7), cycle(7))
    for rows in range(2, 5):
        for cols in range(rows, top // rows + 1):
            yield grid(rows, cols)
    for cap in sorted({_cap(v) for v in DOMINATION_VARIANTS}):
        yield from connected_disk_graphs(100, cap // 2, cap, 0xE5 + cap, (4.0,))


@functools.lru_cache(maxsize=None)
def _domination_reference():
    """(graph, variant, first accepted subset) wherever the variant has a solution."""
    cases = []
    for G in _domination_graphs():
        for variant in DOMINATION_VARIANTS:
            if G.n > _cap(variant) or (variant == "connected" and not is_connected(G)):
                continue
            first = first_dominating_set(G, variant)
            if first is not None:
                cases.append((G, variant, first))
    return tuple(cases)


class TestDominationSearch:
    def test_matches_the_first_accepted_subset(self):
        for G, variant, first in _domination_reference():
            size, witness = exact_domination(G, variant)
            assert (size, witness.members) == (len(first), first), (G.adj, variant)

    def test_lower_bound_never_exceeds_the_optimum(self):
        for G, variant, first in _domination_reference():
            if G.n == 0:
                continue
            assert 1 <= lower_bound(G, variant) <= len(first), (G.adj, variant)

    def test_each_term_reaches_the_optimum(self):
        # packing: the four leaves of a spider with legs of length 2 have
        # disjoint closed neighborhoods, while ceil(9 / 5) = 2
        spider = spider_graph(4, 2)
        assert lower_bound(spider, "plain") == exact_domination(spider, "plain")[0] == 4
        # degree: the id-order packing of C16 stops at 5, ceil(16 / 3) = 6
        C16 = cycle(16)
        assert lower_bound(C16, "plain") == exact_domination(C16, "plain")[0] == 6
        # Steiner term with z on an end: P16 has diameter 15
        P16 = path(16)
        assert lower_bound(P16, "connected") == exact_domination(P16, "connected")[0] == 14
        # Steiner term on three leaves: every internal vertex of a tree is
        # needed, 1 + 3 * 3 = 10, where the eccentricity term gives 8 - 1
        spider = spider_graph(3, 4)
        assert eccentricity_connected_bound(spider) == 7
        assert lower_bound(spider, "connected") == exact_domination(spider, "connected")[0] == 10

    def test_reference_reaches_every_cap(self):
        cases = _domination_reference()
        for variant in DOMINATION_VARIANTS:
            assert max(G.n for G, v, _ in cases if v == variant) == _cap(variant), variant


def crown(k):
    """K_{k,k} minus a perfect matching."""
    return build_graph(2 * k, [(u, k + v) for u in range(k) for v in range(k) if u != v])


def _mis_graphs():
    """Labeled, structured and random graphs up to the independent-set cap."""
    for n in range(6):
        yield from all_labeled_graphs(n)
    top = DEFAULT_LIMITS.max_independent_set
    for n in range(1, top + 1):
        yield path(n)
        yield star(n - 1)
        if n >= 3:
            yield cycle(n)
    for rows in range(2, 5):
        for cols in range(rows, top // rows + 1):
            yield grid(rows, cols)
    # unions of cliques: the greedy clique cover equals the optimum
    for sizes in [(2, 3), (3, 3, 3), (4, 1, 4), (5, 5, 5, 5), (2,) * 12, (6, 6, 6, 6), (3,) * 8]:
        yield disjoint_union(*map(complete, sizes))
    for k in range(2, top // 2 + 1):
        yield crown(k)
    rng = Rng(609)
    for index in range(40):
        yield complement(random_graph(8 + index % 17, 0.1 + 0.4 * rng.uniform(), rng))
    yield from connected_disk_graphs(200, 12, 24, 0x3A5, (3.0, 4.0, 5.0, 6.0))


class TestMisWitness:
    def test_matches_the_uncut_search(self):
        for G in _mis_graphs():
            size, mask, _ = scan_first_mis_search(G, cover_cut=False)
            chosen = {v for v in range(G.n) if (mask >> v) & 1}
            assert exact_mis(G) == (size, VertexSet.of(chosen, G.n)), G.adj
            assert exact_vc(G) == (G.n - size, VertexSet.of(set(range(G.n)) - chosen, G.n)), G.adj

    def test_cut_before_the_scan_visits_the_same_nodes(self):
        for G in _mis_graphs():
            size, mask, nodes = scan_first_mis_search(G)
            budget = _NodeBudget(DEFAULT_LIMITS.max_nodes)
            assert _mis_search(G, budget) == (size, mask), G.adj
            assert budget.nodes == nodes, G.adj


@functools.lru_cache(maxsize=None)
def _oracle_graphs():
    """Labeled graphs up to n = 5, paths, cycles and crowns up to 16
    vertices, and 300 unit and 300 [0.5, 2] connected disk graphs at
    n = 8..16."""
    graphs = [G for n in range(6) for G in all_labeled_graphs(n)]
    for n in range(1, 17):
        graphs.append(path(n))
        if n >= 3:
            graphs.append(cycle(n))
        if n % 2 == 0 and n >= 4:
            graphs.append(crown(n // 2))
    graphs.extend(connected_disk_graphs(600, 8, 16, 0xC01, (3.0, 4.0, 5.0)))
    return tuple(graphs)


class TestColoringSearch:
    def test_matches_the_recounting_search(self):
        for G in _oracle_graphs():
            if G.n == 0:
                continue
            clique = exact_clique(G)[1].members
            for k in range(len(clique), _first_fit(G, range(G.n)).num_colors + 1):
                ours, theirs = _NodeBudget(DEFAULT_LIMITS.max_nodes), _NodeBudget(DEFAULT_LIMITS.max_nodes)
                colors = _try_k_coloring(G, k, clique, ours)
                assert colors == recount_k_coloring(G, k, clique, theirs), (G.adj, k)
                assert ours.nodes == theirs.nodes, (G.adj, k)
                if colors is not None:
                    assert exact_chromatic(G) == (k, Coloring.of(colors)), G.adj
                    break


def _counted(monkeypatch, search):
    """(result, search nodes) of ``search()`` under a counting node budget."""
    budgets = []

    class CountingBudget(_NodeBudget):
        __slots__ = ()

        def __init__(self, cap):
            super().__init__(cap)
            budgets.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(exact, "_NodeBudget", CountingBudget)
        result = search()
    return result, sum(budget.nodes for budget in budgets)


class TestSteinerBound:
    def test_never_below_the_eccentricity_bound_nor_above_the_optimum(self, monkeypatch):
        fixed = [path(16), spider_graph(4, 2), spider_graph(3, 4), cycle(16)]
        fixed += [grid(rows, cols) for rows in range(2, 5) for cols in range(rows, 16 // rows + 1)]
        connected = [G for G in _oracle_graphs() if G.n and is_connected(G)]
        assert sum(G.n >= 8 for G in connected) >= 400
        for G in fixed + connected:
            bound = lower_bound(G, "connected")
            old = eccentricity_connected_bound(G)
            new, nodes = _counted(monkeypatch, lambda: exact_domination(G, "connected"))
            with monkeypatch.context() as patch:
                patch.setattr(exact, "_domination_lower_bound", lambda G, v, r: old)
                before, old_nodes = _counted(monkeypatch, lambda: exact_domination(G, "connected"))
            assert old <= bound <= new[0], G.adj
            assert new == before and nodes <= old_nodes, G.adj

    def test_c16_keeps_its_bound(self):
        # test_node_cap_is_enforced counts the nodes from size 7 up
        assert lower_bound(cycle(16), "connected") == eccentricity_connected_bound(cycle(16)) == 7

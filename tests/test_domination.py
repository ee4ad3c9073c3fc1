import json
import math
from itertools import combinations

import pytest

from diskapprox import checks, domination
from diskapprox.cli import main
from diskapprox.domination import (
    connected_dominating_set,
    dominating_set,
    independent_set_graph,
    total_dominating_set,
)
from diskapprox.errors import (
    BadParameter,
    InducedStar,
    IsolatedVertex,
    NoEligibleVertex,
    NotConnected,
)
from diskapprox.exact import exact_domination, exact_mis
from diskapprox.geometry import (
    GeometricInstance,
    instance_to_graph,
    random_connected_instance,
    random_instance,
    sweep_order,
)
from diskapprox.graphs import build_graph, greedy_maximal_independent_set
from diskapprox.problems import PROBLEMS, Options
from diskapprox.rng import Rng, derive_seed
from diskapprox.formats import write_instance
from refimpl import (
    all_subsets,
    c5,
    complete,
    disk_graph,
    has_independent_subset,
    random_graph,
    rescan_independent_set_graph,
    run_cli,
    star,
    sweep_mis,
)


def unit_instance(index, n, mean_degree=4.0):
    box = math.sqrt(n * math.pi * 4.0 / mean_degree)
    return random_instance(n, box, 1.0, derive_seed(0xD0, index))


def connected_unit_instance(index, n, mean_degree=4.0):
    box = math.sqrt(n * math.pi * 4.0 / mean_degree)
    return random_connected_instance(n, box, 1.0, derive_seed(0xD1, index))[0]


def ring(n):
    """n unit disks on a circle, each overlapping only its two ring neighbors."""
    R = 0.999 / math.sin(math.pi / n)
    return tuple(
        (R * math.cos(2 * math.pi * k / n), R * math.sin(2 * math.pi * k / n), 1.0)
        for k in range(n)
    )


def shifted(inst, dx, dy, scale=1.0):
    return tuple((scale * x + dx, scale * y + dy, scale * r) for x, y, r in inst.disks)


# name -> (disks, edge count, when the structure pins it)
STRUCTURED_UNIT = {
    "empty": ((), 0),
    "single": (((5.0, -3.0, 1.0),), 0),
    "tangent-chain": (tuple((2.0 * i, 0.0, 1.0) for i in range(40)), 39),
    "reversed-tangent-chain": (tuple((2.0 * i, 0.0, 1.0) for i in reversed(range(40))), 39),
    "ring": (ring(31), 31),
    # ids run against the coordinates, so x and y ties decide the order
    "grid-spacing-2r": (
        tuple(reversed([(2.0 * i, 2.0 * j, 1.0) for i in range(9) for j in range(9)])),
        2 * 9 * 8,
    ),
    "coincident-centers": (
        tuple([(1.0, 1.0, 1.0)] * 4 + [(0.0, 0.0, 1.0)] * 5 + [(2.0, 0.0, 1.0)] * 3),
        None,
    ),
    "negative-coordinates": (shifted(unit_instance(7, 60), -40.0, -25.0), None),
    "1e6-offset": (shifted(unit_instance(8, 60), 1e6, -1e6), None),
    "1e6-scale": (shifted(unit_instance(9, 60), -3e6, 0.0, scale=1e5), None),
}


class TestIndependentSetGraph:
    def test_c5_is_optimal(self):
        chosen = independent_set_graph(c5())
        assert len(chosen) == 2
        assert checks.is_independent_set(c5(), chosen)

    def test_k4(self):
        assert len(independent_set_graph(complete(4))) == 1

    def test_six_star_picks_all_leaves(self):
        # the hub fails the eligibility test, each leaf passes trivially
        chosen = independent_set_graph(star(6))
        assert chosen.members == (1, 2, 3, 4, 5, 6)

    def test_bound_validation(self):
        with pytest.raises(BadParameter):
            independent_set_graph(c5(), 0)

    def test_k44_has_no_eligible_vertex(self):
        K44 = build_graph(8, [(u, 4 + v) for u in range(4) for v in range(4)])
        with pytest.raises(NoEligibleVertex) as info:
            independent_set_graph(K44, 3)
        assert info.value.witness.members == tuple(range(8))
        assert outcome(independent_set_graph, K44, 3) == outcome(
            rescan_independent_set_graph, K44, 3
        )

    def test_k44_passes_with_a_looser_bound(self):
        K44 = build_graph(8, [(u, 4 + v) for u in range(4) for v in range(4)])
        chosen = independent_set_graph(K44, 5)
        assert checks.is_independent_set(K44, chosen)

    def test_a_waiting_vertex_is_picked_once_a_neighbor_dies(self):
        # the path 3-1-0-2-4 with bound 1: 0, 1 and 2 each see two
        # non-adjacent neighbors and wait; 3 is picked and deletes 1, which
        # re-queues 0, now eligible and the lowest survivor
        G = build_graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        assert independent_set_graph(G, 1).members == (0, 3, 4)
        assert rescan_independent_set_graph(G, 1).members == (0, 3, 4)

    @pytest.mark.parametrize("name", sorted(STRUCTURED_UNIT))
    def test_matches_the_rescan_on_structured_instances(self, name):
        G = instance_to_graph(GeometricInstance(STRUCTURED_UNIT[name][0]))
        for bound in (1, 2, 3, 5):
            assert outcome(independent_set_graph, G, bound) == outcome(
                rescan_independent_set_graph, G, bound
            )

    def test_matches_the_rescan_on_disk_instances(self):
        for index, n in enumerate((12, 24, 60, 150, 300)):
            for radius, radius_high in ((1.0, None), (0.5, 2.0)):
                G = disk_graph(n, radius, radius_high, derive_seed(0xD2, index))
                for bound in (2, 3, 5):
                    assert outcome(independent_set_graph, G, bound) == outcome(
                        rescan_independent_set_graph, G, bound
                    )

    def test_matches_the_rescan_on_random_graphs(self):
        rng = Rng(0xD3)
        raised = 0
        for _ in range(300):
            n = 1 + rng.randrange(14)
            G = random_graph(n, 0.1 + 0.8 * rng.uniform(), rng)
            for bound in (1, 2, 3):
                expected = outcome(rescan_independent_set_graph, G, bound)
                assert outcome(independent_set_graph, G, bound) == expected
                raised += expected[0] == "witness"
        assert raised > 50  # the witness path is exercised, not only picks

    def test_one_third_guarantee_on_unit_instances(self):
        for index in range(50):
            inst = unit_instance(index, n=12 + index % 5)
            G = instance_to_graph(inst)
            chosen = independent_set_graph(G)
            assert checks.is_independent_set(G, chosen)
            optimum, _ = exact_mis(G)
            assert 3 * len(chosen) >= optimum


def clusters(g, k=5):
    """Disk 0, radius 0.999 at the origin, meeting k pairwise disjoint
    clusters of g nearly coincident disks (radii 1 + 1e-6 j) whose centers
    lie 1.99 from it: disk 0's neighborhood has independence number k."""
    disks = [(0.0, 0.0, 0.999)]
    for c in range(k):
        cx, cy = 1.99 * math.cos(2 * math.pi * c / k), 1.99 * math.sin(2 * math.pi * c / k)
        disks += [(cx + 1e-7 * j, cy, 1.0 + 1e-6 * j) for j in range(g)]
    return GeometricInstance(tuple(disks))


def clique_ring(g, k, joined):
    """Vertex 0 adjacent to k cliques of g vertices; clique c is also fully
    joined to clique c + 1 (mod k) when ``joined``."""
    cliques = [range(1 + c * g, 1 + (c + 1) * g) for c in range(k)]
    edges = [(0, v) for clique in cliques for v in clique]
    for c, clique in enumerate(cliques):
        edges += [(u, v) for u in clique for v in clique if u < v]
        if joined:
            edges += [(u, v) for u in clique for v in cliques[(c + 1) % k]]
    return build_graph(1 + k * g, edges)


def count_search_nodes(monkeypatch):
    """Count eligibility search nodes: each makes one clique-cover pass."""
    nodes = []
    cover = domination._cover_exceeds

    def counted(*args):
        nodes.append(args[1].bit_count())
        return cover(*args)

    monkeypatch.setattr(domination, "_cover_exceeds", counted)
    return nodes


class TestBoundedEligibility:
    """The eligibility test's greedy cover and independent-set exits."""

    def test_agrees_with_the_plain_search_on_random_pools(self):
        rng = Rng(0xD4)
        for _ in range(400):
            n = 2 + rng.randrange(14)
            G = random_graph(n, rng.uniform(), rng)
            pool = [v for v in range(n) if rng.uniform() < 0.8]
            for size in range(1, 7):
                assert domination._has_independent_subset(G.adj, pool, size) == (
                    has_independent_subset(G, pool, size)
                ), (G.adj, pool, size)

    @pytest.mark.parametrize("g", [1, 2, 3, 5])
    def test_matches_the_rescan_on_cluster_instances(self, g):
        G = instance_to_graph(clusters(g))
        assert all(len(G.adj[v]) >= g for v in range(G.n))
        for bound in (3, 4, 5):
            assert outcome(independent_set_graph, G, bound) == outcome(
                rescan_independent_set_graph, G, bound
            )

    @pytest.mark.parametrize("g", [1, 2, 4, 8])
    def test_matches_the_rescan_on_three_abstract_clusters(self, g):
        for joined in (False, True):
            G = clique_ring(g, 3, joined)
            for bound in (2, 3):
                assert outcome(independent_set_graph, G, bound) == outcome(
                    rescan_independent_set_graph, G, bound
                )

    def test_two_hundred_disk_clusters_take_one_search_node(self, monkeypatch, tmp_path, capsys):
        # disk 0 is tested first: five cliques cover its 1000 neighbors, so
        # it is eligible without a search; picking it deletes every disk
        path = tmp_path / "clusters.udg"
        write_instance(clusters(200), path)
        nodes = count_search_nodes(monkeypatch)
        assert main(["solve", str(path), "--problem", "mis"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["method"] == "eligibility-search" and doc["vertices"] == [0]
        assert nodes == [1000]

    def test_search_nodes_grow_linearly_on_a_ring_of_five_cliques(self, monkeypatch):
        # vertex 0 sees a blown-up 5-cycle: independence number 2, a greedy
        # cover of 3 cliques, and a greedy independent set of 2, so bound 2
        # needs the search; each left-out vertex costs one node
        for g in (3, 30, 200):
            nodes = count_search_nodes(monkeypatch)
            assert independent_set_graph(clique_ring(g, 5, True), 2).members == (0,)
            assert len(nodes) == 2 * g + 1
        G = clique_ring(3, 5, True)
        assert outcome(independent_set_graph, G, 2) == outcome(rescan_independent_set_graph, G, 2)


def outcome(solver, G, bound):
    """The members ``solver`` picks, or the witness and message it raises."""
    try:
        return "members", solver(G, bound).members
    except NoEligibleVertex as exc:
        return "witness", exc.witness.members, str(exc)


def sweep(inst):
    """The unit-disk sweep: greedy maximal independent set in sweep_order."""
    return greedy_maximal_independent_set(instance_to_graph(inst), sweep_order(inst))


class TestIndependentSetGeometric:
    def test_three_disks_in_a_row(self):
        inst = GeometricInstance(((0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (2.0, 0.0, 1.0)))
        assert sweep(inst).members == (0,)

    def test_spread_disks(self):
        inst = GeometricInstance(((0.0, 0.0, 1.0), (5.0, 0.0, 1.0), (10.0, 0.0, 1.0)))
        assert len(sweep(inst)) == 3

    def test_colocated(self):
        inst = GeometricInstance(tuple([(3.0, 3.0, 1.0)] * 9))
        assert len(sweep(inst)) == 1

    def test_only_equal_radii_take_the_sweep(self):
        mixed = GeometricInstance(((0.0, 0.0, 1.0), (5.0, 0.0, 2.0), (9.0, 0.0, 1.0)))
        unit = GeometricInstance(((0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (2.0, 0.0, 1.0)))
        for inst, variant, method in (
            (mixed, "unit", "eligibility-search"),
            (mixed, "circle", "eligibility-search"),
            (unit, "circle", "eligibility-search"),
            (None, "unit", "eligibility-search"),
            (unit, "unit", "sweep"),
        ):
            G = instance_to_graph(inst if inst is not None else unit)
            meta = {}
            chosen = PROBLEMS["mis"].heuristic(G, inst, variant, None, meta)
            assert meta["method"] == method
            if method == "eligibility-search":
                bound = 3 if variant == "unit" else 5
                assert chosen.members == independent_set_graph(G, bound).members

    @pytest.mark.parametrize("name", sorted(STRUCTURED_UNIT))
    def test_matches_the_reference_sweep(self, name):
        triples, edges = STRUCTURED_UNIT[name]
        inst = GeometricInstance(triples)
        G = instance_to_graph(inst)
        assert edges is None or G.m == edges
        expected = sweep_mis(inst)
        assert sweep(inst).members == expected
        meta = {}
        assert PROBLEMS["mis"].heuristic(G, inst, "unit", None, meta).members == expected
        assert meta["method"] == "sweep"

    def test_matches_the_reference_sweep_on_random_instances(self):
        for index in range(30):
            inst = unit_instance(index, n=10 + 3 * index, mean_degree=6.0)
            meta = {}
            chosen = PROBLEMS["mis"].heuristic(instance_to_graph(inst), inst, "unit", None, meta)
            assert meta["method"] == "sweep"
            assert chosen.members == sweep_mis(inst)

    def test_one_third_guarantee(self):
        for index in range(50):
            inst = unit_instance(index, n=14)
            G = instance_to_graph(inst)
            chosen = sweep(inst)
            assert checks.is_independent_set(G, chosen)
            optimum, _ = exact_mis(G)
            assert 3 * len(chosen) >= optimum


class TestDominatingSet:
    def test_k4(self):
        assert len(dominating_set(complete(4))) == 1

    def test_c5(self):
        chosen = dominating_set(c5())
        assert chosen.members == (0, 2)
        assert checks.is_independent_dominating_set(c5(), chosen)

    def test_edgeless(self):
        assert len(dominating_set(build_graph(3, []))) == 3

    def test_five_times_guarantee(self):
        for index in range(40):
            inst = unit_instance(index, n=12)
            G = instance_to_graph(inst)
            chosen = dominating_set(G)
            assert checks.is_independent_dominating_set(G, chosen)
            assert checks.is_dominating_set(G, chosen)
            assert len(chosen) <= 5 * exact_domination(G, "plain")[0]
            assert len(chosen) <= 5 * exact_domination(G, "independent")[0]


class TestTotalDominatingSet:
    def test_k2(self):
        assert total_dominating_set(build_graph(2, [(0, 1)])).members == (0, 1)

    def test_star(self):
        assert total_dominating_set(star(5)).members == (0, 1)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertex):
            total_dominating_set(build_graph(3, [(0, 1)]))

    def test_disconnected_components_each_covered(self):
        G = build_graph(6, [(0, 1), (2, 3), (4, 5)])
        chosen = total_dominating_set(G)
        assert checks.is_total_dominating_set(G, chosen)

    def test_validity_and_double_mis_bound(self):
        for index in range(40):
            inst = connected_unit_instance(index, n=11)
            G = instance_to_graph(inst)
            chosen = total_dominating_set(G)
            assert checks.is_total_dominating_set(G, chosen)
            assert len(chosen) <= 2 * len(dominating_set(G))


class TestConnectedDominatingSet:
    def test_k4(self):
        chosen, trace = connected_dominating_set(complete(4))
        assert chosen.members == (0,)
        assert trace["depth"] == 1

    def test_p5_takes_everything(self):
        P5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        chosen, trace = connected_dominating_set(P5, 0)
        assert chosen.members == (0, 1, 2, 3, 4)
        assert trace["independent"] == [[0], [], [2], [], [4]]
        assert trace["connectors"] == [[], [], [1], [], [3]]
        assert exact_domination(P5, "connected")[0] == 3

    def test_star_rooted_at_leaf(self):
        chosen, trace = connected_dominating_set(star(5), root=1)
        assert len(chosen) == 6
        assert trace["independent"][0] == [1]
        assert exact_domination(star(5), "connected")[0] == 1

    def test_not_connected(self):
        with pytest.raises(NotConnected):
            connected_dominating_set(build_graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(NotConnected):
            connected_dominating_set(build_graph(0, []))

    def test_check_rejects_a_set_that_misses_or_splits(self):
        P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert not checks.is_connected_dominating_set(P4, [0, 1])  # misses 3
        assert not checks.is_connected_dominating_set(P4, [0, 3])  # dominates, not connected
        assert checks.is_connected_dominating_set(P4, [1, 2])

    def test_trace_serializes(self):
        _, trace = connected_dominating_set(c5())
        payload = json.loads(json.dumps(trace))
        assert payload["depth"] == trace["depth"]
        assert payload["independent"][0] == [0]

    def test_validity_and_level_accounting(self):
        for index in range(40):
            inst = connected_unit_instance(index, n=12)
            G = instance_to_graph(inst)
            chosen, trace = connected_dominating_set(G)
            assert checks.is_connected_dominating_set(G, chosen)
            backbone = {v for level in trace["independent"] for v in level}
            assert checks.is_independent_dominating_set(G, backbone)
            for picked, connectors in zip(trace["independent"], trace["connectors"]):
                assert len(connectors) <= len(picked)
            assert len(chosen) <= 2 * len(backbone)

    def test_ten_times_guarantees(self):
        for index in range(30):
            inst = connected_unit_instance(index, n=11)
            G = instance_to_graph(inst)
            chosen, _ = connected_dominating_set(G)
            assert len(chosen) <= 10 * exact_domination(G, "connected")[0]
            assert len(chosen) <= 10 * exact_domination(G, "total")[0]

    def test_root_override_changes_tree_not_validity(self):
        inst = connected_unit_instance(3, n=10)
        G = instance_to_graph(inst)
        for root in range(G.n):
            chosen, trace = connected_dominating_set(G, root)
            assert checks.is_connected_dominating_set(G, chosen)
            assert trace["independent"][0] == [root]


class TestSetChecks:
    def test_match_their_definitions_and_ignore_ids_out_of_range(self):
        # every subset of small random graphs, with and without the ids -1
        # and n, which the checks ignore: no negative id reaches G.adj
        rng = Rng(31)
        for _ in range(12):
            G = random_graph(6, 0.4, rng)
            for subset in all_subsets(G.n):
                inside = set(subset)
                independent = not any(G.has_edge(u, v) for u, v in combinations(subset, 2))
                dominating = all(v in inside or inside & set(G.adj[v]) for v in range(G.n))
                total = all(inside & set(G.adj[v]) for v in range(G.n))
                for chosen in (subset, subset + (-1, G.n)):
                    assert checks.is_independent_set(G, chosen) == independent
                    assert checks.is_dominating_set(G, chosen) == dominating
                    assert checks.is_total_dominating_set(G, chosen) == total


DOMINATION = ("ds", "ids", "tds", "cds")


def star_center_last(leaves):
    return build_graph(leaves + 1, [(v, leaves) for v in range(leaves)])


def disk_star(leaves, distance, radius):
    """``leaves`` radius-0.5 disks evenly spaced at ``distance`` around one
    disk of ``radius`` at the origin, whose id is last."""
    return tuple(
        (distance * math.cos(2 * k * math.pi / leaves), distance * math.sin(2 * k * math.pi / leaves), 0.5)
        for k in range(leaves)
    ) + ((0.0, 0.0, radius),)


def is_induced_star(G, vertices, leaves):
    """Naive: some member is adjacent to every other member, and the others
    are ``leaves`` pairwise non-adjacent vertices."""
    vertices = list(vertices)
    for center in vertices:
        others = [u for u in vertices if u != center]
        if all(G.has_edge(center, u) for u in others):
            return len(others) == leaves and not any(
                G.has_edge(a, b) for a, b in combinations(others, 2)
            )
    return False


def run_domination(name, G, inst=None, variant="unit"):
    options = Options(lambda n: None)
    return PROBLEMS[name].heuristic(G, inst, variant, options, {})


class TestInducedStarCertificate:
    @pytest.mark.parametrize("name", DOMINATION)
    @pytest.mark.parametrize("build", (star, star_center_last))
    def test_five_leaves_pass_either_way(self, name, build):
        G = build(5)
        chosen = run_domination(name, G)
        assert PROBLEMS[name].check(G, chosen)

    @pytest.mark.parametrize("name", DOMINATION)
    def test_six_leaves_center_first_is_optimal(self, name):
        # the center is picked first, so it is the only vertex the greedy
        # independent set holds
        chosen = run_domination(name, star(6))
        assert len(chosen) == (2 if name == "tds" else 1)

    @pytest.mark.parametrize("name", DOMINATION)
    def test_six_leaves_center_last_is_refused(self, name):
        G = star_center_last(6)
        with pytest.raises(InducedStar) as info:
            run_domination(name, G)
        assert info.value.witness.members == tuple(range(7))
        assert is_induced_star(G, info.value.witness, 6)
        assert str(info.value) == (
            "vertex 6 and its pairwise non-adjacent neighbors 0, 1, 2, 3, 4, 5 "
            "form an induced K_{1,6}, which no unit disk graph contains"
        )

    @pytest.mark.parametrize("name", DOMINATION)
    def test_witness_skips_neighbors_outside_the_set(self, name):
        # vertex 0 joins leaf 1 and center 7, so 0 enters the independent
        # set and 1 does not: the witness is 7 with 0, 2, 3, 4, 5, 6
        edges = [(0, 1), (0, 7)] + [(v, 7) for v in range(1, 7)]
        G = build_graph(8, edges)
        with pytest.raises(InducedStar) as info:
            run_domination(name, G)
        assert info.value.witness.members == (0, 2, 3, 4, 5, 6, 7)
        assert is_induced_star(G, info.value.witness, 6)

    @pytest.mark.parametrize("name", DOMINATION)
    def test_a_star_joined_to_a_unit_instance(self, name):
        # a connected unit instance, then six leaves and their center, which
        # is joined to unit vertex 0; 0 comes first, so every heuristic's
        # independent set holds 0 and all six leaves
        unit = instance_to_graph(connected_unit_instance(0, n=20))
        base, center = unit.n, unit.n + 6
        edges = list(unit.edges) + [(0, center)] + [(base + k, center) for k in range(6)]
        G = build_graph(base + 7, edges)
        with pytest.raises(InducedStar) as info:
            run_domination(name, G)
        assert info.value.witness.members == (0, *range(base, base + 5), center)
        assert is_induced_star(G, info.value.witness, 6)
        # the unit instance alone passes
        assert PROBLEMS[name].check(unit, run_domination(name, unit))

    @pytest.mark.parametrize("name", DOMINATION)
    def test_only_abstract_input_claiming_the_unit_bound_is_checked(self, name):
        # no bound claimed: the circle variant has none for this family
        G = star_center_last(10)
        assert len(run_domination(name, G, variant="circle")) >= 10
        # disks: ten of radius 0.5 around one of radius 10, ids before it;
        # mixed radii draw no unit disk graph, so a unit claim is checked
        inst = GeometricInstance(disk_star(10, 10.0, 10.0))
        G = instance_to_graph(inst)
        assert G == star_center_last(10)
        with pytest.raises(InducedStar):
            run_domination(name, G, inst, "unit")
        assert PROBLEMS[name].check(G, run_domination(name, G, inst, "circle"))

    @pytest.mark.parametrize("name", DOMINATION)
    def test_cli_refuses_mixed_radii_claiming_the_unit_bound(self, name, tmp_path):
        # six radius-0.5 disks around one of radius 16: under --variant unit
        # the file is refused as its graph, written as an abstract file, is
        inst = GeometricInstance(disk_star(6, 16.48, 16.0))
        geometric, abstract = tmp_path / "star.udg", tmp_path / "graph.udg"
        write_instance(inst, geometric)
        write_instance(instance_to_graph(inst), abstract)
        refused = run_cli(["solve", str(abstract), "--problem", name])
        assert refused[0] == 2 and "induced K_{1,6}" in refused[2]
        assert run_cli(["solve", str(geometric), "--problem", name, "--variant", "unit"]) == refused
        # the default variant of mixed radii is circle, which claims no bound
        assert run_cli(["solve", str(geometric), "--problem", name])[0] == 0

    def test_count_reaches_six_only_outside_the_set(self):
        # a member's closed neighborhood meets the set in itself alone: K_{1,6}
        # with the center in the set passes even though it has six neighbors
        domination.refuse_induced_star(star(6), [0])
        with pytest.raises(InducedStar):
            domination.refuse_induced_star(star(6), range(1, 7))
        domination.refuse_induced_star(build_graph(0, []), [])

    @pytest.mark.parametrize("name", DOMINATION)
    def test_cli_exits_2_with_the_witness(self, name, tmp_path, capsys):
        path = tmp_path / "star.udg"
        path.write_text("udg 1 abstract\nn 7\n" + "".join(f"edge {v} 6\n" for v in range(6)))
        assert main(["solve", str(path), "--problem", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: vertex 6 and its pairwise non-adjacent neighbors 0, 1, 2, 3, 4, 5 "
            "form an induced K_{1,6}, which no unit disk graph contains\n"
        )

import json
import math

import pytest

from diskapprox import checks
from diskapprox.domination import (
    connected_dominating_set,
    dominating_set,
    independent_set_graph,
    total_dominating_set,
)
from diskapprox.errors import (
    BadParameter,
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
from diskapprox.problems import PROBLEMS
from diskapprox.rng import derive_seed
from refimpl import sweep_mis

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def c5():
    return build_graph(5, C5_EDGES)


def complete(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(leaves):
    return build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


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

    def test_k44_passes_with_a_looser_bound(self):
        K44 = build_graph(8, [(u, 4 + v) for u in range(4) for v in range(4)])
        chosen = independent_set_graph(K44, 5)
        assert checks.is_independent_set(K44, chosen)

    def test_one_third_guarantee_on_unit_instances(self):
        for index in range(50):
            inst = unit_instance(index, n=12 + index % 5)
            G = instance_to_graph(inst)
            chosen = independent_set_graph(G)
            assert checks.is_independent_set(G, chosen)
            optimum, _ = exact_mis(G)
            assert 3 * len(chosen) >= optimum


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
        assert trace.depth == 1

    def test_p5_takes_everything(self):
        P5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        chosen, trace = connected_dominating_set(P5, 0)
        assert chosen.members == (0, 1, 2, 3, 4)
        assert trace.independent == ((0,), (), (2,), (), (4,))
        assert trace.connectors == ((), (), (1,), (), (3,))
        assert exact_domination(P5, "connected")[0] == 3

    def test_star_rooted_at_leaf(self):
        chosen, trace = connected_dominating_set(star(5), root=1)
        assert len(chosen) == 6
        assert trace.independent[0] == (1,)
        assert exact_domination(star(5), "connected")[0] == 1

    def test_not_connected(self):
        with pytest.raises(NotConnected):
            connected_dominating_set(build_graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(NotConnected):
            connected_dominating_set(build_graph(0, []))

    def test_trace_serializes(self):
        _, trace = connected_dominating_set(c5())
        payload = json.loads(json.dumps(trace.to_dict()))
        assert payload["depth"] == trace.depth
        assert payload["independent"][0] == [0]

    def test_validity_and_level_accounting(self):
        for index in range(40):
            inst = connected_unit_instance(index, n=12)
            G = instance_to_graph(inst)
            chosen, trace = connected_dominating_set(G)
            assert checks.is_connected_dominating_set(G, chosen)
            backbone = {v for level in trace.independent for v in level}
            assert checks.is_independent_dominating_set(G, backbone)
            for picked, connectors in zip(trace.independent, trace.connectors):
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
            assert trace.independent[0] == (root,)

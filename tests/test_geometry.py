import math
from itertools import combinations

import pytest

from diskapprox import checks
from diskapprox.errors import BadParameter, ModelMismatch, NonPositiveRadius
from diskapprox.geometry import (
    GeometricInstance,
    instance_to_graph,
    polygon_independence_bound,
    random_connected_instance,
    random_instance,
    sector_clique,
    sweep_order,
)
from diskapprox.graphs import build_graph, is_connected
from diskapprox.rng import Rng, derive_seed
from refimpl import brute_mis


def disks(*triples):
    return GeometricInstance(tuple(triples))


def neighborhood_independence(G, v):
    nbrs = G.neighbors(v)
    sub_edges = [
        (a, b) for a, b in combinations(range(len(nbrs)), 2)
        if G.has_edge(nbrs[a], nbrs[b])
    ]
    return brute_mis(build_graph(len(nbrs), sub_edges)) if nbrs else 0


class TestInstanceToGraph:
    def test_tangent_disks_intersect(self):
        assert instance_to_graph(disks((0, 0, 1), (2, 0, 1))).m == 1

    def test_just_beyond_tangency(self):
        assert instance_to_graph(disks((0, 0, 1), (2 + 1e-6, 0, 1))).m == 0

    def test_colocated_triangle(self):
        G = instance_to_graph(disks((1, 1, 1), (1, 1, 1), (1, 1, 1)))
        assert G.m == 3

    def test_mixed_radii(self):
        # reach 0.5 + 2.5 = 3; centers 3 apart are tangent, 3.01 apart are not
        assert instance_to_graph(disks((0, 0, 0.5), (3, 0, 2.5))).m == 1
        assert instance_to_graph(disks((0, 0, 0.5), (3.01, 0, 2.5))).m == 0

    def test_nonpositive_radius(self):
        with pytest.raises(NonPositiveRadius):
            instance_to_graph(disks((0, 0, 0.0), (1, 1, 1)))

    def test_non_finite_fields(self):
        for bad in ((math.nan, 0, 1), (0, math.inf, 1), (0, 0, math.inf), (0, 0, math.nan)):
            with pytest.raises(BadParameter):
                instance_to_graph(disks((0, 0, 1), bad))

    def test_grid_matches_all_pairs(self):
        # the bucketed builder must agree with the O(n^2) definition
        for index in range(30):
            inst = random_instance(40, 9.0, 1.0, derive_seed(99, index),
                                   radius_high=2.0 if index % 3 == 0 else None)
            G = instance_to_graph(inst)
            expected = set()
            for i in range(inst.n):
                xi, yi, ri = inst.disks[i]
                for j in range(i + 1, inst.n):
                    xj, yj, rj = inst.disks[j]
                    if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ri + rj) ** 2:
                        expected.add((i, j))
            assert set(G.edges) == expected

    def test_translation_and_right_angle_rotation_invariance(self):
        inst = random_instance(30, 8.0, 1.0, 4242)
        G = instance_to_graph(inst)
        shifted = GeometricInstance(tuple((x + 13.0, y - 7.0, r) for x, y, r in inst.disks))
        rotated = GeometricInstance(tuple((-y, x, r) for x, y, r in inst.disks))
        assert instance_to_graph(shifted) == G
        assert instance_to_graph(rotated) == G


class TestRandomInstance:
    def test_single_disk(self):
        inst = random_instance(1, 5.0, 1.0, 0)
        assert inst.n == 1
        assert instance_to_graph(inst).m == 0

    def test_determinism(self):
        assert random_instance(50, 10, 1, 7) == random_instance(50, 10, 1, 7)

    def test_tiny_box_gives_complete_graph(self):
        G = instance_to_graph(random_instance(20, 0.5, 1.0, 3))
        assert G.m == 20 * 19 // 2

    def test_centers_inside_box(self):
        inst = random_instance(200, 4.0, 1.0, 8)
        assert all(0 <= x < 4 and 0 <= y < 4 for x, y, _ in inst.disks)

    def test_radius_range(self):
        inst = random_instance(100, 10.0, 0.5, 21, radius_high=2.0)
        assert not inst.unit
        assert all(0.5 <= r <= 2.0 for _, _, r in inst.disks)

    def test_centers_unaffected_by_radius_range(self):
        plain = random_instance(10, 6.0, 1.0, 5)
        ranged = random_instance(10, 6.0, 1.0, 5, radius_high=2.0)
        assert [(x, y) for x, y, _ in plain.disks] == [(x, y) for x, y, _ in ranged.disks]

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            random_instance(0, 1, 1, 0)
        with pytest.raises(BadParameter):
            random_instance(5, -1, 1, 0)
        with pytest.raises(BadParameter):
            random_instance(5, 1, 0, 0)
        with pytest.raises(BadParameter):
            random_instance(5, 1, 2, 0, radius_high=1)

    def test_non_finite_box(self):
        for box in (math.nan, math.inf):
            with pytest.raises(BadParameter):
                random_instance(5, box, 1, 0)

    def test_non_finite_radius(self):
        cases = ((math.nan, None), (math.inf, None), (1, math.nan), (1, math.inf))
        for radius, radius_high in cases:
            with pytest.raises(BadParameter):
                random_instance(5, 4, radius, 0, radius_high)

    def test_connected_sampler(self):
        inst = random_connected_instance(12, 6.0, 1.0, 31)
        assert is_connected(instance_to_graph(inst))


class TestSweepOrder:
    def test_by_x(self):
        assert sweep_order(disks((3, 0, 1), (1, 0, 1), (2, 0, 1))) == (1, 2, 0)

    def test_tie_by_y(self):
        assert sweep_order(disks((1, 2, 1), (1, 1, 1))) == (1, 0)

    def test_single(self):
        assert sweep_order(disks((0, 0, 1))) == (0,)


class TestSectorClique:
    def test_colocated_k4(self):
        inst = disks(*[(2, 2, 1)] * 4)
        G = instance_to_graph(inst)
        clique = sector_clique(inst, G)
        assert len(clique) == 4
        assert checks.is_clique(G, clique)

    def test_one_neighbor_per_sector(self):
        hub = [(0.0, 0.0, 1.0)]
        spokes = [
            (1.9 * math.cos(math.radians(60 * k + 1)),
             1.9 * math.sin(math.radians(60 * k + 1)), 1.0)
            for k in range(6)
        ]
        inst = disks(*(hub + spokes))
        G = instance_to_graph(inst)
        assert G.degree(0) == 6
        clique = sector_clique(inst, G)
        assert len(clique) == 2  # one spoke per sector, lowest sector wins
        assert checks.is_clique(G, clique)
        assert len(clique) >= -(-G.max_degree() // 6) + 1

    def test_edgeless(self):
        inst = disks((0, 0, 1), (10, 0, 1), (20, 0, 1))
        G = instance_to_graph(inst)
        assert len(sector_clique(inst, G)) == 1

    def test_model_mismatch(self):
        inst = disks((0, 0, 1), (10, 0, 1))
        with pytest.raises(ModelMismatch):
            sector_clique(inst, build_graph(2, [(0, 1)]))

    def test_rejects_mixed_radii(self):
        inst = disks((0, 0, 1), (1, 0, 2))
        with pytest.raises(ModelMismatch):
            sector_clique(inst, instance_to_graph(inst))

    def test_size_bound_on_random_instances(self):
        for index in range(60):
            inst = random_instance(18, 5.0, 1.0, derive_seed(17, index))
            G = instance_to_graph(inst)
            clique = sector_clique(inst, G)
            assert checks.is_clique(G, clique)
            assert len(clique) >= -(-G.max_degree() // 6) + 1


class TestUnitDiskStructure:
    def test_no_induced_six_star(self):
        # every neighborhood's independence number stays at or below 5
        for index in range(80):
            inst = random_instance(16, 4.5, 1.0, derive_seed(5, index))
            G = instance_to_graph(inst)
            for v in range(G.n):
                assert neighborhood_independence(G, v) <= 5

    def test_leftmost_vertex_neighborhood_independence(self):
        for index in range(80):
            inst = random_instance(16, 4.0, 1.0, derive_seed(6, index))
            G = instance_to_graph(inst)
            first = sweep_order(inst)[0]
            assert neighborhood_independence(G, first) <= 3


class TestPolygonBound:
    def test_reference_values(self):
        assert polygon_independence_bound(3).independence_bound == 22
        assert polygon_independence_bound(4).independence_bound == 15
        assert polygon_independence_bound(6).independence_bound == 11

    def test_area(self):
        square = polygon_independence_bound(4)
        assert square.area == pytest.approx(2.0)

    def test_rejects_degenerate_polygons(self):
        with pytest.raises(BadParameter):
            polygon_independence_bound(2)

    def test_bound_shrinks_toward_disks(self):
        values = [polygon_independence_bound(p).independence_bound for p in range(3, 65)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] >= math.ceil(18 * math.pi / (2 * math.pi) - 1e-6)


class TestRng:
    def test_streams_are_reproducible(self):
        assert [Rng(9).next_u64() for _ in range(4)] == [Rng(9).next_u64() for _ in range(4)]

    def test_derive_matches_stream_position(self):
        rng = Rng(123)
        outputs = [rng.next_u64() for _ in range(3)]
        assert [derive_seed(123, i) for i in range(3)] == outputs

    def test_uniform_range(self):
        rng = Rng(77)
        values = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_randrange_covers_support(self):
        rng = Rng(13)
        seen = {rng.randrange(5) for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}

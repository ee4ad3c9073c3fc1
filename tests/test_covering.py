import math

import pytest

from diskapprox import checks
from diskapprox.covering import (
    ArrivalSequence,
    Coloring,
    color_offline,
    color_online_firstfit,
    coloring_lower_bound,
    vertex_cover,
)
from diskapprox.errors import BadParameter, MinDegreeExceeded
from diskapprox.exact import exact_chromatic, exact_vc
from diskapprox.geometry import GeometricInstance, instance_to_graph, random_instance
from diskapprox.graphs import build_graph, degeneracy_ordering
from diskapprox.rng import Rng, derive_seed
from refimpl import c5, complete, disk_graph, edges_vertex_cover, random_graph, star


def complete_bipartite(a, b):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def unit_instance(index, n=14, mean_degree=4.0):
    box = math.sqrt(n * math.pi * 4.0 / mean_degree)
    return random_instance(n, box, 1.0, derive_seed(0xC0, index))


class TestColoring:
    def test_contiguity_enforced(self):
        with pytest.raises(BadParameter):
            Coloring.of([1, 3])
        with pytest.raises(BadParameter):
            Coloring.of([0, 1])

    def test_empty(self):
        assert Coloring.of([]).num_colors == 0

    def test_check_proper(self):
        assert checks.is_proper_coloring(build_graph(2, [(0, 1)]), Coloring.of([1, 2]).colors)
        assert not checks.is_proper_coloring(build_graph(2, [(0, 1)]), Coloring.of([1, 1]).colors)
        # a list of the wrong length, or one holding a color below 1, is not
        # a coloring, whatever its edges say (cli filters both before this)
        assert not checks.is_proper_coloring(build_graph(2, []), [1])
        assert not checks.is_proper_coloring(build_graph(2, []), [0, 1])


class TestArrivalSequence:
    def test_validation(self):
        with pytest.raises(BadParameter):
            ArrivalSequence.of([0, 0, 1])

    def test_random_is_reproducible(self):
        assert ArrivalSequence.random(10, 3) == ArrivalSequence.random(10, 3)


class TestColorTriangleFree:
    def test_c5_uses_three_colors(self):
        coloring = color_offline(c5(), 3)
        assert checks.is_proper_coloring(c5(), coloring.colors)
        assert coloring.num_colors == 3

    def test_p4_uses_two(self):
        P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        coloring = color_offline(P4, 3)
        assert checks.is_proper_coloring(P4, coloring.colors)
        assert coloring.num_colors == 2

    def test_k5_exceeds_degree_bound(self):
        with pytest.raises(MinDegreeExceeded) as info:
            color_offline(complete(5), 3)
        assert info.value.witness.members == (0, 1, 2, 3, 4)

    def test_respects_bound_on_unit_disk_remainders(self):
        # stripping triangles from a unit-disk graph leaves a graph this
        # routine colors with at most 4 colors
        for index in range(40):
            inst = unit_instance(index, n=16)
            G = instance_to_graph(inst)
            cover = vertex_cover(G)  # raises if the peel ever stalls
            assert checks.is_vertex_cover(G, cover)

    def test_bound_plus_one_colors(self):
        rng = Rng(91)
        for _ in range(40):
            G = random_graph(10, 0.25, rng)
            try:
                coloring = color_offline(G, 3)
            except MinDegreeExceeded:
                continue
            assert checks.is_proper_coloring(G, coloring.colors)
            assert coloring.num_colors <= 4


class TestVertexCover:
    def test_triangle_takes_all_three(self):
        assert vertex_cover(complete(3)).members == (0, 1, 2)

    def test_star_takes_center(self):
        assert vertex_cover(star(5)).members == (0,)

    def test_edgeless(self):
        assert len(vertex_cover(build_graph(4, []))) == 0

    def test_bad_color_bound(self):
        with pytest.raises(BadParameter):
            vertex_cover(c5(), 1)

    def test_k44_certifies_class_violation(self):
        # triangle-free with minimum degree 4: the unit-disk path must refuse
        with pytest.raises(MinDegreeExceeded) as info:
            vertex_cover(complete_bipartite(4, 4), 4)
        assert str(info.value) == "residual subgraph has minimum degree 4 > 3"
        assert info.value.witness.members == tuple(range(8))
        assert cover_outcome(edges_vertex_cover, complete_bipartite(4, 4), 4) == (
            "raised", str(info.value), info.value.witness,
        )
        # six colors are enough for it, though
        cover = vertex_cover(complete_bipartite(4, 4), color_bound=6)
        assert checks.is_vertex_cover(complete_bipartite(4, 4), cover)

    def test_covers_and_ratio_on_unit_instances(self):
        for index in range(60):
            inst = unit_instance(index, n=12 + index % 5)
            G = instance_to_graph(inst)
            cover = vertex_cover(G)
            assert checks.is_vertex_cover(G, cover)
            optimum, _ = exact_vc(G)
            assert 2 * len(cover) <= 3 * optimum  # the 1.5 guarantee, exactly

    def test_valid_cover_even_outside_the_class(self):
        # arbitrary graphs get a valid cover whenever the core coloring
        # succeeds; the ratio claim is what needs the graph class
        rng = Rng(77)
        completed = 0
        for i in range(80):
            G = random_graph(5 + i % 8, rng.uniform() * 0.7, rng)
            try:
                cover = vertex_cover(G)
            except MinDegreeExceeded as exc:
                assert len(exc.witness) > 0
                continue
            completed += 1
            assert checks.is_vertex_cover(G, cover)
        assert completed > 20


def cover_outcome(cover, G, color_bound):
    """The cover's members, or the message and witness it raises."""
    try:
        return "covered", cover(G, color_bound).members
    except MinDegreeExceeded as exc:
        return "raised", str(exc), exc.witness


def wheel(rim):
    """Hub 0 joined to every vertex of the cycle 1..rim."""
    return build_graph(rim + 1, [(0, v) for v in range(1, rim + 1)]
                       + [(v, v % rim + 1) for v in range(1, rim + 1)])


def fan(blades):
    """Hub 0 joined to every vertex of the path 1..blades."""
    return build_graph(blades + 1, [(0, v) for v in range(1, blades + 1)]
                       + [(v, v + 1) for v in range(1, blades)])


def triangular_lattice(rows, cols):
    """A grid with one diagonal per cell: every inner vertex has degree 6."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
                if c + 1 < cols:
                    edges.append((v, v + cols + 1))
    return build_graph(rows * cols, edges)


class TestVertexCoverAgainstEdgeStrip:
    """Stripping triangles along G.adj gives the cover, or the failure, that
    stripping along a copy of G.edges gives, at color bounds 4 and 6."""

    @staticmethod
    def assert_matches(G):
        for color_bound in (4, 6):
            expected = cover_outcome(edges_vertex_cover, G, color_bound)
            assert cover_outcome(vertex_cover, G, color_bound) == expected

    @pytest.mark.parametrize("radius, radius_high", [(1.0, None), (0.5, 2.0)])
    def test_seeded_disk_instances(self, radius, radius_high):
        for index, n in enumerate((12, 16, 30, 60, 100, 200, 400, 1000) * 2):
            self.assert_matches(disk_graph(n, radius, radius_high, derive_seed(0xC5, index)))

    def test_seeded_random_graphs(self):
        rng = Rng(78)
        for i in range(80):
            self.assert_matches(random_graph(5 + i % 10, rng.uniform() * 0.7, rng))

    def test_triangle_rich_graphs(self):
        graphs = [complete(4), complete(6), triangular_lattice(6, 7), triangular_lattice(1, 5)]
        graphs += [wheel(rim) for rim in range(3, 10)]
        graphs += [fan(blades) for blades in range(1, 10)]
        for G in graphs:
            self.assert_matches(G)

    def test_coincident_disks(self):
        for n in (1, 2, 3, 5, 8, 13):
            G = instance_to_graph(GeometricInstance(((0.25, -3.0, 1.0),) * n))
            assert G.m == n * (n - 1) // 2
            self.assert_matches(G)

    def test_tangent_chain(self):
        r = 2.0 ** -30
        for n in (2, 3, 40, 200):
            G = instance_to_graph(GeometricInstance(tuple((2 * r * i, 0.0, r) for i in range(n))))
            assert G.m == n - 1
            self.assert_matches(G)

    def test_dense_unit_instances(self):
        for index, n in enumerate((400, 1500)):
            box = math.sqrt(n * math.pi * 4.0 / 20.0)
            G = instance_to_graph(random_instance(n, box, 1.0, derive_seed(0xC6, index)))
            assert 16.0 < 2 * G.m / n < 24.0  # about 20, less at the box edges
            self.assert_matches(G)


class TestColorOffline:
    def test_examples(self):
        assert color_offline(complete(4)).num_colors == 4
        assert color_offline(c5()).num_colors == 3
        assert color_offline(build_graph(7, [])).num_colors == 1

    def test_within_degeneracy_plus_one(self):
        rng = Rng(14)
        for _ in range(60):
            G = random_graph(11, rng.uniform(), rng)
            coloring = color_offline(G)
            _, degeneracy = degeneracy_ordering(G)
            assert checks.is_proper_coloring(G, coloring.colors)
            assert coloring.num_colors <= degeneracy + 1

    def test_three_times_optimum_on_unit_instances(self):
        for index in range(40):
            inst = unit_instance(index)
            G = instance_to_graph(inst)
            coloring = color_offline(G)
            assert checks.is_proper_coloring(G, coloring.colors)
            chromatic, _ = exact_chromatic(G)
            assert coloring.num_colors <= 3 * chromatic


class TestColorOnline:
    def test_k4_any_order(self):
        coloring = color_online_firstfit(complete(4), ArrivalSequence.of([3, 1, 0, 2]))
        assert coloring.num_colors == 4

    def test_path_ends_first(self):
        P3 = build_graph(3, [(0, 1), (1, 2)])
        coloring = color_online_firstfit(P3, ArrivalSequence.of([0, 2, 1]))
        assert coloring.colors == (1, 2, 1)
        assert coloring.num_colors == 2

    def test_empty_graph(self):
        coloring = color_online_firstfit(build_graph(0, []), ArrivalSequence.of([]))
        assert coloring.num_colors == 0

    def test_sequence_must_match(self):
        with pytest.raises(BadParameter):
            color_online_firstfit(c5(), ArrivalSequence.of([0, 1, 2]))

    def test_max_degree_plus_one_on_any_graph(self):
        rng = Rng(15)
        for i in range(60):
            G = random_graph(4 + i % 9, rng.uniform(), rng)
            sequence = ArrivalSequence.random(G.n, rng.next_u64())
            coloring = color_online_firstfit(G, sequence)
            assert checks.is_proper_coloring(G, coloring.colors)
            assert coloring.num_colors <= G.max_degree() + 1

    def test_six_competitive_on_unit_instances(self):
        for index in range(30):
            inst = unit_instance(index)
            G = instance_to_graph(inst)
            chromatic, _ = exact_chromatic(G)
            for arrival in range(5):
                sequence = ArrivalSequence.random(G.n, derive_seed(index, arrival))
                coloring = color_online_firstfit(G, sequence)
                assert coloring.num_colors <= 6 * chromatic


class TestColoringLowerBound:
    def test_colocated_k4(self):
        inst = GeometricInstance(tuple([(1.0, 1.0, 1.0)] * 4))
        G = instance_to_graph(inst)
        assert coloring_lower_bound(G, inst) == 4

    def test_c5_formula(self):
        assert coloring_lower_bound(c5()) == 2

    def test_edgeless(self):
        assert coloring_lower_bound(build_graph(3, [])) == 1
        assert coloring_lower_bound(build_graph(0, [])) == 0

    def test_never_exceeds_chromatic_on_unit_instances(self):
        for index in range(40):
            inst = unit_instance(index)
            G = instance_to_graph(inst)
            chromatic, _ = exact_chromatic(G)
            assert coloring_lower_bound(G, inst) <= chromatic

import math
import time
import tracemalloc
from itertools import combinations

import pytest

from diskapprox import checks, domination, geometry
from diskapprox.bench import tuned_box
from diskapprox.errors import BadParameter, ModelMismatch, NonPositiveRadius
from diskapprox.geometry import (
    GeometricInstance,
    _reaches_every_disk,
    _sweep_adjacency,
    instance_to_graph,
    polygon_independence_bound,
    random_connected_instance,
    random_instance,
    sector_clique,
    sweep_order,
)
from diskapprox.graphs import (
    Graph,
    VertexSet,
    build_graph,
    greedy_maximal_independent_set,
    induced_subgraph,
    is_connected,
)
from diskapprox.rng import _INCREMENT, MASK64, Rng, _lane_memo, derive_seed
from refimpl import (
    all_pairs,
    checked_levels,
    has_independent_subset,
    per_draw_disks,
    reference_connected_instance,
    scalar_uniforms,
)


BIG = 2.0 ** 500
TINY = 2.0 ** -500


def up(value):
    return math.nextafter(value, math.inf)


def down(value):
    return math.nextafter(value, -math.inf)


def disks(*triples):
    return GeometricInstance(tuple(triples))


def level_count(inst):
    return len(checked_levels(inst.disks))


def sweep_graph(inst):
    """The strip sweep's graph, which ``instance_to_graph`` skips for small inputs."""
    return Graph.of_rows(_sweep_adjacency(inst.disks, inst.unit))


def edge_counts(inst):
    """Edge counts from ``instance_to_graph`` and from the strip sweep."""
    return instance_to_graph(inst).m, sweep_graph(inst).m


def assert_matches_all_pairs(inst, min_levels=2):
    assert level_count(inst) >= min_levels
    expected = build_graph(inst.n, all_pairs(inst))
    assert instance_to_graph(inst) == expected
    assert sweep_graph(inst) == expected


def assert_both_kernels(inst):
    """Disks all of one radius give the definition's rows through either sweep kernel."""
    expected = build_graph(inst.n, all_pairs(inst))
    for unit in (True, False):
        assert Graph.of_rows(_sweep_adjacency(inst.disks, unit)) == expected


class TestInstanceToGraph:
    def test_tangent_disks_intersect(self):
        assert edge_counts(disks((0, 0, 1), (2, 0, 1))) == (1, 1)

    def test_just_beyond_tangency(self):
        assert edge_counts(disks((0, 0, 1), (2 + 1e-6, 0, 1))) == (0, 0)

    def test_colocated_triangle(self):
        assert edge_counts(disks((1, 1, 1), (1, 1, 1), (1, 1, 1))) == (3, 3)

    def test_mixed_radii(self):
        # reach 0.5 + 2.5 = 3; centers 3 apart are tangent, 3.01 apart are not
        assert edge_counts(disks((0, 0, 0.5), (3, 0, 2.5))) == (1, 1)
        assert edge_counts(disks((0, 0, 0.5), (3.01, 0, 2.5))) == (0, 0)

    def test_nonpositive_radius(self):
        with pytest.raises(NonPositiveRadius):
            instance_to_graph(disks((0, 0, 0.0), (1, 1, 1)))

    def test_non_finite_fields(self):
        for bad in ((math.nan, 0, 1), (0, math.inf, 1), (0, 0, math.inf), (0, 0, math.nan)):
            with pytest.raises(BadParameter):
                instance_to_graph(disks((0, 0, 1), bad))

    def test_grid_matches_all_pairs(self):
        # the strip sweep must agree with the O(n^2) definition
        for index in range(30):
            inst = random_instance(40, 9.0, 1.0, derive_seed(99, index),
                                   radius_high=2.0 if index % 3 == 0 else None)
            assert_matches_all_pairs(inst, min_levels=1)

    def test_rounded_difference_spanning_two_cells(self):
        # -1e-20 - 2 rounds to -2, so the squared test accepts centers a hair
        # more than one reach apart; strips of height exactly 2 put them two apart
        for inst in (disks((-1e-20, 0, 1), (2, 0, 1)), disks((0, -1e-20, 1), (0, 2, 1))):
            assert_matches_all_pairs(inst, min_levels=1)
            assert instance_to_graph(inst).m == 1

    def test_near_boundary_fuzz(self):
        # centers on and a few ulps off multiples of the radii, in both signs,
        # near zero and far from it, so tangent pairs straddle strip boundaries
        rng = Rng(0xB0DA)

        def pick(options):
            return options[rng.randrange(len(options))]

        for index in range(300):
            radii = (1.0,) if index % 2 else (0.25, 1.0, 3.0)
            origin = pick((0.0, 0.0, 1e6, -(2.0 ** 40), 3.0 * 2.0 ** 30))

            def coordinate():
                v = origin + (rng.randrange(9) - 4) * pick(radii) + pick((0.0, 1e-20, -1e-20, 5e-324))
                for _ in range(rng.randrange(3)):
                    v = math.nextafter(v, pick((math.inf, -math.inf)))
                return v

            inst = disks(*[(coordinate(), coordinate(), pick(radii)) for _ in range(24)])
            assert_matches_all_pairs(inst, min_levels=1)

    @pytest.mark.parametrize("radius, radius_high, sizes", [
        (1.0, None, range(81)),
        (0.5, 2.0, range(81)),
        (2.0 ** -400, None, range(33, 81)),
        (0.3, None, range(33, 81)),
        (2.0 ** 400, None, range(33, 81)),
    ], ids=["1.0-None", "0.5-2.0", "equal-2^-400", "equal-0.3", "equal-2^400"])
    def test_both_pairing_paths_at_every_size(self, radius, radius_high, sizes):
        # instance_to_graph tests all pairs up to _ALL_PAIRS_MAX disks and
        # sweeps strips above, with the equal-radius kernel when every radius
        # is equal; all must give the definition's sorted rows
        scale = radius if radius_high is None else 1.0
        for n in sizes:
            box = 2.5 * (n + 1) ** 0.5 * scale
            base = random_instance(n + 1, box, radius, derive_seed(0x5123, n), radius_high)
            inst = GeometricInstance(base.disks[:n])
            expected = build_graph(n, all_pairs(inst))
            for G in (instance_to_graph(inst), sweep_graph(inst)):
                assert G == expected
                assert all(list(row) == sorted(row) for row in G.adj)

    @pytest.mark.parametrize("radius", [2.0 ** -400, 0.3, 1.0, 2.0 ** 400],
                             ids=["2^-400", "0.3", "1", "2^400"])
    def test_equal_radius_kernel(self, radius):
        # tangent chains and lattices, and coincident disks, all of one radius,
        # through both sweep kernels; changing one radius sends the same
        # disks through the general loop
        d = 2.0 * radius
        layouts = [
            [(d * k, 0.0, radius) for k in range(40)],
            [(-3.0 * d, d * k, radius) for k in range(40)],
            [(d * (k % 7), d * (k // 7), radius) for k in range(49)],
            [(d * k, d * k, radius) for k in range(40)],
            [(radius, -radius, radius)] * 40,
        ]
        for layout in layouts:
            inst = GeometricInstance(tuple(layout))
            assert inst.unit
            assert_matches_all_pairs(inst, min_levels=1)
            assert_both_kernels(inst)
            x, y, r = layout[17]
            mixed = GeometricInstance(tuple(layout[:17] + [(x, y, 1.5 * r)] + layout[18:]))
            assert not mixed.unit
            assert_matches_all_pairs(mixed, min_levels=1)
        if radius != 0.3:  # powers of two: every chain neighbor is exactly tangent
            assert instance_to_graph(GeometricInstance(tuple(layouts[0]))).m == 39
        assert instance_to_graph(GeometricInstance(tuple(layouts[-1]))).m == 40 * 39 // 2

    @pytest.mark.parametrize("radius_high", [None, 2.0], ids=["unit", "0.5-2.0"])
    def test_pairwise_disjoint_agrees_with_the_graph(self, radius_high):
        # maximal independent sets, parts of them, each with one more disk,
        # and random subsets, on both sides of _ALL_PAIRS_MAX
        rng = Rng(0x3307)
        radius = 1.0 if radius_high is None else 0.5
        verdicts = set()
        for n in (12, 40, 150, 400):
            inst = random_instance(n, 2.5 * n ** 0.5, radius, derive_seed(0x3307, n), radius_high)
            G = instance_to_graph(inst)
            for _ in range(10):
                order = list(range(n))
                rng.shuffle(order)
                mis = list(greedy_maximal_independent_set(G, order))
                part = mis[:1 + rng.randrange(len(mis))]
                size = 1 + rng.randrange(n)
                for ids in (mis, part, mis + [order[0]], part + [order[-1]], order[:size]):
                    ids = list(dict.fromkeys(ids))
                    disjoint = geometry.pairwise_disjoint(inst, ids)
                    assert disjoint == checks.is_independent_set(G, ids)
                    verdicts.add((disjoint, len(ids) > geometry._ALL_PAIRS_MAX))
        assert verdicts == {(True, False), (True, True), (False, False), (False, True)}

    def test_translation_and_right_angle_rotation_invariance(self):
        inst = random_instance(30, 8.0, 1.0, 4242)
        G = instance_to_graph(inst)
        shifted = GeometricInstance(tuple((x + 13.0, y - 7.0, r) for x, y, r in inst.disks))
        rotated = GeometricInstance(tuple((-y, x, r) for x, y, r in inst.disks))
        assert instance_to_graph(shifted) == G
        assert instance_to_graph(rotated) == G

    def test_dense_input_peak_per_edge(self):
        # 2,000 coincident disks: each row is sorted and frozen in turn, so
        # no row is held as a list and a tuple at once (16.3 B per edge)
        inst = disks(*[(0.0, 0.0, 1.0)] * 2000)
        tracemalloc.start()
        try:
            G = instance_to_graph(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.m == 2000 * 1999 // 2
        assert peak <= 20 * G.m


class TestRadiusLevels:
    """Mixed radii: the multilevel strip sweep against the O(n^2) definition."""

    def test_levels_partition_by_radius(self):
        rng = Rng(3)
        inst = disks(*[(rng.uniform(), rng.uniform(), 2.0 ** (16 * rng.uniform() - 8))
                       for _ in range(300)])
        levels = [[i for _, _, i, _ in entries] for _, _, entries, _, _ in checked_levels(inst.disks)]
        assert sorted(i for ids in levels for i in ids) == list(range(inst.n))
        remaining = inst.n
        for ids, later in zip(levels, levels[1:] + [[]]):
            assert 2 * len(ids) >= remaining
            remaining -= len(ids)
            if later:
                assert max(inst.disks[i][2] for i in ids) < min(inst.disks[i][2] for i in later)
        assert len(levels) <= math.log2(inst.n) + 1

    def test_one_level_when_radii_sit_within_twice_the_median(self):
        assert level_count(random_instance(50, 9.0, 1.0, 1)) == 1
        assert level_count(random_instance(50, 9.0, 0.5, 1, radius_high=2.0)) == 1
        assert level_count(disks((0, 0, 1), (1, 1, 1), (2, 2, 2.5))) == 2

    def test_radii_over_sixteen_octaves(self):
        for index in range(12):
            rng = Rng(derive_seed(0x1E7E1, index))
            n = 30 + 10 * index
            box = 4.0 * n ** 0.5
            inst = disks(*[(box * rng.uniform(), box * rng.uniform(), 2.0 ** (16 * rng.uniform() - 8))
                           for _ in range(n)])
            assert_matches_all_pairs(inst, min_levels=3)

    def test_tangent_across_levels(self):
        # reach 1 + 100 = 101 along both axes; (3, 4, 5) triangles scaled by
        # 20.2 put a diagonal neighbor at exactly 101 as well
        big = (0.0, 0.0, 100.0)
        small = [(101.0, 0.0, 1.0), (-101.0, 0.0, 1.0), (0.0, 101.0, 1.0),
                 (0.0, -101.0, 1.0), (60.6, 80.8, 1.0), (-60.6, -80.8, 1.0)]
        for x, y, r in small:
            assert (x * x + y * y) == (r + 100.0) ** 2
        beyond = [(math.nextafter(101.0, math.inf), 0.0, 1.0), (0.0, -math.nextafter(101.0, math.inf), 1.0)]
        inst = disks(big, *small, *beyond, (1.0, 1.0, 1.0))
        G = instance_to_graph(inst)
        assert [G.has_edge(0, v) for v in range(1, inst.n)] == [True] * 6 + [False, False, True]
        assert_matches_all_pairs(inst)

    def test_tangent_at_scale(self):
        # tangent pairs on levels separated by nearly-equal radii, around
        # negative and 1e6-scale centers
        pairs = [(1.0, 2.0), (1.0, math.nextafter(2.0, math.inf)), (0.25, 64.0), (3.0, 1000.0)]
        for origin in ((0.0, 0.0), (-1e6, 1e6), (1e6 + 0.5, -3e6), (-7.25, -123.5)):
            triples = [(origin[0] + 0.1, origin[1] + 0.1, 1.0)] * 3
            for small, large in pairs:
                ox, oy = origin[0] + 4e4 * small, origin[1] - 3e4 * large
                triples += [(ox, oy, small), (ox + small + large, oy, large),
                            (ox, oy - small - large, large)]
            assert_matches_all_pairs(disks(*triples))

    def test_coincident_centers(self):
        radii = [2.0 ** k for k in range(-6, 7)]
        inst = disks(*[(5.0, -5.0, r) for r in radii])
        assert instance_to_graph(inst).m == len(radii) * (len(radii) - 1) // 2
        assert_matches_all_pairs(inst, min_levels=3)

    def test_huge_and_negative_coordinates(self):
        for index, (sx, sy) in enumerate(((-1e6, -1e6), (1e6, -2e6), (-3.5e6, 4e6))):
            base = random_instance(120, 25.0, 0.5, derive_seed(71, index), radius_high=2.0)
            shifted = [(x + sx, y + sy, r) for x, y, r in base.disks]
            shifted += [(sx + 12.5, sy + 12.5, 9.0), (sx - 1.0, sy + 30.0, 40.0)]
            assert_matches_all_pairs(disks(*shifted))

    def test_one_tiny_disk_among_large_ones(self):
        for index in range(5):
            rng = Rng(derive_seed(72, index))
            triples = [(200 * rng.uniform(), 200 * rng.uniform(), 2.0 ** (2 + 5 * rng.uniform()))
                       for _ in range(60)]
            triples.insert(index * 7, (100 * rng.uniform() + 50, 100 * rng.uniform() + 50, 1e-3))
            assert_matches_all_pairs(disks(*triples))

    @pytest.mark.parametrize("box", [60.0, 3000.0])
    def test_half_small_half_large(self, box):
        rng = Rng(73)
        inst = disks(*[(box * rng.uniform(), box * rng.uniform(), 1.0 if k % 2 else 100.0)
                       for k in range(400)])
        assert_matches_all_pairs(inst)

    def test_radius_at_twice_the_median(self):
        # lower median 1, so radius 2 stays on the first level and 2 + ulp
        # starts the second; tangent pairs straddle and share the boundary
        edge = math.nextafter(2.0, math.inf)
        triples = [(0.0, 0.0, 1.0), (10.0, 0.0, 1.0), (20.0, 0.0, 1.0), (40.0, 0.0, 1.0),
                   (50.0, 0.0, 1.0), (3.0, 0.0, 2.0), (10.0, 3.0, 2.0), (7.0, 0.0, 2.0),
                   (20.0, 1.0 + edge, edge), (20.0 + 2 * edge, 1.0 + edge, edge)]
        inst = disks(*triples)
        levels = checked_levels(inst.disks)
        assert [sorted(i for _, _, i, _ in entries) for _, _, entries, _, _ in levels] == [
            [0, 1, 2, 3, 4, 5, 6, 7], [8, 9]]
        assert set(instance_to_graph(inst).edges) >= {(0, 5), (1, 6), (5, 7), (2, 8), (8, 9)}
        assert_matches_all_pairs(inst)

    def test_one_large_disk_does_not_collapse_the_grid(self):
        # strips cut for the largest radius alone would put all 8001 centers
        # in one strip, with every disk's window spanning the box
        small = random_instance(8000, 300.0, 0.5, 0xB16)
        mixed = GeometricInstance(small.disks + ((150.0, 150.0, 300.0),))

        def best_of_three(inst):
            best = math.inf
            for _ in range(3):
                started = time.perf_counter()
                instance_to_graph(inst)
                best = min(best, time.perf_counter() - started)
            return best

        assert best_of_three(mixed) <= 5.0 * best_of_three(small)


def through_both_kernels(triples):
    """The graph of ``triples``, all of one radius r, checked through both kernels.

    The triples alone take the equal-radius kernel, and are also swept
    through the general loop as they are.  With one far disk of radius r / 2
    added they take the general loop on one level whose largest radius, and
    so strip height, is the same.  All must match the O(n^2) definition; the
    far disk has no neighbor.
    """
    r = triples[0][2]
    equal = disks(*triples)
    general = disks(*triples, (1e6, -1e6, 0.5 * r))
    assert equal.unit and not general.unit and level_count(general) == 1
    for inst in (equal, general):
        assert_matches_all_pairs(inst, min_levels=1)
    assert_both_kernels(equal)
    assert instance_to_graph(general).adj[-1] == ()
    return instance_to_graph(equal)


class TestStripSweep:
    """Strips of one level, and the side that queries across two levels."""

    height = 2.0 * geometry._MARGIN  # of unit disks' strips

    def test_centers_on_a_strip_boundary(self):
        # centers on y = k * h and one ulp either side, each with a partner
        # tangent, a few ulps off tangent, one strip height away or diagonal
        h = self.height
        triples = []
        x = 0.0
        for k in (-3, -1, 0, 1, 2, 7):
            ys = (down(k * h), k * h, up(k * h))
            # at k = 0, -5e-324 / h underflows to -0.0, in strip 0
            assert [math.floor(y / h) for y in ys] == [k - 1 if k else 0, k, k]
            for y in ys:
                for dy in (2.0, up(2.0), down(2.0), -2.0, down(-2.0), h, -h, 1.2, -1.2):
                    dx = math.sqrt(max(4.0 - dy * dy, 0.0))
                    triples += [(x, y, 1.0), (x + dx, y + dy, 1.0)]
                    x += 10.0
        G = through_both_kernels(triples)
        strip = [math.floor(y / h) for _, y, _ in triples]
        crossing = [strip[u] != strip[v] for u, v in G.edges]
        assert any(crossing) and not all(crossing)

    def test_horizontal_and_vertical_tangent_chains(self):
        # exactly tangent unit disks: along x all in one strip; along y the
        # first two share strip 0 and every later strip holds one disk
        h = self.height
        chain = tuple((k, k + 1) for k in range(39))
        horizontal = [(2.0 * k - 37.0, 0.5, 1.0) for k in range(40)]
        vertical = [(0.5, 2.0 * k, 1.0) for k in range(40)]
        for layout, sizes in ((horizontal, [40]), (vertical, [2] + [1] * 38)):
            keys, strips = geometry._strips([(x, y, i) for i, (x, y, _) in enumerate(layout)], h)
            assert [len(members) for (_, members), _ in strips] == sizes
            assert keys == list(range(keys[0], keys[0] + len(sizes)))
            assert [above for _, above in strips] == [strip for strip, _ in strips[1:]] + [geometry._NO_STRIP]
            assert through_both_kernels(layout).edges == chain

    def test_strip_above_is_empty_across_a_gap(self):
        # strips -3, -2, 0 and 5: only strip -3 has a nonempty strip above
        entries = [(0.0, -5.0, 0), (1.0, -3.0, 1), (0.0, -3.5, 2), (0.0, 0.5, 3), (0.0, 10.5, 4)]
        keys, strips = geometry._strips(entries, 2.0)
        assert keys == [-3, -2, 0, 5]
        assert strips[0] == (([0.0], [entries[0]]), ([0.0, 1.0], [entries[2], entries[1]]))
        assert [above for _, above in strips[1:]] == [geometry._NO_STRIP] * 3

    def test_rounding_pair_turned_a_right_angle(self):
        # -1e-20 - 2 rounds to -2, so the test joins centers 2 + 1e-20 apart;
        # strips of height exactly 2 would put them two strips apart
        for pair in ([(0.0, -1e-20, 1.0), (0.0, 2.0, 1.0)], [(0.0, 2.0, 1.0), (0.0, -1e-20, 1.0)]):
            assert [math.floor(y / 2.0) for _, y, _ in pair[::-1]] in ([1, -1], [-1, 1])
            assert through_both_kernels(pair).edges == ((0, 1),)

    def test_equal_x_inside_a_strip(self):
        # a column of 18 centers (3 coincident) inside one strip, and a
        # column 2 to its right whose disks touch the one at their height
        column = [(3.0, 0.1 * k, 1.0) for k in range(15)] + [(3.0, 0.5, 1.0)] * 3
        right = [(5.0, 0.1 * k, 1.0) for k in range(0, 15, 2)]
        G = through_both_kernels(column + right)
        assert G.m == 18 * 17 // 2 + 8 * 7 // 2 + 8
        assert all(G.has_edge(k, 18 + k // 2) for k in range(0, 15, 2))

    def test_three_large_disks_query_the_small_level(self):
        # a large disk's band meets about 10 small strips, a small disk's
        # window up to 3 large ones: 3 * 10 visits against 1000 * 3
        box = tuned_box(1000, 0.5, 2.0, 6.0)
        small = random_instance(1000, box, 0.5, 0x5171, radius_high=2.0)
        inst = disks(*small.disks, (0.25 * box, 0.5 * box, 16.0), (0.5 * box, 0.3 * box, 16.0),
                     (0.75 * box, 0.7 * box, 16.0))
        levels = checked_levels(inst.disks)
        assert [len(entries) for _, _, entries, _, _ in levels] == [1000, 3]
        assert geometry._large_queries(*levels)
        assert_matches_all_pairs(inst)
        assert any(instance_to_graph(inst).adj[-1])

    def test_small_disks_query_a_thin_tall_level(self):
        # 300 tiny disks in a column, one per strip: a large disk's band
        # meets all 300, so 250 large disks would make 75,000 strip visits
        # against at most 900 from the small side
        rng = Rng(0x7A11)
        tiny = [(0.05 * rng.uniform(), float(k), 0.01) for k in range(300)]
        large = [(600.0 * rng.uniform() - 300.0, 300.0 * rng.uniform(), 100.0) for _ in range(250)]
        inst = disks(*tiny, *large)
        levels = checked_levels(inst.disks)
        assert [len(entries) for _, _, entries, _, _ in levels] == [300, 250]
        assert len(levels[0][3]) == 300
        assert not geometry._large_queries(*levels)
        assert_matches_all_pairs(inst)
        assert 0 < sum(map(len, instance_to_graph(inst).adj[:300]))


def domination_verdicts(inst, ids):
    """``dominated``, ``dominated(total=True)`` and ``connected`` on ``ids``,
    each asserted equal to its predicate on the full graph."""
    G = instance_to_graph(inst)
    verdicts = (geometry.dominated(inst, ids), geometry.dominated(inst, ids, total=True),
                geometry.connected(inst, ids))
    assert verdicts == (checks.is_dominating_set(G, ids), checks.is_total_dominating_set(G, ids),
                        is_connected(induced_subgraph(G, VertexSet.of(ids, G.n))[0])), ids
    return verdicts


def candidate_sets(inst, rng):
    """The greedy dominating set, it with a member dropped or a disk added,
    random subsets, no disks and all of them."""
    n = inst.n
    chosen = list(domination.dominating_set(instance_to_graph(inst)))
    outside = sorted(set(range(n)).difference(chosen))
    sets = [chosen, [], list(range(n))]
    sets += [chosen[:k] + chosen[k + 1:] for k in range(min(len(chosen), 3))]
    sets += [chosen + [v] for v in outside[:2]]
    for _ in range(3):
        order = list(range(n))
        rng.shuffle(order)
        sets.append(order[:rng.randrange(n + 1)])
    return sets


class TestDominationOnDisks:
    """``dominated`` answers from a cell index of the chosen disks and
    ``connected`` pairs only them; both equal the full graph's predicates."""

    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (2.0 ** 400, 0.0), (2.0 ** -400, 2.0 ** -350),
                                              (2.0 ** -400, 2.0 ** 100)],
                             ids=["plain", "2^400", "2^-400-near-ulp", "2^-400-past-2^53"])
    def test_random_draws_with_a_radius_16_disk(self, scale, shift):
        # x is shifted: near 2^-350 the centers round onto a few ulps per
        # radius, and at 2^100 cell indices pass 2^53 and every x rounds to
        # the shift, so the disks meet as intervals of y
        rng = Rng(0xD0)
        seen = set()
        for n, radius_high in ((3, None), (40, None), (120, None), (40, 2.0), (160, 2.0)):
            radius = 1.0 if radius_high is None else 0.5
            draw = random_instance(n, 2.2 * n ** 0.5, radius, derive_seed(0xD0, n), radius_high).disks
            if radius_high is not None:
                draw += ((0.5 * n ** 0.5, 0.5 * n ** 0.5, 16.0),)
            inst = GeometricInstance(tuple((shift + scale * x, scale * y, scale * r)
                                           for x, y, r in draw))
            for ids in candidate_sets(inst, rng):
                seen.update(enumerate(domination_verdicts(inst, ids)))
        assert seen == {(k, verdict) for k in range(3) for verdict in (True, False)}

    def test_empty_sets_and_tiny_instances(self):
        assert domination_verdicts(disks(), []) == (True, True, True)
        one = disks((0.0, 0.0, 1.0))
        assert domination_verdicts(one, []) == (False, False, True)
        assert domination_verdicts(one, [0]) == (True, False, True)

    def test_coincident_disks_dominate_each_other_totally(self):
        # three disks on one center and one tangent to them: a member needs
        # another member, its twin counting
        inst = disks(*[(1.0, 1.0, 1.0)] * 3, (3.0, 1.0, 1.0))
        assert domination_verdicts(inst, [0]) == (True, False, True)
        assert domination_verdicts(inst, [0, 1]) == (True, True, True)
        assert domination_verdicts(inst, [3]) == (True, False, True)
        assert domination_verdicts(inst, [2, 3]) == (True, True, True)
        assert domination_verdicts(disks(*[(1.0, 1.0, 1.0)] * 2, (5.0, 1.0, 1.0)), [0, 2]) == (
            True, False, False)

    def test_rounding_pair_across_a_cell_boundary(self):
        # 2 + 1e-20 apart, joined by the rounded test; -1e-20 and 2 fall in
        # the cells -1 and 0 of side 4 * (1 + 2^-20)
        inst = disks((-1e-20, 0.0, 1.0), (2.0, 0.0, 1.0))
        for ids in ([0], [1]):
            assert domination_verdicts(inst, ids) == (True, False, True)
        assert domination_verdicts(inst, [0, 1]) == (True, True, True)

    def test_a_query_wider_than_every_member_level_waits(self):
        # the radius-16 disk's only neighbor lies four cells of the members'
        # level from its own: it is found once the members are hashed at 16
        inst = disks((16.5, 0.0, 1.0), (0.0, 0.0, 16.0), (40.0, 0.0, 1.0), (41.5, 0.0, 0.5))
        side = 4.0 * geometry._MARGIN
        assert math.floor(16.5 / side) - math.floor(0.0 / side) == 4
        assert domination_verdicts(inst, [0, 2]) == (True, False, False)
        assert domination_verdicts(inst, [2]) == (False, False, True)
        assert domination_verdicts(inst, [0, 1, 2, 3]) == (True, True, False)
        # a radius-10^5 disk and a disk far above the members' row
        inst = disks(*[(float(x), 0.0, 1.0) for x in range(100)], (0.0, 5.0, 1e5), (0.0, 1e5 + 4.0, 1.0))
        assert domination_verdicts(inst, range(100)) == (False, False, True)
        assert domination_verdicts(inst, range(101)) == (True, True, True)

    def test_a_box_three_cells_wide_by_rounding(self):
        # r = R = 1: (x -+ w) / side straddles two cell boundaries after
        # rounding, so the query reads the box's cells, not a 2 x 2 block
        x = 2.0000019073486324
        side, w = 4.0 * geometry._MARGIN, 2.0 * geometry._MARGIN
        assert math.floor((x + w) / side) - math.floor((x - w) / side) == 2
        for dx in (-2.0, 2.0, 4.0):
            inst = disks((x, 0.0, 1.0), (x + dx, 0.0, 1.0), (x, 2.0, 1.0))
            domination_verdicts(inst, [1])
            domination_verdicts(inst, [0, 1])

    def test_wide_disks_over_a_sparse_member_level_read_few_cells(self, monkeypatch):
        # 300 radius-400 disks, each within 300 of one of 300 unit members
        # 600 apart: every query, at either radius, reads at most 2 x 2 cells
        # of each level, where a radius-400 disk's box holds about 40,000
        # cells of side 4 and the members' level has 300
        reads = [0]

        def counted(disks_, ids, radius):
            radius, side, get = cells(disks_, ids, radius)

            def read(key, default):
                reads[0] += 1
                return get(key, default)

            return radius, side, read

        cells = geometry._cells
        monkeypatch.setattr(geometry, "_cells", counted)
        rng = Rng(0x51DE)
        members = [(600.0 * x, 600.0 * y, 1.0) for x in range(20) for y in range(15)]
        wide = [(x + 200.0 * rng.uniform(), y + 200.0 * rng.uniform(), 400.0) for x, y, _ in members]
        inst = disks(*members, *wide)
        G = instance_to_graph(inst)
        for ids in (list(range(300)), list(range(1, 300))):
            reads[0] = 0
            assert geometry.dominated(inst, ids) is checks.is_dominating_set(G, ids) is (len(ids) == 300)
            assert 0 < reads[0] <= 4 * 2 * inst.n


class TestStructuredInstances:
    """Large instances whose structure fixes the edge set."""

    def test_tangent_chain(self):
        n = 10 ** 5
        G = instance_to_graph(disks(*[(2.0 * i - 1e5, 3.0, 1.0) for i in range(n)]))
        pairs = [(i, i + 1) for i in range(n - 1)]
        assert G.m == n - 1
        assert G.edges == tuple(pairs)
        again = build_graph(n, [(v, u) for u, v in reversed(pairs)] + pairs)
        assert G == again and hash(G) == hash(again)

    def test_square_ring_at_spacing_two_radii(self):
        side = 2500  # disks per side; at each corner the diagonal pair is 2 * sqrt(2) * r apart
        loop = ([(k, 0) for k in range(side)] + [(side, k) for k in range(side)]
                + [(side - k, side) for k in range(side)] + [(0, side - k) for k in range(side)])
        G = instance_to_graph(disks(*[(-5e5 + 0.5 * a, 7.0 + 0.5 * b, 0.25) for a, b in loop]))
        assert G.m == G.n == 4 * side
        assert all(len(nbrs) == 2 for nbrs in G.adj)

    def test_grid_at_spacing_two_radii(self):
        rows, cols = 80, 125
        G = instance_to_graph(disks(*[(-3.0 * c, 1e6 + 3.0 * r, 1.5)
                                      for r in range(rows) for c in range(cols)]))
        assert G.m == rows * (cols - 1) + cols * (rows - 1)
        assert G.max_degree() == 4

    def test_coincident_centers_give_a_clique(self):
        k = 60
        G = instance_to_graph(disks(*[(-1.5, 2.5, 1.0)] * k))
        assert G.m == k * (k - 1) // 2
        assert G.edges == tuple(combinations(range(k), 2))


class TestMagnitudeLimits:
    big = BIG
    tiny = TINY

    def test_tangent_at_the_largest_magnitudes(self):
        big = self.big
        assert edge_counts(disks((-big, 0, big), (big, 0, big))) == (1, 1)
        assert edge_counts(disks((-big, 0, big), (big, 2.0 ** 490, big))) == (0, 0)

    def test_tangent_at_the_smallest_radius(self):
        tiny = self.tiny
        assert edge_counts(disks((0, 0, tiny), (2 * tiny, 0, tiny))) == (1, 1)
        assert edge_counts(disks((0, 0, tiny), (2 * tiny, 2.0 ** -520, tiny))) == (0, 0)
        assert edge_counts(disks((0, 0, tiny), (3 * tiny, 0, tiny))) == (0, 0)

    def test_smallest_and_largest_together(self):
        big, tiny = self.big, self.tiny
        inst = disks((0, 0, tiny), (3 * tiny, 0, tiny), (-big, big, big), (big, -big, big), (big, big, 1.0))
        assert_matches_all_pairs(inst, min_levels=1)

    @pytest.mark.parametrize("triple", [
        (BIG, 0, 1), (-BIG, 0, 1), (0, BIG, 1), (0, -BIG, 1), (0, 0, TINY), (0, 0, BIG),
    ], ids=["x-max", "x-min", "y-max", "y-min", "smallest-radius", "largest-radius"])
    def test_at_the_limits(self, triple):
        inst = disks((0, 0, 1), triple)
        assert_matches_all_pairs(inst, min_levels=1)

    @pytest.mark.parametrize("triple, error", [
        pytest.param((2.0 ** 501, 0, 1), BadParameter, id="x"),
        pytest.param((0, -(2.0 ** 501), 1), BadParameter, id="y"),
        pytest.param((0, 0, 2.0 ** 501), BadParameter, id="large-radius"),
        pytest.param((0, 0, 2.0 ** -501), BadParameter, id="small-radius"),
        pytest.param((1e300, 0, 1e-10), BadParameter, id="cell-index"),
        pytest.param((up(BIG), 0, 1), BadParameter, id="x-past-max"),
        pytest.param((down(-BIG), 0, 1), BadParameter, id="x-past-min"),
        pytest.param((0, up(BIG), 1), BadParameter, id="y-past-max"),
        pytest.param((0, down(-BIG), 1), BadParameter, id="y-past-min"),
        pytest.param((0, 0, down(TINY)), BadParameter, id="radius-below-smallest"),
        pytest.param((0, 0, up(BIG)), BadParameter, id="radius-above-largest"),
        pytest.param((0, 0, 0.0), NonPositiveRadius, id="radius-zero"),
        pytest.param((0, 0, -0.0), NonPositiveRadius, id="radius-negative-zero"),
        pytest.param((0, 0, -1.0), NonPositiveRadius, id="radius-negative"),
        pytest.param((math.nan, 0, 1), BadParameter, id="x-nan"),
        pytest.param((math.inf, 0, 1), BadParameter, id="x-inf"),
        pytest.param((-math.inf, 0, 1), BadParameter, id="x--inf"),
        pytest.param((0, math.nan, 1), BadParameter, id="y-nan"),
        pytest.param((0, math.inf, 1), BadParameter, id="y-inf"),
        pytest.param((0, -math.inf, 1), BadParameter, id="y--inf"),
        pytest.param((0, 0, math.nan), BadParameter, id="r-nan"),
        pytest.param((0, 0, math.inf), BadParameter, id="r-inf"),
        pytest.param((0, 0, -math.inf), NonPositiveRadius, id="r--inf"),
    ])
    def test_beyond_the_limits(self, triple, error):
        with pytest.raises(error) as info:
            instance_to_graph(disks((0, 0, 1), triple))
        assert type(info.value) is error

    def test_generator_limits(self):
        random_instance(3, self.big, 1.0, 0)
        random_instance(3, 4.0, self.tiny, 0, radius_high=self.big)
        for box, radius, radius_high in (
            (2.0 ** 501, 1.0, None), (4.0, 2.0 ** -501, None), (4.0, 2.0 ** 501, None),
            (4.0, 1.0, 2.0 ** 501),
        ):
            with pytest.raises(BadParameter):
                random_instance(3, box, radius, 0, radius_high)


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

    @pytest.mark.parametrize("radius, radius_high", [(1.0, None), (0.5, 2.0), (1.5, 1.5)])
    def test_matches_per_draw_reference(self, radius, radius_high):
        # with varying radii, n = 32 draws 96 values, the largest memoized
        # batch, and n = 33 draws past it
        for seed, n in enumerate([*range(1, 60, 3), 32, 33]):
            expected = per_draw_disks(n, 7.0, radius, seed, radius_high)
            assert random_instance(n, 7.0, radius, seed, radius_high).disks == expected

    @pytest.mark.parametrize("count", [-1, 0, 1, 2, 3, 7, 64, 1000])
    def test_uniforms_are_successive_uniform_draws(self, count):
        # 2^64 - 1 and 2^64 - 1 - increment wrap the state in the first lanes
        for seed in (0x5EED, 0, MASK64, MASK64 - _INCREMENT):
            batch, single = Rng(seed), Rng(seed)
            values = batch.uniforms(count)
            assert values == scalar_uniforms(seed, count)
            assert values == [single.uniform() for _ in range(count)]
            assert batch._state == single._state
            assert batch.next_u64() == single.next_u64()

    def test_uniforms_with_memoized_lane_constants(self):
        # each count twice: the first call builds its constants, the second
        # reuses them; 97 lies past the memo and builds them on every call
        _lane_memo.clear()
        for count in [*range(1, 101), 95, 96, 97]:
            for _ in range(2):
                seed = derive_seed(0xC0DE, count)
                batch, single = Rng(seed), Rng(seed)
                assert batch.uniforms(count) == scalar_uniforms(seed, count)
                for _ in range(count):
                    single.next_u64()
                assert batch._state == single._state
        assert set(_lane_memo) <= set(range(1, 97))

    def test_tuned_box_is_stable_across_calls(self):
        for args in ((30, 1.0, None, 4.0), (17, 0.5, 2.0, 6.0), (1, 1.0, None, 4.0)):
            first = tuned_box(*args)
            assert tuned_box(*args) == first == tuned_box.__wrapped__(*args)

    def test_connected_sampler(self):
        inst, G = random_connected_instance(12, 6.0, 1.0, 31)
        assert G == instance_to_graph(inst)
        assert is_connected(G)

    def test_connected_sampler_gives_up(self, monkeypatch):
        # five unit disks in a box of side 1000 are almost never connected
        monkeypatch.setattr(geometry, "_CONNECTED_TRIES", 2)
        message = ("^no connected instance found in 2 attempts; the largest component"
                   " of the last draw holds 1 of its 5 disks$")
        with pytest.raises(BadParameter, match=message):
            random_connected_instance(5, 1000.0, 1.0, 1)

    @pytest.mark.parametrize("n, attempts", [(100, 3), (101, 3), (125, 2), (126, 2), (300, 1)])
    def test_connected_sampler_stops_at_its_disk_budget(self, monkeypatch, n, attempts):
        # a budget of 250 disks allows ceil(250 / n) draws of n disks
        monkeypatch.setattr(geometry, "_CONNECTED_DISKS", 250)
        draws = []
        draw = geometry.random_instance
        monkeypatch.setattr(geometry, "random_instance", lambda *args: draws.append(args) or draw(*args))
        with pytest.raises(BadParameter, match=f"^no connected instance found in {attempts} attempts;"):
            random_connected_instance(n, 1000.0, 1.0, 1)
        assert len(draws) == attempts

    def test_connected_sampler_budget_keeps_every_attempt_up_to_2000_disks(self, monkeypatch):
        draws = []
        one_disk_apart = geometry.GeometricInstance(((0.0, 0.0, 1.0), (9.0, 0.0, 1.0)))
        monkeypatch.setattr(geometry, "random_instance", lambda *args: draws.append(args) or one_disk_apart)
        for n, attempts in ((2000, 10_000), (2001, 9996), (10_000, 2000), (100_000, 200)):
            draws.clear()
            with pytest.raises(BadParameter, match=f"^no connected instance found in {attempts} attempts;"):
                random_connected_instance(n, 1000.0, 1.0, 1)
            assert len(draws) == attempts

    def test_connected_sampler_accepts_the_first_connected_attempt(self):
        # 32 disks are the last the reach search tests; 33 and 40 pair every draw
        for radius, radius_high in ((1.0, None), (0.5, 2.0)):
            for n in (1, 2, 8, 24, 32, 33, 40):
                box = tuned_box(n, radius, radius_high, 4.0)
                for seed in range(20):
                    assert random_connected_instance(n, box, radius, seed, radius_high) == (
                        reference_connected_instance(n, box, radius, seed, radius_high))

    @pytest.mark.parametrize("n", [24, 40])
    def test_connected_sampler_draws_once_per_attempt(self, monkeypatch, n):
        calls = []
        draw = geometry.random_instance

        def counted(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(geometry, "random_instance", counted)
        box = tuned_box(n, 1.0, None, 4.0)
        for seed in range(10):
            random_connected_instance(n, box, 1.0, seed)
        sampled = len(calls)
        for seed in range(10):
            reference_connected_instance(n, box, 1.0, seed)
        assert sampled == len(calls) - sampled > 10

    def test_reach_search_on_structured_draws(self):
        # the float test joins (-1e-20, 0, 1) and (2, 0, 1), 2 + 1e-20 apart,
        # so the search must too
        cases = [((0.0, 0.0, 1.0),), ((-1e-20, 0.0, 1.0), (2.0, 0.0, 1.0))]
        for k in range(-4, 5):
            r = 2.0 ** k
            chain = [(2 * r * i, 3 * r, r) for i in range(9)]
            cases.append(chain)  # exactly tangent
            cases.append(chain[:4] + [(up(x), y, r) for x, y, r in chain[4:]])  # link 3-4 broken
        cases.append([(1.5, -2.5, 1.0)] * 5)
        cases.append([(1.5, -2.5, 1.0)] * 3 + [(9.0, 9.0, 1.0)] * 3)
        # neighbors on the ring are 1.88 apart, the next ones 3.7
        ring = [(6 * math.cos(a * math.pi / 10), 6 * math.sin(a * math.pi / 10), 1.0)
                for a in range(20)]
        cases.append(ring)
        cases.append(ring[:7] + [(9 * ring[7][0], 9 * ring[7][1], 1.0)] + ring[8:])
        outcomes = []
        for triples in cases:
            connected = is_connected(instance_to_graph(disks(*triples)))
            assert _reaches_every_disk(tuple(triples)) == connected, triples
            outcomes.append(connected)
        assert outcomes == [True, True] + [True, False] * 9 + [True, False, True, False]


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
        assert len(G.adj[0]) == 6
        clique = sector_clique(inst, G)
        assert len(clique) == 2  # one spoke per sector, lowest sector wins
        assert checks.is_clique(G, clique)
        assert len(clique) >= -(-G.max_degree() // 6) + 1

    def test_edgeless(self):
        inst = disks((0, 0, 1), (10, 0, 1), (20, 0, 1))
        G = instance_to_graph(inst)
        assert len(sector_clique(inst, G)) == 1

    def test_empty(self):
        clique = sector_clique(GeometricInstance(()), build_graph(0, []))
        assert clique.members == () and clique.host_n == 0

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
                assert not has_independent_subset(G, G.adj[v], 6)

    def test_leftmost_vertex_neighborhood_independence(self):
        for index in range(80):
            inst = random_instance(16, 4.0, 1.0, derive_seed(6, index))
            G = instance_to_graph(inst)
            first = sweep_order(inst)[0]
            assert not has_independent_subset(G, G.adj[first], 4)


class TestPolygonBound:
    def test_reference_values(self):
        assert polygon_independence_bound(3) == 22
        assert polygon_independence_bound(4) == 15
        assert polygon_independence_bound(6) == 11

    def test_rejects_degenerate_polygons(self):
        with pytest.raises(BadParameter):
            polygon_independence_bound(2)

    def test_bound_shrinks_toward_disks(self):
        values = [polygon_independence_bound(p) for p in range(3, 65)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] >= math.ceil(18 * math.pi / (2 * math.pi) - 1e-6)

    @pytest.mark.parametrize("sides", [10**5, 3 * 10**5, 10**6, 10**9, 2**53])
    def test_large_side_counts_stay_above_nine(self, sides):
        # sides * sin(2*pi/sides) < 2*pi, so the ratio exceeds 9 for every count
        assert polygon_independence_bound(sides) == 10

    @pytest.mark.parametrize("sides", [2**53 + 1, 10**400], ids=["2^53+1", "10^400"])
    def test_rejects_side_counts_beyond_float_precision(self, sides):
        with pytest.raises(BadParameter):
            polygon_independence_bound(sides)


class TestRng:
    @pytest.mark.parametrize("seed, words", [
        (0, (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC)),
        (1234567, (6457827717110365317, 3203168211198807973)),
    ])
    def test_published_splitmix64_vectors(self, seed, words):
        rng = Rng(seed)
        assert tuple(rng.next_u64() for _ in words) == words
        assert Rng(seed).uniforms(len(words)) == [(v >> 11) * 2.0 ** -53 for v in words]

    def test_uniforms_pinned(self):
        # bit patterns of the first four draws; a lane decoded in the wrong
        # byte order gives other floats
        assert Rng(0x5EED).uniforms(4) == [
            0.038848734697185194, 0.3328011087394298, 0.3646818563781382, 0.44071360968258344]

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

    def test_randrange_rejects_an_empty_range(self):
        with pytest.raises(ValueError, match="^bound must be positive$"):
            Rng(1).randrange(0)

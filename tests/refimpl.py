"""Naive exhaustive references the library's solvers are audited against.

The brute-force ones enumerate subsets or color assignments directly: slow
but obviously correct on the small graphs the tests feed them.  The others
are definitions or earlier, plainer forms of optimized library routines,
which must return exactly what those routines return.
"""

import heapq
import math
from itertools import combinations, product

from diskapprox import checks
from diskapprox.covering import ArrivalSequence, color_online_firstfit
from diskapprox.errors import BadParameter, IdOutOfRange, MinDegreeExceeded
from diskapprox.geometry import instance_to_graph, random_instance
from diskapprox.graphs import DegeneracyResult, Graph, VertexSet, build_graph, induced_subgraph
from diskapprox.matching import BipartiteGraph, nt_decompose
from diskapprox.rng import Rng


def all_subsets(n):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def brute_mis(G: Graph) -> int:
    return max(len(s) for s in all_subsets(G.n) if checks.is_independent_set(G, s))


def uncut_mis_search(G: Graph) -> tuple[int, int]:
    """The library's MIS branch and bound without its clique-cover cut:
    the same branching order, so the same (size, bitmask) it must return."""
    masks = [sum(1 << u for u in nbrs) for nbrs in G.adj]
    best_size = -1
    best_mask = 0

    def search(alive: int, chosen: int, count: int) -> None:
        nonlocal best_size, best_mask
        if count + alive.bit_count() <= best_size:
            return
        if alive == 0:
            best_size, best_mask = count, chosen
            return
        # branch on the highest-degree survivor (lowest id on ties)
        pick = -1
        pick_degree = -1
        scan = alive
        while scan:
            low = scan & -scan
            v = low.bit_length() - 1
            scan ^= low
            degree = (masks[v] & alive).bit_count()
            if degree > pick_degree:
                pick_degree = degree
                pick = v
        if pick_degree <= 1:
            # survivors form isolated vertices and disjoint edges: greedy is exact
            take_mask, take_count, rest = chosen, count, alive
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                take_mask |= low
                take_count += 1
                rest &= ~(masks[v] | low)
            if take_count > best_size:
                best_size, best_mask = take_count, take_mask
            return
        bit = 1 << pick
        search(alive & ~(masks[pick] | bit), chosen | bit, count + 1)
        search(alive & ~bit, chosen, count)

    search((1 << G.n) - 1, 0, 0)
    return best_size, best_mask


def brute_vc(G: Graph) -> int:
    return min(len(s) for s in all_subsets(G.n) if checks.is_vertex_cover(G, s))


def brute_clique(G: Graph) -> int:
    return max(len(s) for s in all_subsets(G.n) if checks.is_clique(G, s))


def brute_chromatic(G: Graph) -> int:
    if G.n == 0:
        return 0
    for k in range(1, G.n + 1):
        # vertex 0 may always take color 1, which prunes color permutations
        for rest in product(range(1, k + 1), repeat=G.n - 1):
            assignment = (1,) + rest
            if checks.is_proper_coloring(G, assignment):
                return k
    raise AssertionError("n colors always suffice")


def first_dominating_set(G: Graph, variant: str):
    """The first subset, by size and then lexicographically, that the
    variant's validator accepts, or None if it accepts none."""
    validators = {
        "plain": checks.is_dominating_set,
        "independent": checks.is_independent_dominating_set,
        "total": checks.is_total_dominating_set,
        "connected": checks.is_connected_dominating_set,
    }
    validator = validators[variant]
    # a necessary condition first: the members' neighborhoods (open ones for
    # total domination) cover every vertex
    reach = [sum(1 << u for u in G.adj[v]) for v in range(G.n)]
    if variant != "total":
        reach = [mask | (1 << v) for v, mask in enumerate(reach)]
    full = (1 << G.n) - 1
    for size in range(G.n + 1):
        for subset in combinations(range(G.n), size):
            covered = 0
            for v in subset:
                covered |= reach[v]
            if covered == full and validator(G, subset):
                return subset
    return None


def per_draw_disks(n, box, radius, seed, radius_high=None):
    """The disks of ``random_instance``, drawn one ``uniform()`` at a time:
    x and y of each center in turn, then each radius."""
    rng = Rng(seed)
    centers = [(box * rng.uniform(), box * rng.uniform()) for _ in range(n)]
    if radius_high is None or radius_high == radius:
        radii = [radius] * n
    else:
        radii = [radius + (radius_high - radius) * rng.uniform() for _ in range(n)]
    return tuple((x, y, r) for (x, y), r in zip(centers, radii))


def brute_domination(G: Graph, variant: str):
    """Minimum size of the requested domination variant, or None if none exists."""
    first = first_dominating_set(G, variant)
    return None if first is None else len(first)


def brute_degeneracy(G: Graph) -> int:
    best = 0
    for subset in all_subsets(G.n):
        if not subset:
            continue
        inside = set(subset)
        lowest = min(len(inside.intersection(G.adj[v])) for v in subset)
        best = max(best, lowest)
    return best


def heap_degeneracy_ordering(G: Graph, degree_cap=None) -> DegeneracyResult:
    """The minimum-degree peel with one heap of (degree, id) pairs: pop the
    lowest pair, skip it if stale, push a fresh pair per decrement."""
    degree = [len(nbrs) for nbrs in G.adj]
    heap = [(degree[v], v) for v in range(G.n)]
    heapq.heapify(heap)
    removed = [False] * G.n
    order: list[int] = []
    degeneracy = 0
    while heap:
        current, v = heapq.heappop(heap)
        if removed[v] or current != degree[v]:
            continue  # stale entry
        if degree_cap is not None and current > degree_cap:
            alive = [u for u in range(G.n) if not removed[u]]
            raise MinDegreeExceeded(
                f"residual subgraph has minimum degree {current} > {degree_cap}",
                VertexSet.of(alive, G.n),
            )
        removed[v] = True
        order.append(v)
        if current > degeneracy:
            degeneracy = current
        for u in G.adj[v]:
            if not removed[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return DegeneracyResult(tuple(order), degeneracy)


def edges_vertex_cover(G: Graph, color_bound: int = 4) -> VertexSet:
    """The triangle-stripping cover walking a copy of ``G.edges``, with its
    core colored first-fit (presented as an arrival order) along the reverse
    of ``heap_degeneracy_ordering``."""
    alive = [True] * G.n
    working = [set(nbrs) for nbrs in G.adj]
    taken: list[int] = []
    for u, v in G.edges:
        common = working[u] & working[v]
        if not common:
            continue
        for w in (u, v, min(common)):
            alive[w] = False
            for x in working[w]:
                working[x].discard(w)
            working[w] = set()
            taken.append(w)

    remainder = VertexSet.of([v for v in range(G.n) if alive[v]], G.n)
    core, core_ids = induced_subgraph(G, remainder)
    decomposition = nt_decompose(core)
    cover = taken + [core_ids[v] for v in decomposition.forced]

    if len(decomposition.half) > 0:
        half_graph, half_ids = induced_subgraph(core, decomposition.half)
        try:
            order = heap_degeneracy_ordering(half_graph, color_bound - 1).order
        except MinDegreeExceeded as exc:
            original = [core_ids[half_ids[w]] for w in exc.witness]
            raise MinDegreeExceeded(str(exc), VertexSet.of(original, G.n)) from None
        coloring = color_online_firstfit(half_graph, ArrivalSequence.of(reversed(order)))
        counts = [0] * (coloring.num_colors + 1)
        for c in coloring.colors:
            counts[c] += 1
        spared = max(range(1, coloring.num_colors + 1), key=lambda c: (counts[c], -c))
        cover.extend(
            core_ids[half_ids[v]]
            for v, c in enumerate(coloring.colors)
            if c != spared
        )
    return VertexSet.of(cover, G.n)


def find_triangle(G: Graph):
    """First triangle in lowest-edge order (lowest common neighbor), or None."""
    for u, v in G.edges:
        common = set(G.adj[u]) & set(G.adj[v])
        if common:
            return tuple(sorted((u, v, min(common))))
    return None


def build_bipartite(left_n: int, right_n: int, edges) -> BipartiteGraph:
    """A ``BipartiteGraph`` from (left, right) pairs, range-checked, repeats dropped."""
    if left_n < 0 or right_n < 0:
        raise BadParameter("side sizes must be nonnegative")
    neighbors = [set() for _ in range(left_n)]
    for l, r in edges:
        if not (0 <= l < left_n) or not (0 <= r < right_n):
            raise IdOutOfRange(f"edge ({l}, {r}) outside {left_n}x{right_n}")
        neighbors[l].add(r)
    return BipartiteGraph(left_n, right_n, tuple(tuple(sorted(nbrs)) for nbrs in neighbors))


def bipartite_edges(B: BipartiteGraph) -> tuple[tuple[int, int], ...]:
    """Sorted (left, right) pairs of ``B``."""
    return tuple((l, r) for l, nbrs in enumerate(B.adj) for r in nbrs)


def minimum_vertex_covers(G: Graph) -> list[frozenset[int]]:
    best = brute_vc(G)
    return [
        frozenset(s)
        for s in combinations(range(G.n), best)
        if checks.is_vertex_cover(G, s)
    ]


def lp_half_integral_vc(G: Graph) -> float:
    """Optimum of the vertex-cover LP over x in {0, 1/2, 1}^n."""
    best = float(G.n)
    edges = G.edges
    for levels in product((0, 1, 2), repeat=G.n):
        if all(levels[u] + levels[v] >= 2 for u, v in edges):
            best = min(best, sum(levels) / 2.0)
    return best


def all_pairs(inst):
    """The O(n^2) definition of the intersection graph's edge set."""
    expected = set()
    for i in range(inst.n):
        xi, yi, ri = inst.disks[i]
        for j in range(i + 1, inst.n):
            xj, yj, rj = inst.disks[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ri + rj) ** 2:
                expected.add((i, j))
    return expected


def sweep_mis(inst) -> tuple[int, ...]:
    """The unit-disk sweep from its definition: visit the disks by x, then y,
    then id; take each one no earlier pick intersects, deleting its neighbors."""
    neighbors = {v: set() for v in range(inst.n)}
    for i, j in all_pairs(inst):
        neighbors[i].add(j)
        neighbors[j].add(i)
    alive = set(range(inst.n))
    chosen = []
    for v in sorted(range(inst.n), key=lambda v: (inst.disks[v][0], inst.disks[v][1], v)):
        if v in alive:
            chosen.append(v)
            alive -= neighbors[v] | {v}
    return tuple(sorted(chosen))


def all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def random_graph(n: int, probability: float, rng: Rng) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.uniform() < probability
    ]
    return build_graph(n, edges)


def disk_graph(n: int, radius: float, radius_high, seed: int) -> Graph:
    """The graph of ``random_instance`` at mean degree about 6 (box sized
    for the mean radius)."""
    mean_radius = radius if radius_high is None else (radius + radius_high) / 2
    box = math.sqrt(n * math.pi * (2 * mean_radius) ** 2 / 6.0)
    return instance_to_graph(random_instance(n, box, radius, seed, radius_high))


def complement(G: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(G.n)
        for v in range(u + 1, G.n)
        if not G.has_edge(u, v)
    ]
    return build_graph(G.n, edges)

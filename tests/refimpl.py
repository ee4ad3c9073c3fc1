"""Naive exhaustive references the library's solvers are audited against,
and the test shapes and runners the test modules share.

The brute-force ones enumerate subsets or color assignments directly: slow
but obviously correct on the small graphs the tests feed them.  The others
are definitions or earlier, plainer forms of optimized library routines,
which must return exactly what those routines return.  Each shared graph
shape (``c5``, ``complete``, ``path``, ``cycle``, ``star``, ``grid``), the
seeded graph generators and the captured CLI runner :func:`run_cli` are
defined here once.
"""

import heapq
import io
import math
from bisect import bisect_right
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product

from diskapprox import checks, cli, geometry
from diskapprox.bench import tuned_box
from diskapprox.covering import ArrivalSequence, color_online_firstfit
from diskapprox.errors import BadParameter, IdOutOfRange, MinDegreeExceeded, NoEligibleVertex
from diskapprox.geometry import instance_to_graph, random_connected_instance, random_instance
from diskapprox.graphs import (
    Graph,
    VertexSet,
    bfs_levels,
    build_graph,
    induced_subgraph,
    is_connected,
)
from diskapprox.matching import nt_decompose
from diskapprox.rng import MASK64, Rng, derive_seed


def all_subsets(n):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def brute_mis(G: Graph) -> int:
    return max(len(s) for s in all_subsets(G.n) if checks.is_independent_set(G, s))


def scan_first_mis_search(G: Graph, cover_cut: bool = True) -> tuple[int, int, int]:
    """The library's MIS branch and bound with its clique-cover cut after
    the degree scan, as it ran before the cut moved ahead of it: returns
    (size, bitmask, search nodes).  The library must match all three.
    Without ``cover_cut`` it is the search with no cover cut at all: the
    same branching order, so the same (size, bitmask)."""
    masks = [sum(1 << u for u in nbrs) for nbrs in G.adj]
    best_size = -1
    best_mask = 0
    nodes = 0

    def search(alive: int, chosen: int, count: int) -> None:
        nonlocal best_size, best_mask, nodes
        nodes += 1
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
        if cover_cut:
            room = best_size - count
            rest = alive
            while rest and room >= 0:
                low = rest & -rest
                rest ^= low
                grow = rest & masks[low.bit_length() - 1]
                while grow:
                    low = grow & -grow
                    rest ^= low
                    grow &= masks[low.bit_length() - 1]
                room -= 1
            if room >= 0:
                return
        bit = 1 << pick
        search(alive & ~(masks[pick] | bit), chosen | bit, count + 1)
        search(alive & ~bit, chosen, count)

    search((1 << G.n) - 1, 0, 0)
    return best_size, best_mask, nodes


def recount_k_coloring(G: Graph, k: int, seed_clique, budget):
    """The library's k-coloring search as it ran when each node recounted
    every uncolored vertex's saturation: the same picks, so the same
    coloring (or None) and the same ``budget.nodes``."""
    colors = [0] * G.n
    for index, v in enumerate(seed_clique):
        colors[v] = index + 1

    def backtrack(colored: int, used: int) -> bool:
        budget.check()
        if colored == G.n:
            return True
        # most saturated uncolored vertex; ties by degree, then lowest id
        pick = -1
        pick_key = (-1, -1, 0)
        for v in range(G.n):
            if colors[v]:
                continue
            saturation = len({colors[u] for u in G.adj[v] if colors[u]})
            key = (saturation, len(G.adj[v]), -v)
            if key > pick_key:
                pick_key = key
                pick = v
        forbidden = {colors[u] for u in G.adj[pick]}
        for c in range(1, min(k, used + 1) + 1):
            if c in forbidden:
                continue
            colors[pick] = c
            if backtrack(colored + 1, max(used, c)):
                return True
            colors[pick] = 0
        return False

    if backtrack(len(seed_clique), len(seed_clique)):
        return colors
    return None


def eccentricity_connected_bound(G: Graph) -> int:
    """The library's connected-domination lower bound as it was before the
    Steiner term: the largest of the closed-neighborhood packing, ceil(n /
    (Delta + 1)) and ecc(x) - 1 for x the highest id on the last BFS level
    from 0.  The Steiner term's bound is never below it."""
    reach = [sum(1 << u for u in G.adj[v]) | (1 << v) for v in range(G.n)]
    sizes = [r.bit_count() for r in reach]
    packed = 0
    packing = 0
    for v in sorted(range(G.n), key=lambda v: (sizes[v], v)):
        if not reach[v] & packed:
            packed |= reach[v]
            packing += 1
    far = bfs_levels(G, 0)[0][-1][-1]
    return max(packing, -(-G.n // max(sizes)), len(bfs_levels(G, far)[0]) - 2)


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


def scalar_uniforms(seed: int, count: int) -> list[float]:
    """``Rng(seed).uniforms(count)`` one state at a time: walk the state by
    the splitmix64 increment, hash it with the finalizer, keep the top 53
    bits as a double in [0, 1)."""
    state = seed & MASK64
    values = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        values.append(((z ^ (z >> 31)) >> 11) * 2.0 ** -53)
    return values


def reference_connected_instance(n, box, radius, seed, radius_high=None):
    """``random_connected_instance`` as a plain loop: draw attempt k from
    derive_seed(seed, k), pair it, and return the first whose graph is
    connected, with that graph.  It draws through ``geometry.random_instance``
    so a test can count its attempts."""
    for attempt in range(10_000):
        inst = geometry.random_instance(n, box, radius, derive_seed(seed, attempt), radius_high)
        G = instance_to_graph(inst)
        if is_connected(G):
            return inst, G
    raise AssertionError("no connected instance found")


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


def heap_degeneracy_ordering(G: Graph, degree_cap=None) -> tuple[tuple[int, ...], int]:
    """The minimum-degree peel with one heap of (degree, id) pairs: pop the
    lowest pair, skip it if stale, push a fresh pair per decrement.  Returns
    ``(order, degeneracy)``."""
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
    return tuple(order), degeneracy


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
            order, _ = heap_degeneracy_ordering(half_graph, color_bound - 1)
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


def build_bipartite(left_n: int, right_n: int, edges) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A bipartite graph as ``(adjacency, right_n)``, the left adjacency the
    matching code takes, from (left, right) pairs, range-checked, repeats
    dropped."""
    if left_n < 0 or right_n < 0:
        raise BadParameter("side sizes must be nonnegative")
    neighbors = [set() for _ in range(left_n)]
    for l, r in edges:
        if not (0 <= l < left_n) or not (0 <= r < right_n):
            raise IdOutOfRange(f"edge ({l}, {r}) outside {left_n}x{right_n}")
        neighbors[l].add(r)
    return tuple(tuple(sorted(nbrs)) for nbrs in neighbors), right_n


def bipartite_edges(adjacency) -> tuple[tuple[int, int], ...]:
    """Sorted (left, right) pairs of a left adjacency."""
    return tuple((l, r) for l, nbrs in enumerate(adjacency) for r in nbrs)


def reference_matching(adjacency, right_n: int) -> tuple[tuple[int, int], ...]:
    """Maximum matching of a left adjacency, as sorted (left, right) pairs:
    one breadth-first search for an augmenting path from each left vertex in
    turn, O(VE), with no layering."""
    match_left = [-1] * len(adjacency)
    match_right = [-1] * right_n
    for root in range(len(adjacency)):
        reached_from: dict[int, int] = {}  # right vertex -> the left it was reached from
        queue = deque([root])
        while queue:
            l = queue.popleft()
            for r in adjacency[l]:
                if r in reached_from:
                    continue
                reached_from[r] = l
                if match_right[r] == -1:
                    while r != -1:  # flip the path back to the root
                        l = reached_from[r]
                        previous = match_left[l]
                        match_left[l], match_right[r] = r, l
                        r = previous
                    queue.clear()
                    break
                queue.append(match_right[r])
    return tuple((l, r) for l, r in enumerate(match_left) if r != -1)


def konig_cover(adjacency, matching) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Konig's minimum vertex cover from a maximum matching: the left
    vertices that no alternating path from an unmatched left vertex reaches,
    plus the right vertices such paths reach."""
    match_left = dict(matching)
    match_right = {r: l for l, r in matching}
    reached_left = {l for l in range(len(adjacency)) if l not in match_left}
    reached_right = set()
    queue = deque(reached_left)
    while queue:
        l = queue.popleft()
        for r in adjacency[l]:
            if r != match_left.get(l) and r not in reached_right:
                reached_right.add(r)
                partner = match_right.get(r)
                if partner is not None and partner not in reached_left:
                    reached_left.add(partner)
                    queue.append(partner)
    return (
        tuple(l for l in range(len(adjacency)) if l not in reached_left),
        tuple(sorted(reached_right)),
    )


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


def radius_levels(disks) -> list[tuple[float, list[int]]]:
    """Disk ids split into levels of increasing radius, each with its largest reach.

    The level cut as it stood before it moved into ``geometry._levels``:
    each level takes the remaining disks of radius at most twice their lower
    median, and its largest reach is twice its largest radius.
    """
    n = len(disks)
    radii = [disk[2] for disk in disks]
    order = sorted(range(n), key=radii.__getitem__)
    radii = [radii[i] for i in order]
    levels = []
    start = 0
    while start < n:
        cutoff = 2.0 * radii[start + (n - start - 1) // 2]
        end = bisect_right(radii, cutoff, start)
        levels.append((2.0 * radii[end - 1], order[start:end]))
        start = end
    return levels


def checked_levels(disks) -> list[tuple]:
    """``geometry._levels(disks)``, asserted to cut the levels of :func:`radius_levels`.

    Each level must hold the reference level's ids in the same order, have
    its largest radius and, bit for bit, the strip height
    ``2 * r_max * _MARGIN``.
    """
    levels = geometry._levels(disks)
    reference = radius_levels(disks)
    assert [[i for _, _, i, _ in entries] for _, _, entries, _, _ in levels] == [ids for _, ids in reference]
    for (radius, height, entries, _, _), (reach, _) in zip(levels, reference):
        r_max = max(r for _, _, _, r in entries)
        assert radius == r_max == 0.5 * reach
        assert height == 2 * r_max * geometry._MARGIN
    return levels


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


def has_independent_subset(G: Graph, candidates, size: int) -> bool:
    """Is there a set of ``size`` pairwise non-adjacent vertices among
    ``candidates``?  Plain backtracking, cut only when too few candidates
    remain: exponential in ``size`` on a neighborhood of near-cliques."""
    pool = sorted(candidates)

    def extend(start: int, chosen: int, blocked: frozenset) -> bool:
        for idx in range(start, len(pool)):
            if chosen + (len(pool) - idx) < size:
                return False
            v = pool[idx]
            if v in blocked:
                continue
            if chosen + 1 == size:
                return True
            if extend(idx + 1, chosen + 1, blocked | frozenset(G.adj[v])):
                return True
        return False

    return extend(0, 0, frozenset())


def greedy_cover_exceeds(adj, pool, limit: int) -> bool:
    """Does the greedy clique cover of ``pool`` (ascending ids) need more
    than ``limit`` cliques?  The set-based form of ``graphs._cover_exceeds``
    that the eligibility test ran before the cover moved to bitmasks: each
    clique starts at the lowest uncovered vertex and grows by the lowest
    uncovered one adjacent to all its members.  It counts every clique, so
    any ``limit < 0`` answers True."""
    uncovered = set(pool)
    cliques = 0
    for index, v in enumerate(pool):
        if v not in uncovered:
            continue
        cliques += 1
        uncovered.discard(v)
        common = uncovered.intersection(adj[v])
        for u in pool[index + 1:]:
            if not common:
                break
            if u in common:
                uncovered.discard(u)
                common.intersection_update(adj[u])
    return cliques > limit


def rescan_independent_set_graph(G: Graph, bound: int = 3) -> VertexSet:
    """``independent_set_graph`` as a re-scan: before every pick, test the
    survivors in id order with :func:`has_independent_subset` and take the
    first eligible one."""
    if bound < 1:
        raise BadParameter("bound must be at least 1")
    alive: set[int] = set(range(G.n))
    chosen: list[int] = []
    while alive:
        pick = None
        for v in sorted(alive):
            neighborhood = [u for u in G.adj[v] if u in alive]
            if len(neighborhood) <= bound or not has_independent_subset(
                G, neighborhood, bound + 1
            ):
                pick = v
                break
        if pick is None:
            raise NoEligibleVertex(
                f"no vertex has neighborhood independence number <= {bound}",
                VertexSet.of(alive, G.n),
            )
        chosen.append(pick)
        alive.discard(pick)
        alive.difference_update(G.adj[pick])
    return VertexSet.of(chosen, G.n)


C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def c5() -> Graph:
    return build_graph(5, C5_EDGES)


def complete(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n: int) -> Graph:
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(leaves: int) -> Graph:
    """K_{1,leaves} with the center at id 0."""
    return build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertex r * cols + c at row r, column c."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, edges)


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


def union_find_components(G: Graph) -> tuple[tuple[int, ...], ...]:
    """Components by union-find over the edge list, in the format of
    ``graphs.components``: sorted tuples ordered by smallest member."""
    root = list(range(G.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in G.edges:
        root[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(G.n):  # ascending, so each group is sorted and groups go by smallest member
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(group) for group in groups.values())


def disk_graph(n: int, radius: float, radius_high, seed: int, degree: float = 6.0) -> Graph:
    """The graph of ``random_instance`` at mean degree about ``degree`` (box
    sized for the mean radius)."""
    mean_radius = radius if radius_high is None else (radius + radius_high) / 2
    box = math.sqrt(n * math.pi * (2 * mean_radius) ** 2 / degree)
    return instance_to_graph(random_instance(n, box, radius, seed, radius_high))


def connected_disk_graphs(count: int, n_low: int, n_high: int, seed: int, degrees):
    """The graphs of ``count`` draws of ``random_connected_instance``, radii
    in [0.5, 2] at even indices and unit at odd ones.  Draw ``index`` has
    ``n_low + index % (n_high - n_low + 1)`` disks, seed
    ``derive_seed(seed, index)`` and a box tuned to mean degree
    ``degrees[index % len(degrees)]``."""
    for index in range(count):
        n = n_low + index % (n_high - n_low + 1)
        radius, radius_high = (1.0, None) if index % 2 else (0.5, 2.0)
        box = tuned_box(n, radius, radius_high, degrees[index % len(degrees)])
        yield random_connected_instance(n, box, radius, derive_seed(seed, index), radius_high)[1]


def run_cli(argv) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def complement(G: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(G.n)
        for v in range(u + 1, G.n)
        if not G.has_edge(u, v)
    ]
    return build_graph(G.n, edges)

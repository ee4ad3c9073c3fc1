"""Exhaustive exact solvers for small graphs.

These are the ground truth every heuristic is measured against.  They run
on bitmask adjacency, reject inputs beyond fixed size caps, and stop each
search at a fixed number of nodes: each call returns an optimum with a
witness or raises TooLarge / Timeout, never a silently approximate answer.
The node cap reads no clock, so whether a call answers or raises depends
only on its input and its limits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .covering import Coloring, _first_fit
from .errors import BadParameter, IsolatedVertex, Timeout, TooLarge
from .graphs import Graph, VertexSet, _cover_exceeds, bfs_levels

DOMINATION_VARIANTS = ("plain", "independent", "total", "connected")


@dataclass(frozen=True)
class OracleLimits:
    """Size caps and the search-node cap for the exact solvers.

    ``max_nodes`` bounds each search separately: the clique search inside
    :func:`exact_chromatic` and its coloring search each get the full cap.
    """

    max_independent_set: int = 24
    max_vertex_cover: int = 24
    max_clique: int = 24
    max_chromatic: int = 16
    max_domination: int = 18
    max_connected_domination: int = 16
    max_nodes: int = 2**22

    def __post_init__(self):
        if any(getattr(self, field.name) <= 0 for field in fields(self)):
            raise BadParameter("oracle limits must be positive")


DEFAULT_LIMITS = OracleLimits()


def check_size(n: int, cap: str, limits: OracleLimits = DEFAULT_LIMITS) -> None:
    """Raise TooLarge when ``n`` exceeds the size cap ``limits.<cap>``, named by its
    field: ``max_connected_domination`` reads "connected-domination cap"."""
    bound = getattr(limits, cap)
    if n > bound:
        name = cap.removeprefix("max_").replace("_", "-")
        raise TooLarge(f"n={n} exceeds the {name} cap {bound}")


class _NodeBudget:
    """Counts search nodes and raises Timeout on the first one past the cap."""

    __slots__ = ("cap", "nodes")

    def __init__(self, cap: int):
        self.cap = cap
        self.nodes = 0

    def check(self) -> None:
        self.nodes += 1
        if self.nodes > self.cap:
            raise Timeout(f"oracle search exceeded its cap of {self.cap} nodes")


def _neighbor_masks(G: Graph) -> list[int]:
    return [sum(1 << v for v in nbrs) for nbrs in G.adj]


def _mask_to_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mis_search(G: Graph, budget: _NodeBudget) -> tuple[int, int]:
    """Branch and bound for a maximum independent set; returns (size, bitmask).

    Each node branches on its highest-degree survivor, taking it first.  It
    is cut when ``count`` plus a bound on the survivors cannot beat the
    incumbent: first the number of survivors, then the greedy clique cover
    of them that :func:`graphs._cover_exceeds` grows (an independent set
    meets each clique at most once).  The incumbent changes only on a strict
    gain, so the cuts drop no node that could change the result: the
    returned witness is the one the search finds without them.

    Both cuts run before the degree scan, so a cut node picks no branch
    vertex.  Where the survivors have degree at most 1 the search ends in
    an exact greedy instead of branching; a cover cut there drops nothing
    either, since the greedy's count is at most the cover's.
    """
    masks = _neighbor_masks(G)
    best_size = -1
    best_mask = 0

    def search(alive: int, chosen: int, count: int) -> None:
        nonlocal best_size, best_mask
        budget.check()
        if count + alive.bit_count() <= best_size:
            return
        if alive == 0:
            best_size, best_mask = count, chosen
            return
        if not _cover_exceeds(masks, alive, best_size - count):
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


def exact_mis(G: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> tuple[int, VertexSet]:
    """Maximum independent set size with a witness."""
    check_size(G.n, "max_independent_set", limits)
    size, mask = _mis_search(G, _NodeBudget(limits.max_nodes))
    return size, VertexSet.of(_mask_to_vertices(mask), G.n)


def exact_vc(G: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> tuple[int, VertexSet]:
    """Minimum vertex cover: complement of a maximum independent set."""
    check_size(G.n, "max_vertex_cover", limits)
    size, mask = _mis_search(G, _NodeBudget(limits.max_nodes))
    cover = [v for v in range(G.n) if not (mask >> v) & 1]
    return G.n - size, VertexSet.of(cover, G.n)


def exact_clique(G: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> tuple[int, VertexSet]:
    """Maximum clique by its own branch and bound (independent of exact_mis)."""
    check_size(G.n, "max_clique", limits)
    masks = _neighbor_masks(G)
    budget = _NodeBudget(limits.max_nodes)
    best_size = 0
    best_mask = 0

    def search(candidates: int, chosen: int, count: int) -> None:
        nonlocal best_size, best_mask
        budget.check()
        if count > best_size:
            best_size, best_mask = count, chosen
        if count + candidates.bit_count() <= best_size:
            return
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            search(candidates & masks[v], chosen | low, count + 1)
            candidates ^= low
            if count + candidates.bit_count() <= best_size:
                return

    search((1 << G.n) - 1, 0, 0)
    return best_size, VertexSet.of(_mask_to_vertices(best_mask), G.n)


def _try_k_coloring(G: Graph, k: int, seed_clique: tuple[int, ...], budget: _NodeBudget):
    """Complete backtracking search for a proper k-coloring, or None.

    The seed clique is pre-colored 1..len(clique); new colors may only be
    introduced in order, which prunes color permutations.  Each node colors
    the uncolored vertex of greatest (saturation, degree, -id), DSATUR's
    order (Brélaz 1979), where saturation counts the distinct colors among
    its neighbors.  The saturations are kept up to date, not recounted:
    ``seen[v][c]`` counts v's neighbors of color c and changes only when a
    neighbor is colored or uncolored.  The pick key is one int per vertex,
    ``saturation * n + rank`` with ``rank`` the position of (degree, -id)
    in sorted order, less ``(k + 1) * n`` while the vertex is colored, so
    the largest key is the uncolored vertex the tuple order picks.
    """
    n = G.n
    adj = G.adj
    colors = [0] * n
    seen = [[0] * (k + 1) for _ in range(n)]
    key = [0] * n
    for rank, v in enumerate(sorted(range(n), key=lambda v: (len(adj[v]), -v))):
        key[v] = rank
    off = (k + 1) * n  # above any saturation * n + rank

    def place(v: int, c: int) -> None:
        colors[v] = c
        key[v] -= off
        for u in adj[v]:
            row = seen[u]
            if not row[c]:
                key[u] += n
            row[c] += 1

    def lift(v: int, c: int) -> None:
        colors[v] = 0
        key[v] += off
        for u in adj[v]:
            row = seen[u]
            row[c] -= 1
            if not row[c]:
                key[u] -= n

    def backtrack(colored: int, used: int) -> bool:
        budget.check()
        if colored == n:
            return True
        pick = key.index(max(key))
        forbidden = seen[pick]
        for c in range(1, min(k, used + 1) + 1):
            if forbidden[c]:
                continue
            place(pick, c)
            if backtrack(colored + 1, max(used, c)):
                return True
            lift(pick, c)
        return False

    for index, v in enumerate(seed_clique):
        place(v, index + 1)
    if backtrack(len(seed_clique), len(seed_clique)):
        return colors
    return None


def exact_chromatic(G: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> tuple[int, Coloring]:
    """Chromatic number by iterative deepening from the clique number."""
    check_size(G.n, "max_chromatic", limits)
    if G.n == 0:
        return 0, Coloring.of([])
    budget = _NodeBudget(limits.max_nodes)
    _, clique = exact_clique(G, limits)

    # first-fit in id order caps the search
    upper = _first_fit(G, range(G.n)).num_colors
    for k in range(len(clique), upper + 1):
        assignment = _try_k_coloring(G, k, clique.members, budget)
        if assignment is not None:
            return k, Coloring.of(assignment)
    raise AssertionError("k-coloring search must succeed at the greedy bound")


def _induced_connected(chosen: list[int], masks: list[int]) -> bool:
    if len(chosen) <= 1:
        return True
    chosen_mask = 0
    for v in chosen:
        chosen_mask |= 1 << v
    seen = 1 << chosen[0]
    stack = [chosen[0]]
    while stack:
        v = stack.pop()
        fresh = masks[v] & chosen_mask & ~seen
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            seen |= low
            stack.append(low.bit_length() - 1)
    return seen == chosen_mask


def _domination_lower_bound(G: Graph, variant: str, reach: list[int]) -> int:
    """A size no dominating set of ``variant`` can undercut; at least 1 for n >= 1.

    ``reach[v]`` is the set a member v dominates: its closed neighborhood,
    or its open one for ``total``.  The bound is the largest of:

    * a greedy packing: vertices whose reach sets are pairwise disjoint
      each need a member of their own reach set, so distinct members.
      Candidates go by (reach size, id), which keeps more of them, and the
      first one is always kept;
    * ceil(n / max reach size): one member dominates at most Delta + 1
      vertices (Delta for ``total``, where the isolated-vertex guard makes
      Delta >= 1);
    * for ``connected``, a Steiner bound on three vertices x, y, z:
      ceil(S / 2) + 1 with S the sum of max(0, d - 2) over their three
      pairwise distances d.  x is the highest id on the last
      :func:`bfs_levels` level from 0, y the highest id on the last level
      from x, and z any vertex of largest max(0, dist(x, z) - 2) +
      max(0, dist(y, z) - 2).  A connected dominating set holds members
      a, b, c within one step of x, y, z, and a spanning tree of the set
      joins them by a subtree of (d_T(a, b) + d_T(b, c) + d_T(a, c)) / 2
      edges, each d_T at least the matching dist - 2 in G; the set has one
      vertex more than its tree has edges.  With z = x the term is
      dist(x, y) - 1, the eccentricity bound, so it never falls below it.

    ``independent`` uses the plain terms, since i(G) >= gamma(G).
    """
    sizes = [r.bit_count() for r in reach]
    packed = 0
    packing = 0
    for v in sorted(range(G.n), key=lambda v: (sizes[v], v)):
        if not reach[v] & packed:
            packed |= reach[v]
            packing += 1
    bound = max(packing, -(-G.n // max(sizes)))
    if variant == "connected":
        x = bfs_levels(G, 0)[0][-1][-1]
        from_x = _distances(G, x)
        y = max(range(G.n), key=lambda v: (from_x[v], v))
        from_y = _distances(G, y)
        third = max(max(0, a - 2) + max(0, b - 2) for a, b in zip(from_x, from_y))
        bound = max(bound, -(-(max(0, from_x[y] - 2) + third) // 2) + 1)
    return bound


def _distances(G: Graph, root: int) -> list[int]:
    """Hop distance from ``root`` to every vertex of the connected graph G."""
    dist = [0] * G.n
    for d, level in enumerate(bfs_levels(G, root)[0]):
        for v in level:
            dist[v] = d
    return dist


def exact_domination(
    G: Graph, variant: str = "plain", limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[int, VertexSet]:
    """Minimum dominating set of the requested variant with a witness.

    For each size from the certified lower bound of
    :func:`_domination_lower_bound` up, a depth-first search picks members
    in increasing id order over bitmask neighborhoods, so it visits the
    subsets of that size in lexicographic order.  For ``connected``, that
    bound's :func:`bfs_levels` walk raises NotConnected on a disconnected
    graph before the first search node.  It cuts a branch only
    when no subset below it can be accepted:

    * suffix cover: with members still to pick from ids >= v, the union
      ``suffix[v]`` of their reach sets must complete the cover; it only
      shrinks as v grows, so the scan stops at the first v that fails;
    * independent: a candidate must lie outside the closed neighborhoods
      of the members already picked;
    * connected: two members of a connected set of size k are at most
      k - 1 apart in G, so candidates must lie in the distance-(k - 1)
      ball of every member picked; each full set is still tested for
      induced connectivity.

    The last member is tried in its parent's loop rather than in a node of
    its own: a candidate completes the set when its reach finishes the
    cover, and for ``connected`` when the set it completes is connected.
    Every smaller size would fail and no cut drops an accepted subset, so
    the first subset accepted is optimal and is the lexicographically
    first one of its size.  Variants: plain, independent, total, connected.
    """
    if variant not in DOMINATION_VARIANTS:
        raise BadParameter(f"unknown domination variant {variant!r}")
    cap = "max_connected_domination" if variant == "connected" else "max_domination"
    check_size(G.n, cap, limits)
    if variant == "total":
        for v in range(G.n):
            if not G.adj[v]:
                raise IsolatedVertex(v)
    if G.n == 0:
        return 0, VertexSet.of([], 0)

    n = G.n
    masks = _neighbor_masks(G)
    closed = [masks[v] | (1 << v) for v in range(n)]
    reach = masks if variant == "total" else closed
    full = (1 << n) - 1
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] | reach[v]
    if variant == "independent":
        allow = [full & ~closed[v] for v in range(n)]
    else:
        allow = [full] * n  # the connected balls grow with the size below
    budget = _NodeBudget(limits.max_nodes)
    chosen: list[int] = []

    def extend(start: int, covered: int, allowed: int, slots: int) -> bool:
        budget.check()
        if slots == 1:
            for v in range(start, n):
                if covered | suffix[v] != full:
                    return False
                if (allowed >> v) & 1 and covered | reach[v] == full:
                    chosen.append(v)
                    if variant != "connected" or _induced_connected(chosen, masks):
                        return True
                    chosen.pop()
            return False
        for v in range(start, n - slots + 1):
            if covered | suffix[v] != full:
                return False
            if (allowed >> v) & 1:
                chosen.append(v)
                if extend(v + 1, covered | reach[v], allowed & allow[v], slots - 1):
                    return True
                chosen.pop()
        return False

    radius = 0
    ball = [1 << v for v in range(n)]
    for size in range(_domination_lower_bound(G, variant, reach), n + 1):
        if variant == "connected":
            while radius < size - 1:
                grown = ball[:]
                for v in range(n):
                    for u in G.adj[v]:
                        grown[v] |= ball[u]
                ball = grown
                radius += 1
            allow = ball
        if extend(0, 0, full, size):
            return size, VertexSet.of(chosen, n)
    raise AssertionError("the full vertex set always dominates")

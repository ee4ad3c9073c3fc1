"""Disk instances in the plane, their intersection graphs, and geometric helpers.

Two disks are adjacent exactly when the squared distance between their
centers is at most the squared sum of their radii, so tangent disks count
as intersecting and no square root enters any comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .errors import BadParameter, ModelMismatch, NonPositiveRadius
from .graphs import Graph, VertexSet, is_connected
from .rng import Rng, derive_seed

_SECTOR = math.pi / 3.0


@dataclass(frozen=True)
class GeometricInstance:
    """Disks as (x, y, radius) triples; vertex ids follow list order."""

    disks: tuple[tuple[float, float, float], ...]

    @property
    def n(self) -> int:
        return len(self.disks)

    @cached_property
    def radius_range(self) -> tuple[float, float]:
        """The (smallest, largest) radius, found as every disk is range-checked.

        Raises :class:`NonPositiveRadius` or :class:`BadParameter` for the
        first disk :func:`_disk_fault` rejects, so an instance's disks are
        checked once however often it is paired.
        """
        return _check_radii(self.disks)

    @cached_property
    def unit(self) -> bool:
        """True when every disk has the same radius."""
        low, high = self.radius_range
        return not self.disks or low == high


@dataclass(frozen=True)
class PolygonBound:
    """How many disjoint unit regular polygons can simultaneously touch one.

    ``area`` is the area of the polygon itself (inscribed in a unit circle);
    ``independence_bound`` caps the independence number of any vertex
    neighborhood in an intersection graph of such polygons.
    """

    sides: int
    area: float
    independence_bound: int


# Coordinates within 2^500 of 0 and radii in [2^-500, 2^500] keep the
# pairing arithmetic finite and normal: a squared distance or squared reach
# is at most 2^1003, a squared reach at least 2^-998 (a squared distance
# that underflows is then far below it), and a cell index |x| / cell at
# most 2^999.
_MAX_MAGNITUDE = 2.0 ** 500
_MIN_RADIUS = 2.0 ** -500


def _disk_fault(x: float, y: float, r: float) -> Optional[str]:
    """Why the disk (x, y, r) is rejected, or None when it is accepted."""
    # One chained range test accepts the common case; NaN fails every
    # comparison, so only a rejected disk reaches the messages below.
    if (-_MAX_MAGNITUDE <= x <= _MAX_MAGNITUDE and -_MAX_MAGNITUDE <= y <= _MAX_MAGNITUDE
            and _MIN_RADIUS <= r <= _MAX_MAGNITUDE):
        return None
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(r)):
        return "disk fields must be finite"
    if r <= 0:
        return f"radius {r} must be positive"
    if abs(x) > _MAX_MAGNITUDE or abs(y) > _MAX_MAGNITUDE:
        return "coordinates must lie within 2^500 of 0"
    return f"radius {r} must lie in [2^-500, 2^500]"


def _check_radii(disks) -> tuple[float, float]:
    """Reject disks :func:`_disk_fault` rejects; return the (min, max) radius."""
    low = math.inf
    high = 0.0
    for x, y, r in disks:
        fault = _disk_fault(x, y, r)
        if fault:
            error = NonPositiveRadius if r <= 0 else BadParameter
            raise error(f"disk ({x}, {y}, {r}): {fault}")
        if r < low:
            low = r
        if r > high:
            high = r
    return low, high


def _check_radius_range(radius: float, radius_high: Optional[float]) -> None:
    if not _MIN_RADIUS <= radius <= _MAX_MAGNITUDE:
        raise BadParameter("radius must be finite and lie in [2^-500, 2^500]")
    if radius_high is not None and not radius <= radius_high <= _MAX_MAGNITUDE:
        raise BadParameter("radius_high must be finite, at least radius and at most 2^500")


def _radius_levels(disks, low: float, high: float) -> list[tuple[float, list[int]]]:
    """Disk ids split into levels of increasing radius, each with its cell side.

    Each level takes the remaining disks of radius at most twice their lower
    median, so it holds at least half of them and there are at most
    log2(n) + 1 levels; every radius of a later level exceeds every radius
    of an earlier one.  A level's cell side is twice its largest radius.
    ``low``/``high`` are the smallest and largest radius.  When every disk
    fits in the first level (``high`` at most twice the lower median, found
    by counting the radii below ``high / 2``), the ids are not sorted.
    """
    n = len(disks)
    if high <= 2.0 * low or sum(1 for _, _, r in disks if 2.0 * r < high) <= (n - 1) // 2:
        return [(2.0 * high, range(n))]
    order = sorted(range(n), key=lambda i: disks[i][2])
    radii = [disks[i][2] for i in order]
    levels = []
    start = 0
    while start < n:
        cutoff = 2.0 * radii[start + (n - start - 1) // 2]
        end = bisect_right(radii, cutoff, start)
        levels.append((2.0 * radii[end - 1], order[start:end]))
        start = end
    return levels


def _bucket(entries, cell: float) -> dict[tuple[int, int], list[tuple]]:
    """``entries``, (id, x, y, ...) tuples, keyed by the grid cell of (x, y)."""
    # Cells are 2^-20 wider than the largest reach: the squared test rounds
    # dx = xi - xj, so it accepts centers a few ulps more than one reach
    # apart, e.g. (-1e-20, 0, 1) and (2, 0, 1), which cells of side exactly
    # 2 put two cells apart.
    cell *= 1.0 + 2.0 ** -20
    floor = math.floor
    buckets: dict[tuple[int, int], list[tuple]] = {}
    get = buckets.get
    for entry in entries:
        key = (floor(entry[1] / cell), floor(entry[2] / cell))
        members = get(key)
        if members is None:
            buckets[key] = [entry]
        else:
            members.append(entry)
    return buckets


_BLOCK = tuple((ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1))


# Above this many disks the grid scan is cheaper than testing every pair:
# the measured crossover lies between 32 and 48 disks, for unit and
# [0.5, 2] radii at mean degree 4 and 6.
_ALL_PAIRS_MAX = 32


def _adjacency(disks, low: float, high: float) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor tuple of every disk; ``low``/``high`` bound the radii.

    At most ``_ALL_PAIRS_MAX`` disks test every pair, with the same test as
    :func:`_grid_adjacency`, which pairs larger inputs.  The pairs come in
    lexicographic order, so each row fills in ascending order.
    """
    if len(disks) > _ALL_PAIRS_MAX:
        return _grid_adjacency(disks, low, high)
    rows: list[list[int]] = [[] for _ in disks]
    for (i, (xi, yi, ri)), (j, (xj, yj, rj)) in combinations(enumerate(disks), 2):
        dx = xi - xj
        dy = yi - yj
        reach = ri + rj
        if dx * dx + dy * dy <= reach * reach:
            rows[i].append(j)
            rows[j].append(i)
    return tuple(map(tuple, rows))


def _grid_adjacency(disks, low: float, high: float) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor tuple of every disk, found by a grid scan.

    Disks are split into radius levels (see :func:`_radius_levels`); unit
    disks, or any radii within a factor of two, make a single level.  Each
    level buckets its centers into cells just over 2 * its largest radius, so
    a pair within the level sits in the same or an adjacent cell.  Each cell
    tests its members against one pool: its members followed by the entries
    of a half-neighborhood of four offsets, member a (1-based) testing
    ``pool[a:]``, which visits each unordered cell pair once.  A pair across
    levels is found from the smaller disk: its radius is below the larger
    one's, which is at most half the larger level's cell, so the larger
    center lies in the 3x3 block of that level's cells around the smaller
    center.  The smaller disks of a level are bucketed on each later level's
    grid, where a cell's pool is that block and every member tests all of
    it, so a large disk never walks the fine grid.  When every radius is
    equal (``low == high``), the single level runs the same scan in
    :func:`_pair_equal_radii`.

    The scan finds each unordered intersecting pair exactly once, so a hit
    is appended to both endpoints' rows with no dedup, and each row is
    sorted once at the end.
    """
    rows: list[list[int]] = [[] for _ in disks]
    if low == high:
        _pair_equal_radii(disks, high, rows)
    else:
        _pair_levels(disks, low, high, rows)
    for row in rows:
        row.sort()
    return tuple(map(tuple, rows))


def _pair_equal_radii(disks, radius: float, rows: list[list[int]]) -> None:
    """Append every intersecting pair of disks that all have ``radius`` to ``rows``.

    Entries drop the radius, and every pair is tested against one constant
    ``(radius + radius) ** 2``, the same float the general test's
    ``reach * reach`` gives, so the rows are those of :func:`_pair_levels`.
    """
    buckets = _bucket([(i, x, y) for i, (x, y, _) in enumerate(disks)], 2.0 * radius)
    reach = radius + radius
    limit = reach * reach
    get = buckets.get
    for (cx, cy), members in buckets.items():
        pool = [*members, *get((cx + 1, cy), ()), *get((cx - 1, cy + 1), ()),
                *get((cx, cy + 1), ()), *get((cx + 1, cy + 1), ())]
        for a, (i, xi, yi) in enumerate(members, 1):
            row = rows[i]
            for j, xj, yj in pool[a:]:
                dx = xi - xj
                dy = yi - yj
                if dx * dx + dy * dy <= limit:
                    row.append(j)
                    rows[j].append(i)


def _pair_levels(disks, low: float, high: float, rows: list[list[int]]) -> None:
    """Append every intersecting pair to ``rows`` by the radius-level scan."""
    grids = []
    for cell, ids in _radius_levels(disks, low, high):
        entries = [(i,) + disks[i] for i in ids]
        grids.append((cell, entries, _bucket(entries, cell)))
    for level, (_, entries, own) in enumerate(grids):
        for cell, _, targets in grids[level:]:
            same = targets is own
            get = targets.get
            for (cx, cy), members in (own if same else _bucket(entries, cell)).items():
                if same:
                    pool = [*members, *get((cx + 1, cy), ()), *get((cx - 1, cy + 1), ()),
                            *get((cx, cy + 1), ()), *get((cx + 1, cy + 1), ())]
                else:
                    pool = [e for ox, oy in _BLOCK for e in get((cx + ox, cy + oy), ())]
                for a, (i, xi, yi, ri) in enumerate(members, 1):
                    row = rows[i]
                    for j, xj, yj, rj in pool[a:] if same else pool:
                        dx = xi - xj
                        dy = yi - yj
                        reach = ri + rj
                        if dx * dx + dy * dy <= reach * reach:
                            row.append(j)
                            rows[j].append(i)


def instance_to_graph(inst: GeometricInstance) -> Graph:
    """Intersection graph of the instance: edge iff dist(centers)^2 <= (r_u + r_v)^2."""
    low, high = inst.radius_range
    return Graph(inst.n, _adjacency(inst.disks, low, high))


def random_instance(
    n: int,
    box: float,
    radius: float,
    seed: int,
    radius_high: Optional[float] = None,
) -> GeometricInstance:
    """``n`` disk centers i.i.d. uniform in [0, box)^2, bit-reproducible from ``seed``.

    With ``radius_high`` set, per-disk radii are drawn uniformly from
    [radius, radius_high] after all the centers, so the centers for a given
    seed do not depend on whether radii vary.
    """
    if n < 1:
        raise BadParameter("n must be at least 1")
    if not 0 < box <= _MAX_MAGNITUDE:
        raise BadParameter("box side must be positive, finite and at most 2^500")
    _check_radius_range(radius, radius_high)
    rng = Rng(seed)
    coords = [box * u for u in rng.uniforms(2 * n)]
    if radius_high is None or radius_high == radius:
        radii = [radius] * n
    else:
        span = radius_high - radius
        radii = [radius + span * u for u in rng.uniforms(n)]
    return GeometricInstance(tuple(zip(coords[0::2], coords[1::2], radii)))


_CONNECTED_TRIES = 10_000


def random_connected_instance(
    n: int,
    box: float,
    radius: float,
    seed: int,
    radius_high: Optional[float] = None,
) -> tuple[GeometricInstance, Graph]:
    """Rejection-sample :func:`random_instance` until the derived graph is connected.

    Attempt k uses the child seed derive_seed(seed, k), which keeps the
    sampling uniform over connected instances and reproducible.  Returns
    the accepted instance with the graph its connectivity test built, which
    equals ``instance_to_graph(instance)``, so callers need not pair the
    disks again.
    """
    for attempt in range(_CONNECTED_TRIES):
        inst = random_instance(n, box, radius, derive_seed(seed, attempt), radius_high)
        G = instance_to_graph(inst)
        if is_connected(G):
            return inst, G
    raise BadParameter(f"no connected instance found in {_CONNECTED_TRIES} attempts")


def sweep_order(inst: GeometricInstance) -> tuple[int, ...]:
    """Vertex ids by ascending x coordinate; ties by y, then id."""
    disks = inst.disks
    return tuple(sorted(range(len(disks)), key=lambda i: (disks[i][0], disks[i][1], i)))


def sector_clique(inst: GeometricInstance, G: Graph) -> VertexSet:
    """Clique of size at least ceil(max_degree / 6) + 1 read off the geometry.

    Takes a maximum-degree vertex and the fullest of the six 60-degree
    sectors around its center.  All neighbors live within distance two of
    the center, and two points of one such sector are at distance at most
    two, so the sector plus the center vertex is a clique.  Sectors are
    half-open, [k*60, (k+1)*60) from the +x axis, so a neighbor exactly on
    a boundary counts toward the sector that starts there.
    """
    if not inst.unit:
        raise ModelMismatch("sector cliques need equal radii")
    if G != instance_to_graph(inst):
        raise ModelMismatch("graph disagrees with the instance")
    if G.n == 0:
        return VertexSet.of([], 0)
    center = max(range(G.n), key=lambda v: (len(G.adj[v]), -v))
    cx, cy, _ = inst.disks[center]
    sectors: list[list[int]] = [[] for _ in range(6)]
    for u in G.adj[center]:
        ux, uy, _ = inst.disks[u]
        angle = math.atan2(uy - cy, ux - cx)
        if angle < 0.0:
            angle += 2.0 * math.pi
        sectors[min(int(angle / _SECTOR), 5)].append(u)
    fullest = max(sectors, key=len)  # max() keeps the lowest sector on ties
    return VertexSet.of([center, *fullest], G.n)


def polygon_independence_bound(sides: int) -> PolygonBound:
    """Evaluate ceil(18*pi / (sides * sin(2*pi/sides))) for 3 <= sides <= 2^53.

    A regular polygon inscribed in a unit circle that touches a given one
    fits inside the circle of radius 3 around it, so at most area(circle) /
    area(polygon) pairwise-disjoint polygons can all touch it.  Values
    within 1e-9 of an integer are nudged down before the ceiling so the
    result cannot flip on the last bit of a platform's libm; no such
    boundary case actually occurs for sides <= 64.  The result is floored
    at 10, which is exact: sin t < t for t > 0 gives sides * sin(2*pi/sides)
    < 2*pi, so the ratio exceeds 9, though by less than the nudge once sides
    passes about 3*10^5.  Above 2^53 a side count is not exact as a float.
    """
    if sides < 3:
        raise BadParameter("a polygon needs at least 3 sides")
    if sides > 2**53:
        raise BadParameter("a polygon may have at most 2^53 sides")
    scaled = sides * math.sin(2.0 * math.pi / sides)
    raw = 18.0 * math.pi / scaled
    return PolygonBound(sides, scaled / 2.0, max(10, math.ceil(raw - 1e-9)))

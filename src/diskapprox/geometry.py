"""Disk instances in the plane, their intersection graphs, and geometric helpers.

Two disks are adjacent exactly when the squared distance between their
centers is at most the squared sum of their radii, so tangent disks count
as intersecting and no square root enters any comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .errors import BadParameter, ModelMismatch, NonPositiveRadius
from .graphs import Graph, VertexSet, components, is_connected, is_connected_rows
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
    def unit(self) -> bool:
        """True when every disk has the same radius, found as every disk is range-checked.

        Raises :class:`NonPositiveRadius` or :class:`BadParameter` for the
        first disk :func:`_disk_fault` rejects, so an instance's disks are
        checked once however often it is paired.
        """
        low, high = _check_radii(self.disks)
        return not self.disks or low == high


# Coordinates within 2^500 of 0 and radii in [2^-500, 2^500] keep the
# pairing arithmetic finite and normal: a squared distance or squared reach
# is at most 2^1003, a squared reach at least 2^-998 (a squared distance
# that underflows is then far below it), and a strip index (|y| + w) /
# height below 2^1001.
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
    # The chained range test of _disk_fault, inline; only the disk that
    # fails it (NaN fails every comparison) is asked for its message.
    big = _MAX_MAGNITUDE
    small = _MIN_RADIUS
    low = math.inf
    high = 0.0
    for x, y, r in disks:
        if not (-big <= x <= big and -big <= y <= big and small <= r <= big):
            error = NonPositiveRadius if r <= 0 else BadParameter
            raise error(f"disk ({x}, {y}, {r}): {_disk_fault(x, y, r)}")
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


# Strips are 2^-20 taller than a level's largest reach, and a disk's window
# 2^-20 wider than its largest reach.  The squared test rounds dx = xi - xj,
# so it accepts centers a few ulps more than one reach apart, e.g.
# (-1e-20, 0, 1) and (2, 0, 1); with the margin every accepted pair lies in
# one strip or two adjacent ones, and inside each disk's window.
_MARGIN = 1.0 + 2.0 ** -20
_NO_STRIP: tuple[list, list] = ([], [])


def _strips(entries, height: float) -> tuple[list[int], list[tuple]]:
    """``entries``, (x, y, id, ...) tuples, cut into horizontal strips.

    Returns the indices floor(y / height) of the nonempty strips in
    ascending order and, for each, (strip, above).  A strip is (xs, members):
    its entries sorted by x, then y, then id, and their x coordinates for
    :func:`bisect`; ``above`` is the strip of the next index, or
    ``_NO_STRIP`` when that one is empty.
    """
    floor = math.floor
    buckets: dict[int, list[tuple]] = {}
    get = buckets.get
    for entry in entries:
        key = floor(entry[1] / height)
        members = get(key)
        if members is None:
            buckets[key] = [entry]
        else:
            members.append(entry)
    keys = sorted(buckets)
    strips = []
    above_key = above = None
    for key in reversed(keys):
        members = buckets[key]
        members.sort()
        strip = ([entry[0] for entry in members], members)
        strips.append((strip, above if above_key == key + 1 else _NO_STRIP))
        above_key, above = key, strip
    strips.reverse()
    return keys, strips


# Above this many disks the strip sweep is cheaper than testing every pair:
# at mean degree 4 and 6 the measured crossover lies between 24 and 32
# disks for unit radii and between 32 and 40 for radii in [0.5, 2].
_ALL_PAIRS_MAX = 32


def _adjacency(disks, unit: bool) -> list[list[int]]:
    """Neighbor list of every disk, in no set order; ``unit`` when all radii are equal.

    At most ``_ALL_PAIRS_MAX`` disks test every pair, with the same test as
    :func:`_sweep_adjacency`, which pairs larger inputs.  The pair test
    ``dx * dx + dy * dy <= reach * reach`` has seven copies: this loop,
    :func:`_pair_equal_radii`, :func:`_pair_within` and :func:`_pair_across`
    (the strip sweep), the sampler's :func:`_reaches_every_disk`, and the two
    loops of :func:`_meets` (domination); a change to it changes all seven.
    """
    if len(disks) > _ALL_PAIRS_MAX:
        return _sweep_adjacency(disks, unit)
    rows: list[list[int]] = [[] for _ in disks]
    for (i, (xi, yi, ri)), (j, (xj, yj, rj)) in combinations(enumerate(disks), 2):
        dx = xi - xj
        dy = yi - yj
        reach = ri + rj
        if dx * dx + dy * dy <= reach * reach:
            rows[i].append(j)
            rows[j].append(i)
    return rows


def _sweep_adjacency(disks, unit: bool) -> list[list[int]]:
    """Neighbor list of every disk, in no set order, found by a strip sweep.

    Disks are split into radius levels, each cut into strips (see
    :func:`_levels`), so a pair within a level sits in one strip or two
    adjacent ones; :func:`_pair_within` finds those pairs, or
    :func:`_pair_equal_radii` when ``unit``, every radius equal.  A pair
    across levels is found by the disks of one level querying the other
    level's strips (:func:`_pair_across`), the side picked per level pair by
    :func:`_large_queries`.  Each unordered intersecting pair is found
    exactly once, so a hit is appended to both endpoints' rows with no
    dedup.
    """
    rows: list[list[int]] = [[] for _ in disks]
    if unit and disks:
        _pair_equal_radii(disks, rows)
    else:
        levels = _levels(disks)
        for index, small in enumerate(levels):
            _pair_within(small, rows)
            for large in levels[index + 1:]:
                if _large_queries(small, large):
                    _pair_across(large[2], small, rows)
                else:
                    _pair_across(small[2], large, rows)
    return rows


def _pair_equal_radii(disks, rows: list[list[int]]) -> None:
    """Append every intersecting pair of ``disks``, all of one radius, to ``rows``.

    The sweep of :func:`_pair_within` on one level whose every window has
    the strip height as its half-width.  Entries drop the radius, and every
    pair is tested against one constant ``(radius + radius) ** 2``, the same
    float the general test's ``reach * reach`` gives, so the rows are those
    of the general sweep.
    """
    radius = disks[0][2]
    reach = radius + radius
    limit = reach * reach
    width = reach * _MARGIN
    _, strips = _strips([(x, y, i) for i, (x, y, _) in enumerate(disks)], width)
    for (xs, members), (up_xs, up) in strips:
        for a, (xi, yi, i) in enumerate(members, 1):
            row = rows[i]
            right = xi + width
            for xj, yj, j in (members[a:bisect_right(xs, right, a)]
                              + up[bisect_left(up_xs, xi - width):bisect_right(up_xs, right)]):
                dx = xi - xj
                dy = yi - yj
                if dx * dx + dy * dy <= limit:
                    row.append(j)
                    rows[j].append(i)


def _radius_levels(disks) -> list[tuple[float, list[int]]]:
    """Positions of ``disks`` in radius order, cut into levels: (largest radius, positions).

    Each level takes the remaining disks of radius at most twice their lower
    median, so it holds at least half of them and there are at most
    log2(n) + 1 levels; every radius of a later level exceeds every radius
    of an earlier one.
    """
    n = len(disks)
    radii = [disk[2] for disk in disks]
    order = sorted(range(n), key=radii.__getitem__)
    radii = [radii[i] for i in order]
    levels = []
    start = 0
    while start < n:
        end = bisect_right(radii, 2.0 * radii[start + (n - start - 1) // 2], start)
        levels.append((radii[end - 1], order[start:end]))
        start = end
    return levels


def _levels(disks) -> list[tuple]:
    """The levels of :func:`_radius_levels`, each (its largest radius, its strip
    height 2 * that radius * (1 + 2^-20), its entries (x, y, id, r) in radius
    order, then the strip indices and strips of :func:`_strips`)."""
    levels = []
    for radius, ids in _radius_levels(disks):
        height = 2.0 * radius * _MARGIN
        entries = [(x, y, i, r) for i in ids for x, y, r in (disks[i],)]
        levels.append((radius, height, entries, *_strips(entries, height)))
    return levels


def _pair_within(level, rows: list[list[int]]) -> None:
    """Append the intersecting pairs inside one radius ``level`` to ``rows``.

    A disk of radius r takes the half-width w = (r + the level's largest
    radius) * (1 + 2^-20), which bounds the x offset of any pair the test
    accepts, and tests the entries after it in its strip with x at most
    x + w, then the entries of the strip above with x in [x - w, x + w].
    """
    radius, _, _, _, strips = level
    margin = _MARGIN
    for (xs, members), (up_xs, up) in strips:
        for a, (xi, yi, i, ri) in enumerate(members, 1):
            width = (ri + radius) * margin
            right = xi + width
            row = rows[i]
            for xj, yj, j, rj in (members[a:bisect_right(xs, right, a)]
                                  + up[bisect_left(up_xs, xi - width):bisect_right(up_xs, right)]):
                dx = xi - xj
                dy = yi - yj
                reach = ri + rj
                if dx * dx + dy * dy <= reach * reach:
                    row.append(j)
                    rows[j].append(i)


def _pair_across(entries, level, rows: list[list[int]]) -> None:
    """Append the intersecting pairs of ``entries`` and another ``level`` to ``rows``.

    An entry of radius r takes the half-width w = (r + the level's largest
    radius) * (1 + 2^-20) and tests the level's strips that the band
    [y - w, y + w] meets, each over the window [x - w, x + w].
    """
    radius, height, _, keys, strips = level
    margin = _MARGIN
    floor = math.floor
    for xi, yi, i, ri in entries:
        width = (ri + radius) * margin
        left = xi - width
        right = xi + width
        row = rows[i]
        for (xs, members), _ in strips[bisect_left(keys, floor((yi - width) / height)):
                                       bisect_right(keys, floor((yi + width) / height))]:
            for xj, yj, j, rj in members[bisect_left(xs, left):bisect_right(xs, right)]:
                dx = xi - xj
                dy = yi - yj
                reach = ri + rj
                if dx * dx + dy * dy <= reach * reach:
                    row.append(j)
                    rows[j].append(i)


def _large_queries(small, large) -> bool:
    """True when the ``large`` level's disks query the ``small`` level's strips.

    Either side may query.  A disk visits the nonempty strips its band
    meets: a large disk at most about 2 * w / height + 1 of the small
    level's, w the widest half-width, and never more than the level has; a
    small disk, whose half-width is below the large level's strip height,
    at most 3.  The side with fewer strip visits by these bounds queries;
    ties go to the large disks.
    """
    band = 2.0 * (small[0] + large[0]) * _MARGIN / small[1] + 1.0
    return len(large[2]) * min(len(small[3]), band) <= len(small[2]) * min(len(large[3]), 3)


def instance_to_graph(inst: GeometricInstance) -> Graph:
    """Intersection graph of the instance: edge iff dist(centers)^2 <= (r_u + r_v)^2."""
    return Graph.of_rows(_adjacency(inst.disks, inst.unit))


def pairwise_disjoint(inst: GeometricInstance, ids) -> bool:
    """True when no two of the disks ``ids`` (distinct, in range) intersect.

    Pairs only those disks, with :func:`_adjacency`; its rows are read
    unsorted, since only their emptiness counts.  Its pair test is
    symmetric in the two disks (``xi - xj`` is the exact negation of
    ``xj - xi`` and ``ri + rj`` commutes), and the all-pairs path and both
    sweep kernels each find every pair the test accepts, so the answer is
    that of the subgraph ``instance_to_graph(inst)`` induces on ``ids``.  A
    subset of a unit instance is unit, so ``inst.unit`` holds for it too.
    """
    disks = inst.disks
    return not any(_adjacency([disks[i] for i in ids], inst.unit))


def _cells(disks, ids, radius: float) -> tuple:
    """(radius, side, get): the disks ``ids`` as entries (x, y, r, id) in square
    cells of side 4 * radius * (1 + 2^-20), keyed (floor(x / side), floor(y / side))."""
    floor = math.floor
    side = 4.0 * radius * _MARGIN
    cells: dict[tuple[int, int], list[tuple]] = {}
    for i in ids:
        x, y, r = disks[i]
        cells.setdefault((floor(x / side), floor(y / side)), []).append((x, y, r, i))
    return radius, side, cells.get


def _meets(index, xi, yi, ri, i) -> bool:
    """Does disk ``i``, (xi, yi, ri), meet another disk in a level of ``index``
    (:func:`_cells`) of radius R >= ri?  The disks the pair test accepts lie in
    the cells of [x -+ w] x [y -+ w], w = (ri + R)(1 + 2^-20), as for ``_MARGIN``'s
    strips (rounding, division and floor are monotone, also past 2^53): 2 x 2
    cells, up to rounding.  The query's own cell is read first."""
    floor = math.floor
    for radius, side, cell in index:
        if radius < ri:
            continue
        cx, cy = floor(xi / side), floor(yi / side)
        for xj, yj, rj, j in cell((cx, cy), ()):
            dx = xi - xj
            dy = yi - yj
            reach = ri + rj
            if dx * dx + dy * dy <= reach * reach and j != i:
                return True
        w = (ri + radius) * _MARGIN
        left, right = floor((xi - w) / side), floor((xi + w) / side)
        low, high = floor((yi - w) / side), floor((yi + w) / side)
        if right - left < 2 and high - low < 2:
            ox, oy = left + right - cx, low + high - cy
            keys = (((ox, cy), (cx, oy), (ox, oy)) if ox != cx and oy != cy
                    else ((ox, oy),) if ox != cx or oy != cy else ())
        else:
            keys = [(a, b) for a in range(left, right + 1) for b in range(low, high + 1)]
        for key in keys:
            for xj, yj, rj, j in cell(key, ()):
                dx = xi - xj
                dy = yi - yj
                reach = ri + rj
                if dx * dx + dy * dy <= reach * reach and j != i:
                    return True
    return False


def dominated(inst: GeometricInstance, ids, total: bool = False) -> bool:
    """True when every disk not in ``ids`` (every disk, with ``total``) meets a
    disk of ``ids`` other than itself; ``ids`` is a sequence of distinct ids.
    Each level of :func:`_radius_levels` of the ``ids`` disks is hashed by
    :func:`_cells`.  A disk queries the levels no narrower than it; those wider
    than a level that stay undominated query, per level of their own, the
    ``ids`` disks no wider than it, so each pair is hashed by its narrower disk.
    """
    disks = inst.disks
    index = [_cells(disks, [ids[p] for p in positions], radius)
             for radius, positions in _radius_levels([disks[i] for i in ids])]
    skip = () if total else set(ids)
    wide = []
    for i, (x, y, r) in enumerate(disks):
        if i in skip or _meets(index, x, y, r, i):
            continue
        if not index or r <= index[0][0]:
            return False
        wide.append(i)
    for radius, positions in _radius_levels([disks[i] for i in wide]):
        members = [_cells(disks, [i for i in ids if disks[i][2] <= radius], radius)]
        if not all(_meets(members, *disks[wide[p]], wide[p]) for p in positions):
            return False
    return True


def connected(inst: GeometricInstance, ids) -> bool:
    """True when the disks ``ids`` (distinct, in range) induce a connected graph; pairs only them."""
    return is_connected_rows(_adjacency([inst.disks[i] for i in ids], inst.unit))


def random_instance(
    n: int,
    box: float,
    radius: float,
    seed: int,
    radius_high: Optional[float] = None,
) -> GeometricInstance:
    """``n`` disk centers i.i.d. uniform in [0, box)^2, bit-reproducible from ``seed``.

    The stream gives x and y of each center in turn, then, with
    ``radius_high`` set, a radius uniform in [radius, radius_high] per disk,
    so the centers for a given seed do not depend on whether radii vary.
    The instance takes one :meth:`Rng.uniforms` batch: 2n values, or 3n
    when the radii vary, which equals 2n values followed by n more.
    """
    if n < 1:
        raise BadParameter("n must be at least 1")
    if not 0 < box <= _MAX_MAGNITUDE:
        raise BadParameter("box side must be positive, finite and at most 2^500")
    _check_radius_range(radius, radius_high)
    if radius_high is None or radius_high == radius:
        coords = [box * u for u in Rng(seed).uniforms(2 * n)]
        radii = [radius] * n
    else:
        draws = Rng(seed).uniforms(3 * n)
        coords = [box * u for u in draws[: 2 * n]]
        span = radius_high - radius
        radii = [radius + span * u for u in draws[2 * n :]]
    return GeometricInstance(tuple(zip(coords[0::2], coords[1::2], radii)))


_CONNECTED_TRIES = 10_000
# Above 2000 disks a search that never succeeds stops after ceil(this / n)
# draws: about 100 s at 10^4 and 10^5 disks on a 2-vCPU Xeon VM, where an
# attempt costs 38-52 ms and 0.44-0.50 s.
_CONNECTED_DISKS = 20_000_000


def random_connected_instance(
    n: int,
    box: float,
    radius: float,
    seed: int,
    radius_high: Optional[float] = None,
) -> tuple[GeometricInstance, Graph]:
    """Rejection-sample :func:`random_instance` until the derived graph is connected.

    Attempt k uses the child seed derive_seed(seed, k), which keeps the
    sampling uniform over connected instances and reproducible.  A draw of
    at most ``_ALL_PAIRS_MAX`` disks is tested by :func:`_reaches_every_disk`
    on the disks themselves, and only an accepted draw is paired.  The
    search is quadratic, so a larger draw, which the strip sweep pairs, is
    paired first and its graph tested.  Either way the result is the
    instance with ``instance_to_graph(instance)``, so callers need not pair
    the disks again.  The search gives up after min(``_CONNECTED_TRIES``,
    ceil(``_CONNECTED_DISKS`` / n)) attempts with a BadParameter that names
    them and the largest component of the last draw.
    """
    attempts = min(_CONNECTED_TRIES, -(-_CONNECTED_DISKS // max(n, 1)))
    for attempt in range(attempts):
        inst = random_instance(n, box, radius, derive_seed(seed, attempt), radius_high)
        if n <= _ALL_PAIRS_MAX:
            if _reaches_every_disk(inst.disks):
                return inst, instance_to_graph(inst)
        else:
            G = instance_to_graph(inst)
            if is_connected(G):
                return inst, G
    largest = max(map(len, components(instance_to_graph(inst))))
    raise BadParameter(
        f"no connected instance found in {attempts} attempts; the largest component"
        f" of the last draw holds {largest} of its {n} disks"
    )


def _reaches_every_disk(disks) -> bool:
    """True when the intersection graph of ``disks`` (at least one) is connected.

    A reach search from the last disk: each disk taken off the stack is
    tested only against the disks not yet reached, with the pair test of
    :func:`_adjacency` (``xi - xj`` is the negation of ``xj - xi`` and
    ``ri + rj`` commutes, so the order of a pair does not change the test),
    and its hits are pushed.  The search builds no rows, and a disconnected
    draw stops as soon as the stack runs dry, having made at most the
    n(n-1)/2 tests of all pairs.
    """
    unreached = list(disks)
    stack = [unreached.pop()]
    while stack and unreached:
        xi, yi, ri = stack.pop()
        kept = []
        for disk in unreached:
            dx = xi - disk[0]
            dy = yi - disk[1]
            reach = ri + disk[2]
            if dx * dx + dy * dy <= reach * reach:
                stack.append(disk)
            else:
                kept.append(disk)
        unreached = kept
    return not unreached


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


def polygon_independence_bound(sides: int) -> int:
    """Evaluate ceil(18*pi / (sides * sin(2*pi/sides))) for 3 <= sides <= 2^53.

    The result caps how many pairwise-disjoint unit regular polygons can
    touch one, so it bounds the independence number of any vertex
    neighborhood in an intersection graph of such polygons.  A regular
    polygon inscribed in a unit circle that touches a given one fits inside
    the circle of radius 3 around it, so at most area(circle) /
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
    raw = 18.0 * math.pi / (sides * math.sin(2.0 * math.pi / sides))
    return max(10, math.ceil(raw - 1e-9))

"""Disk instances in the plane, their intersection graphs, and geometric helpers.

Two disks are adjacent exactly when the squared distance between their
centers is at most the squared sum of their radii, so tangent disks count
as intersecting and no square root enters any comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import BadParameter, ModelMismatch, NonPositiveRadius
from .graphs import Graph, VertexSet, build_graph, is_connected
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
        """True when every disk has the same radius."""
        return len({r for _, _, r in self.disks}) <= 1


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


def _check_radii(disks) -> None:
    for x, y, r in disks:
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(r)):
            raise BadParameter(f"disk ({x}, {y}, {r}) has a non-finite field")
        if r <= 0:
            raise NonPositiveRadius(f"radius {r} must be positive")


def _intersecting_pairs(disks):
    """Yield every intersecting pair exactly once.

    Centers are bucketed into cells of side 2 * max radius, so an
    intersecting pair sits in the same or an adjacent cell; scanning each
    cell against itself and a half-neighborhood of four offsets visits each
    unordered cell pair once.
    """
    cell = 2.0 * max(r for _, _, r in disks)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (x, y, _) in enumerate(disks):
        key = (math.floor(x / cell), math.floor(y / cell))
        buckets.setdefault(key, []).append(i)
    half_neighborhood = ((1, 0), (-1, 1), (0, 1), (1, 1))
    for (cx, cy), members in buckets.items():
        for a in range(len(members)):
            i = members[a]
            xi, yi, ri = disks[i]
            for b in range(a + 1, len(members)):
                j = members[b]
                xj, yj, rj = disks[j]
                dx = xi - xj
                dy = yi - yj
                reach = ri + rj
                if dx * dx + dy * dy <= reach * reach:
                    yield i, j
        for ox, oy in half_neighborhood:
            other = buckets.get((cx + ox, cy + oy))
            if not other:
                continue
            for i in members:
                xi, yi, ri = disks[i]
                for j in other:
                    xj, yj, rj = disks[j]
                    dx = xi - xj
                    dy = yi - yj
                    reach = ri + rj
                    if dx * dx + dy * dy <= reach * reach:
                        yield i, j


def instance_to_graph(inst: GeometricInstance) -> Graph:
    """Intersection graph of the instance: edge iff dist(centers)^2 <= (r_u + r_v)^2."""
    _check_radii(inst.disks)
    if inst.n == 0:
        return build_graph(0, [])
    return build_graph(inst.n, _intersecting_pairs(inst.disks))


def instance_adjacency(inst: GeometricInstance) -> list[list[int]]:
    """Adjacency lists of the intersection graph, skipping canonicalization.

    Same edge set as :func:`instance_to_graph`; meant for sweep-style
    passes over large instances where building a Graph would dominate.
    """
    _check_radii(inst.disks)
    adjacency: list[list[int]] = [[] for _ in range(inst.n)]
    if inst.n:
        for i, j in _intersecting_pairs(inst.disks):
            adjacency[i].append(j)
            adjacency[j].append(i)
    return adjacency


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
    if not 0 < box < math.inf:
        raise BadParameter("box side must be positive and finite")
    if not 0 < radius < math.inf:
        raise BadParameter("radius must be positive and finite")
    if radius_high is not None and not radius <= radius_high < math.inf:
        raise BadParameter("radius_high must be finite and at least radius")
    rng = Rng(seed)
    centers = [(box * rng.uniform(), box * rng.uniform()) for _ in range(n)]
    if radius_high is None or radius_high == radius:
        radii = [radius] * n
    else:
        radii = [rng.uniform_in(radius, radius_high) for _ in range(n)]
    return GeometricInstance(tuple((x, y, r) for (x, y), r in zip(centers, radii)))


def random_connected_instance(
    n: int,
    box: float,
    radius: float,
    seed: int,
    radius_high: Optional[float] = None,
    max_tries: int = 10_000,
) -> GeometricInstance:
    """Rejection-sample :func:`random_instance` until the derived graph is connected.

    Attempt k uses the child seed derive_seed(seed, k), which keeps the
    sampling uniform over connected instances and reproducible.
    """
    for attempt in range(max_tries):
        inst = random_instance(n, box, radius, derive_seed(seed, attempt), radius_high)
        if is_connected(instance_to_graph(inst)):
            return inst
    raise BadParameter(f"no connected instance found in {max_tries} attempts")


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
    center = max(range(G.n), key=lambda v: (G.degree(v), -v))
    cx, cy, _ = inst.disks[center]
    sectors: list[list[int]] = [[] for _ in range(6)]
    for u in G.neighbors(center):
        ux, uy, _ = inst.disks[u]
        angle = math.atan2(uy - cy, ux - cx)
        if angle < 0.0:
            angle += 2.0 * math.pi
        sectors[min(int(angle / _SECTOR), 5)].append(u)
    fullest = max(sectors, key=len)  # max() keeps the lowest sector on ties
    return VertexSet.of([center, *fullest], G.n)


def polygon_independence_bound(sides: int) -> PolygonBound:
    """Evaluate ceil(18*pi / (sides * sin(2*pi/sides))).

    A regular polygon inscribed in a unit circle that touches a given one
    fits inside the circle of radius 3 around it, so at most area(circle) /
    area(polygon) pairwise-disjoint polygons can all touch it.  Values
    within 1e-9 of an integer are nudged down before the ceiling so the
    result cannot flip on the last bit of a platform's libm; no such
    boundary case actually occurs for sides <= 64.
    """
    if sides < 3:
        raise BadParameter("a polygon needs at least 3 sides")
    scaled = sides * math.sin(2.0 * math.pi / sides)
    raw = 18.0 * math.pi / scaled
    return PolygonBound(sides, scaled / 2.0, math.ceil(raw - 1e-9))

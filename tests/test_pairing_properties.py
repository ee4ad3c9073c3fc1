"""Pairing equals the O(n^2) definition on structured, hypothesis-drawn instances.

Every coordinate and radius below is a small integer times a power of two,
so each squared distance and squared reach is exact and a tangent pair is an
edge in both computations.  Sizes run past the 32-disk all-pairs path, so
the strip sweep is drawn too.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diskapprox.geometry import GeometricInstance, instance_to_graph  # noqa: E402
from refimpl import all_pairs  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
POWERS = st.integers(-40, 40).map(lambda k: 2.0 ** k)


def pairs(disks) -> set:
    """The edge set ``instance_to_graph`` builds, after checking it against ``all_pairs``."""
    inst = GeometricInstance(tuple(disks))
    edges = set(instance_to_graph(inst).edges)
    assert edges == all_pairs(inst)
    return edges


@st.composite
def tangent_lattices(draw):
    """(rows, cols, disks): a rows x cols square lattice of radius-r disks at
    spacing 2r, its origin a few radii off 0, the ids shuffled."""
    r = draw(POWERS)
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    ox, oy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    disks = [((ox + 2 * i) * r, (oy + 2 * j) * r, r) for i in range(cols) for j in range(rows)]
    return rows, cols, draw(st.permutations(disks))


@st.composite
def coincident_groups(draw):
    """Groups of disks sharing a center on the r-grid, radii r/2, r or 2r."""
    r = draw(POWERS)
    count = draw(st.integers(1, 16))
    cells = draw(st.lists(st.integers(0, 13 * 13 - 1), min_size=count, max_size=count, unique=True))
    disks = [((x - 6) * r, (y - 6) * r, r * draw(st.sampled_from((0.5, 1.0, 2.0))))
             for x, y in (divmod(cell, 13) for cell in cells) for _ in range(draw(st.integers(1, 6)))]
    return draw(st.permutations(disks))


@st.composite
def one_large_disk(draw):
    """Unit disks at integer centers and one disk of radius 2^k, 1 <= k <= 8,
    at an integer center, inserted at any id."""
    count = draw(st.integers(1, 80))
    cells = draw(st.lists(st.integers(0, 33 * 33 - 1), min_size=count + 1, max_size=count + 1))
    disks = [(float(x - 16), float(y - 16), 1.0) for x, y in (divmod(cell, 33) for cell in cells)]
    x, y, _ = disks.pop()
    disks.insert(draw(st.integers(0, count)), (x, y, 2.0 ** draw(st.integers(1, 8))))
    return disks


@PROPERTY
@given(tangent_lattices())
def test_tangent_lattice_pairs_every_grid_neighbor(lattice):
    rows, cols, disks = lattice
    # each disk touches its row and column neighbors, never a diagonal one
    assert len(pairs(disks)) == rows * (cols - 1) + cols * (rows - 1)


@PROPERTY
@given(coincident_groups())
def test_coincident_groups(disks):
    pairs(disks)


@PROPERTY
@given(one_large_disk())
def test_one_large_disk_among_unit_ones(disks):
    pairs(disks)

"""Both instance file kinds round-trip through render_instance and parse_instance.

A geometric file must give back every disk bit for bit, over the whole
accepted range: coordinates within 2^500 of 0, negative zero and
subnormals included, and radii in [2^-500, 2^500].  Disks are compared by
``float.hex``, so -0.0 and 0.0 differ.  An abstract file must give back an
equal ``Graph``.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diskapprox.formats import parse_instance, render_instance  # noqa: E402
from diskapprox.geometry import GeometricInstance  # noqa: E402
from diskapprox.graphs import build_graph  # noqa: E402

PROPERTY = settings(max_examples=60)  # over the profile tests/conftest.py loads
# the ends of the range, negative zero, the least and the largest subnormal
COORDINATES = st.one_of(
    st.floats(-(2.0 ** 500), 2.0 ** 500),
    st.sampled_from((-(2.0 ** 500), 2.0 ** 500, -0.0, 5e-324, -5e-324, 2.225073858507201e-308)),
)
RADII = st.one_of(
    st.floats(2.0 ** -500, 2.0 ** 500),
    st.sampled_from((2.0 ** -500, 2.0 ** 500, 1.0)),
)


def bits(inst: GeometricInstance) -> list:
    return [tuple(map(float.hex, disk)) for disk in inst.disks]


@PROPERTY
@given(st.lists(st.tuples(COORDINATES, COORDINATES, RADII), max_size=12))
def test_geometric_file_round_trips_bit_for_bit(disks):
    inst = GeometricInstance(tuple(disks))
    assert bits(parse_instance(render_instance(inst))) == bits(inst)


@st.composite
def abstract_graphs(draw):
    n = draw(st.integers(0, 24))
    pairs = list(combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [pair for pair, keep in zip(pairs, present) if keep])


@PROPERTY
@given(abstract_graphs())
def test_abstract_file_round_trips_to_an_equal_graph(G):
    assert parse_instance(render_instance(G)) == G

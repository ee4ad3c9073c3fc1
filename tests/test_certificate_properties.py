"""Abstract graphs: each certified heuristic answers within its bound, or
refuses with a class certificate whose witness checks naively.

The paper's heuristics need no geometric representation, so an abstract
file reaches them with no promise that its graph is a disk graph.  On any
graph that ``vc``, ``mis``, ``ds``, ``ids``, ``tds`` or ``cds`` answers,
the answer must be valid and within the variant's bound of the exact
optimum.  A refusal must carry a witness:

* ``InducedStar``: a vertex adjacent to the other six, which are pairwise
  non-adjacent;
* ``MinDegreeExceeded`` (``vc``): every vertex has more than
  ``color bound - 1`` neighbors in the witness;
* ``NoEligibleVertex`` (``mis``): every vertex has ``bound + 1`` pairwise
  non-adjacent neighbors in the witness;
* ``IsolatedVertex`` (``tds``): a vertex with no neighbor;
* ``NotConnected`` (``cds``): a disconnected graph.

Graphs come from G(n, p), stars K_{1,k} (k = 5..8) with the center first
or last, complete bipartite K_{a,b} (a, b = 3..6), unit-disk draws with
their ids permuted, and a G(n, p) graph with a disjoint K_{a,b} after it
(so a refusal comes after some picks), at n up to the problem's oracle
cap.  ``color`` and
``online-color`` carry no certificate; ``tests/test_problem_properties.py``
checks them on disk graphs.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diskapprox.covering import ArrivalSequence  # noqa: E402
from diskapprox.errors import (  # noqa: E402
    InducedStar,
    IsolatedVertex,
    MinDegreeExceeded,
    NoEligibleVertex,
    NotConnected,
)
from diskapprox.exact import DEFAULT_LIMITS  # noqa: E402
from diskapprox.graphs import build_graph, is_connected  # noqa: E402
from diskapprox.problems import PROBLEMS, Options  # noqa: E402
from diskapprox.rng import Rng  # noqa: E402
from refimpl import disk_graph, has_independent_subset, random_graph, star  # noqa: E402

PROPERTY = settings(max_examples=30)  # over the profile tests/conftest.py loads
OPTIONS = Options(lambda n: ArrivalSequence.of(range(n)))
CASES = [
    (name, variant)
    for name in ("vc", "mis", "ds", "ids", "tds", "cds")
    for variant in PROBLEMS[name].bounds
]
# vc colors its core with 4 or 6 colors; mis picks a vertex whose
# neighborhood holds at most 3 or 5 pairwise non-adjacent vertices
COLOR_BOUND = {"unit": 4, "circle": 6}
ELIGIBILITY_BOUND = {"unit": 3, "circle": 5}
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def gnp(draw, cap):
    n = draw(st.integers(1, cap))
    p = draw(st.sampled_from((0.15, 0.3, 0.5, 0.7)))
    return random_graph(n, p, Rng(draw(SEEDS)))


@st.composite
def stars(draw):
    """K_{1,k}, k = 5..8, with the center at id 0 or id k."""
    k = draw(st.integers(5, 8))
    if draw(st.booleans()):
        return star(k)
    return build_graph(k + 1, [(v, k) for v in range(k)])


@st.composite
def bicliques(draw):
    a, b = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


@st.composite
def relabelled_disk_graphs(draw, cap):
    """A unit-disk draw's graph at mean degree about 6, its ids permuted."""
    n = draw(st.integers(1, cap))
    G = disk_graph(n, 1.0, None, draw(SEEDS))
    label = draw(st.permutations(range(n)))
    return build_graph(n, [(label[u], label[v]) for u, v in G.edges])


@st.composite
def unions(draw, cap):
    """A G(n, p) graph and a disjoint K_{a,b} after it, at n up to ``cap``."""
    H = draw(bicliques())
    G = draw(gnp(cap - H.n))
    return build_graph(G.n + H.n, G.edges + tuple((G.n + u, G.n + v) for u, v in H.edges))


def graphs(cap):
    return st.one_of(gnp(cap), stars(), bicliques(), relabelled_disk_graphs(cap), unions(cap))


def pairwise_non_adjacent(G, vertices) -> bool:
    return not any(G.has_edge(u, v) for u, v in combinations(vertices, 2))


def certifies(G, exc, variant) -> bool:
    """Does the refusal ``exc`` hold on ``G``, checked from the definitions?"""
    if isinstance(exc, IsolatedVertex):
        return not G.adj[exc.vertex]
    if isinstance(exc, NotConnected):
        return not is_connected(G)
    witness = set(exc.witness)
    inside = {v: [u for u in G.adj[v] if u in witness] for v in witness}
    if isinstance(exc, InducedStar):
        return len(witness) == 7 and any(
            len(inside[v]) == 6 and pairwise_non_adjacent(G, inside[v]) for v in witness
        )
    if isinstance(exc, MinDegreeExceeded):
        return bool(witness) and all(len(inside[v]) > COLOR_BOUND[variant] - 1 for v in witness)
    # NoEligibleVertex
    size = ELIGIBILITY_BOUND[variant] + 1
    return bool(witness) and all(has_independent_subset(G, inside[v], size) for v in witness)


@pytest.mark.parametrize("name, variant", CASES)
@PROPERTY
@given(data=st.data())
def test_abstract_input_answers_within_bound_or_certifies(name, variant, data):
    problem = PROBLEMS[name]
    G = data.draw(graphs(getattr(DEFAULT_LIMITS, problem.cap)), label="graph")
    try:
        answer = problem.heuristic(G, None, variant, OPTIONS, {})
    except (InducedStar, MinDegreeExceeded, NoEligibleVertex, IsolatedVertex, NotConnected) as exc:
        assert certifies(G, exc, variant), (exc, G.edges)
        return
    assert problem.check(G, answer.members), G.edges
    optimum, _ = problem.oracle(G)
    assert problem.ratio(len(answer), optimum) <= problem.bounds[variant], (len(answer), optimum, G.edges)

"""The problem table on hypothesis-drawn disk instances past the 32-disk all-pairs cut.

Each instance is a draw of 48-96 disks at mean degree about 6, reduced to
its giant component, with unit radii, radii in [0.5, 2], or radii from
{0.05, 1, 30} (mostly 1).  ``verify`` decides a geometric file from the
disks (``Problem.on_disks``) and an abstract file from the graph
(``Problem.check``); ``solve`` runs the heuristics on the graph either way.
"""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diskapprox.bench import tuned_box  # noqa: E402
from diskapprox.covering import ArrivalSequence  # noqa: E402
from diskapprox.formats import write_instance  # noqa: E402
from diskapprox.geometry import GeometricInstance, instance_to_graph  # noqa: E402
from diskapprox.graphs import components  # noqa: E402
from diskapprox.problems import PROBLEMS, Options  # noqa: E402
from refimpl import run_cli  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
# kind: (radius strategy, the radius range its box is tuned for, the variant)
RADII = {
    "unit": (st.just(1.0), (1.0, None), "unit"),
    "mixed": (st.floats(0.5, 2.0), (0.5, 2.0), "circle"),
    "three-scales": (st.sampled_from((1.0, 1.0, 1.0, 1.0, 0.05, 0.05, 30.0)), (1.0, None), "circle"),
}
OPTIONS = Options(lambda n: ArrivalSequence.of(range(n)))


@st.composite
def giant_components(draw):
    """(kind, instance): the giant component of 48-96 disks of one radius kind
    in the box tuned for mean degree 6, at more than 32 disks."""
    kind = draw(st.sampled_from(sorted(RADII)))
    radius, (low, high), _ = RADII[kind]
    n = draw(st.integers(48, 96))
    box = tuned_box(n, low, high, 6.0)
    coordinate = st.floats(0.0, box)
    disks = draw(st.lists(st.tuples(coordinate, coordinate, radius), min_size=n, max_size=n))
    giant = max(components(instance_to_graph(GeometricInstance(tuple(disks)))), key=len)
    assume(len(giant) > 32)
    return kind, GeometricInstance(tuple(disks[i] for i in giant))


@PROPERTY
@given(giant_components(), st.data())
def test_disk_verdict_equals_graph_verdict(drawn, data):
    # the heuristic's answer and answers forged from it: a member dropped,
    # three members added, a vertex given a neighbor's color
    kind, inst = drawn
    G = instance_to_graph(inst)
    variant = RADII[kind][2]
    for name, problem in PROBLEMS.items():
        answer = problem.heuristic(G, inst, variant, OPTIONS, {})
        if problem.coloring:
            colors = list(answer.colors)
            v = data.draw(st.sampled_from([v for v in range(G.n) if G.adj[v]]))
            forged = colors[:]
            forged[v] = colors[data.draw(st.sampled_from(G.adj[v]))]
            solutions = [colors, forged]
        else:
            members = list(answer.members)
            chosen = set(members)
            others = [v for v in range(G.n) if v not in chosen]
            dropped = members[:]
            del dropped[data.draw(st.integers(0, len(members) - 1))]
            # a cover of a dense draw can leave fewer than three out
            added = members + data.draw(st.permutations(others))[:3]
            solutions = [members, dropped, added]
        assert problem.check(G, solutions[0]), name
        for solution in solutions:
            assert problem.on_disks(inst, solution) == problem.check(G, solution), (name, solution)


def solve(path, problem: str, variant: str) -> tuple[int, str, str]:
    return run_cli(["solve", str(path), "--problem", problem, "--variant", variant])


@PROPERTY
@given(giant_components())
def test_geometric_and_abstract_files_solve_alike(drawn):
    # the same --variant on both files; unit mis sweeps the disks, so it is left out
    kind, inst = drawn
    variant = RADII[kind][2]
    with tempfile.TemporaryDirectory() as folder:
        geometric, abstract = Path(folder, "disks.udg"), Path(folder, "graph.udg")
        write_instance(inst, geometric)
        write_instance(instance_to_graph(inst), abstract)
        for name in PROBLEMS:
            if (name, variant) != ("mis", "unit"):
                document = solve(geometric, name, variant)
                assert document[0] == 0, (name, document)
                assert solve(abstract, name, variant) == document, name

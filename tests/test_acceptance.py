"""Acceptance suite: every guarantee the library advertises, exercised at
desk scale against the exact oracles.  One pass/fail line per criterion is
printed in the terminal summary."""

import gc
import math
import time
from decimal import ROUND_CEILING, Decimal, getcontext
from itertools import combinations

from diskapprox import checks
from diskapprox.bench import tuned_box
from diskapprox.cli import main as cli_main
from diskapprox.covering import (
    ArrivalSequence,
    color_offline,
    color_online_firstfit,
    vertex_cover,
)
from diskapprox.domination import (
    connected_dominating_set,
    dominating_set,
    independent_set_graph,
    total_dominating_set,
)
from diskapprox.exact import (
    exact_chromatic,
    exact_domination,
    exact_mis,
    exact_vc,
)
from diskapprox.formats import write_instance
from diskapprox.geometry import (
    instance_to_graph,
    polygon_independence_bound,
    random_connected_instance,
    random_instance,
    sector_clique,
    sweep_order,
)
from diskapprox.graphs import build_graph, degeneracy_ordering, greedy_maximal_independent_set
from diskapprox.matching import nt_decompose
from diskapprox.rng import Rng, derive_seed
from refimpl import all_labeled_graphs, random_graph


def unit_box(n, mean_degree=4.0):
    return tuned_box(n, 1.0, None, mean_degree)


def independent_subset_exists(G, candidates, size):
    """Exhaustive search for `size` pairwise non-adjacent vertices."""
    pool = list(candidates)

    def extend(start, chosen):
        if len(chosen) == size:
            return True
        for idx in range(start, len(pool)):
            if len(chosen) + (len(pool) - idx) < size:
                return False
            v = pool[idx]
            if any(G.has_edge(v, u) for u in chosen):
                continue
            if extend(idx + 1, chosen + [v]):
                return True
        return False

    return extend(0, [])


def test_criterion_1_vertex_cover_ratio(criterion):
    """500 unit-disk instances, n in [6, 18]: cover size <= ceil(1.5 * optimum)."""
    started = time.perf_counter()
    failures = []
    for index in range(500):
        n = 6 + index % 13
        inst = random_instance(n, unit_box(n), 1.0, derive_seed(0xA1, index))
        G = instance_to_graph(inst)
        cover = vertex_cover(G, 4)
        if not checks.is_vertex_cover(G, cover):
            failures.append((index, "not a cover"))
            continue
        optimum, _ = exact_vc(G)
        if len(cover) > math.ceil(1.5 * optimum):
            failures.append((index, f"{len(cover)} > ceil(1.5*{optimum})"))
    elapsed = time.perf_counter() - started
    criterion(
        "1 vertex-cover ratio <= 1.5",
        not failures,
        f"500 instances, {elapsed:.1f}s" if not failures else f"failures: {failures[:3]}",
    )


def _coloring_instances():
    for index in range(300):
        n = 4 + index % 11
        yield index, random_instance(n, unit_box(n), 1.0, derive_seed(0xA2, index))


def test_criterion_2_offline_coloring(criterion):
    """300 instances, n <= 14: colors <= 3*chromatic and <= degeneracy + 1."""
    failures = []
    for index, inst in _coloring_instances():
        G = instance_to_graph(inst)
        coloring = color_offline(G)
        assert checks.is_proper_coloring(G, coloring.colors)
        chromatic, _ = exact_chromatic(G)
        degeneracy = degeneracy_ordering(G).degeneracy
        if coloring.num_colors > 3 * chromatic:
            failures.append((index, f"{coloring.num_colors} > 3*{chromatic}"))
        if coloring.num_colors > degeneracy + 1:
            failures.append((index, f"{coloring.num_colors} > {degeneracy}+1"))
    criterion(
        "2 off-line coloring <= 3x optimum",
        not failures,
        "300 instances" if not failures else f"failures: {failures[:3]}",
    )


def test_criterion_3_online_coloring(criterion):
    """Same instances, 20 random arrival orders each: colors <= 6*chromatic and <= max degree + 1."""
    failures = []
    runs = 0
    for index, inst in _coloring_instances():
        G = instance_to_graph(inst)
        chromatic, _ = exact_chromatic(G)
        cap = G.max_degree() + 1
        for arrival in range(20):
            sequence = ArrivalSequence.random(G.n, derive_seed(0xA3, index * 100 + arrival))
            coloring = color_online_firstfit(G, sequence)
            assert checks.is_proper_coloring(G, coloring.colors)
            runs += 1
            if coloring.num_colors > 6 * chromatic:
                failures.append((index, arrival, f"{coloring.num_colors} > 6*{chromatic}"))
            if coloring.num_colors > cap:
                failures.append((index, arrival, f"{coloring.num_colors} > {cap}"))
    criterion(
        "3 on-line first-fit 6-competitive",
        not failures,
        f"{runs} runs" if not failures else f"failures: {failures[:3]}",
    )


def test_criterion_4_independent_set(criterion):
    """500 instances, n <= 16: both variants reach a third of the optimum;
    the geometric sweep scales near-linearly from n=1e3 to n=1e4."""
    failures = []
    for index in range(500):
        n = 4 + index % 13
        inst = random_instance(n, unit_box(n), 1.0, derive_seed(0xA4, index))
        G = instance_to_graph(inst)
        optimum, _ = exact_mis(G)
        by_graph = independent_set_graph(G, 3)
        by_sweep = greedy_maximal_independent_set(G, sweep_order(inst))
        for label, chosen in (("graph", by_graph), ("sweep", by_sweep)):
            if not checks.is_independent_set(G, chosen):
                failures.append((index, label, "not independent"))
            elif 3 * len(chosen) < optimum:
                failures.append((index, label, f"3*{len(chosen)} < {optimum}"))

    # both instances exist before any timing, and the small and large runs
    # alternate, so drift over the test hits both sides of the ratio alike
    sizes = (1_000, 10_000)
    instances = [random_instance(n, unit_box(n), 1.0, derive_seed(0xA5, n)) for n in sizes]
    best = [float("inf")] * len(sizes)
    for _ in range(3):
        for slot, inst in enumerate(instances):
            gc.collect()
            t0 = time.perf_counter()
            greedy_maximal_independent_set(instance_to_graph(inst), sweep_order(inst))
            best[slot] = min(best[slot], time.perf_counter() - t0)
    small, large = best
    growth = large / small
    if growth >= 20.0:
        failures.append(("scaling", f"x{growth:.1f} for 10x vertices"))
    criterion(
        "4 independent set >= optimum/3",
        not failures,
        f"500 instances, 10x n -> x{growth:.1f} time"
        if not failures
        else f"failures: {failures[:3]}",
    )


def test_criterion_5_domination_family(criterion):
    """300 connected instances, n <= 13: dominating within 5x, connected and
    total domination within 10x, all validity checks green."""
    failures = []
    for index in range(300):
        n = 4 + index % 10
        inst, G = random_connected_instance(n, unit_box(n), 1.0, derive_seed(0xA6, index))

        plain = dominating_set(G)
        if not checks.is_independent_dominating_set(G, plain):
            failures.append((index, "ds invalid"))
        if len(plain) > 5 * exact_domination(G, "plain")[0]:
            failures.append((index, "ds ratio > 5"))
        if len(plain) > 5 * exact_domination(G, "independent")[0]:
            failures.append((index, "ids ratio > 5"))

        total = total_dominating_set(G)
        if not checks.is_total_dominating_set(G, total):
            failures.append((index, "tds invalid"))
        optimum_total = exact_domination(G, "total")[0]
        if len(total) > 10 * optimum_total:
            failures.append((index, "tds ratio > 10"))

        connected, trace = connected_dominating_set(G)
        if not checks.is_connected_dominating_set(G, connected):
            failures.append((index, "cds invalid"))
        if len(connected) > 10 * exact_domination(G, "connected")[0]:
            failures.append((index, "cds ratio > 10"))
        if len(connected) > 10 * optimum_total:
            failures.append((index, "cds vs total ratio > 10"))
        for picked, connectors in zip(trace.independent, trace.connectors):
            if len(connectors) > len(picked):
                failures.append((index, "level connectors exceed choices"))
    criterion(
        "5 domination family within 5x / 10x",
        not failures,
        "300 connected instances" if not failures else f"failures: {failures[:3]}",
    )


def test_criterion_6_nt_decomposition(criterion):
    """All labeled graphs n <= 5 plus 1000 random graphs n <= 10: the
    decomposition lower-bounds the optimum, the excluded side is independent
    into forced, and some minimum cover contains the forced side."""
    failures = []

    def audit(tag, G):
        decomposition = nt_decompose(G)
        forced = set(decomposition.forced)
        optimum, _ = exact_vc(G)
        if decomposition.lower_bound > optimum:
            failures.append((tag, "lower bound exceeds optimum"))
        if not checks.is_independent_set(G, decomposition.excluded):
            failures.append((tag, "excluded side not independent"))
        for v in decomposition.excluded:
            if not set(G.adj[v]) <= forced:
                failures.append((tag, "excluded neighbor outside forced"))
                break
        found = any(
            forced <= set(candidate) and checks.is_vertex_cover(G, candidate)
            for candidate in combinations(range(G.n), optimum)
        )
        if not found:
            failures.append((tag, "no minimum cover contains the forced side"))

    count = 0
    for n in range(6):
        for G in all_labeled_graphs(n):
            audit(f"labeled n={n}", G)
            count += 1
    rng = Rng(0xA7)
    for index in range(1000):
        n = 1 + rng.randrange(10)
        audit(f"random {index}", random_graph(n, rng.uniform(), rng))
        count += 1
    criterion(
        "6 half-integral decomposition",
        not failures,
        f"{count} graphs" if not failures else f"failures: {failures[:3]}",
    )


def test_criterion_7_structural_properties(criterion):
    """1000 unit instances: neighborhoods never hold 6 independent vertices,
    the sweep-first vertex holds at most 3, and the sector clique is a clique
    of size >= ceil(max_degree/6) + 1."""
    failures = []
    for index in range(1000):
        n = 5 + index % 21
        box = tuned_box(n, 1.0, None, 5.0)
        inst = random_instance(n, box, 1.0, derive_seed(0xA8, index))
        G = instance_to_graph(inst)

        for v in range(G.n):
            nbrs = G.adj[v]
            if len(nbrs) >= 6 and independent_subset_exists(G, nbrs, 6):
                failures.append((index, v, "induced six-star"))
        first = sweep_order(inst)[0]
        if independent_subset_exists(G, G.adj[first], 4):
            failures.append((index, "sweep-first independence > 3"))

        clique = sector_clique(inst, G)
        if not checks.is_clique(G, clique):
            failures.append((index, "sector set not a clique"))
        if len(clique) < -(-G.max_degree() // 6) + 1:
            failures.append((index, "sector clique too small"))
    criterion(
        "7 structural packing properties",
        not failures,
        "1000 instances" if not failures else f"failures: {failures[:3]}",
    )


def test_criterion_8_polygon_bound(criterion):
    """Closed form gives 22/15/11 for 3/4/6 sides and matches an 80-digit
    evaluation for every p <= 64."""
    getcontext().prec = 80
    pi = Decimal(
        "3.14159265358979323846264338327950288419716939937510"
        "58209749445923078164062862089986280348253421170679"
    )

    def dec_sin(x):
        term = x
        total = x
        k = 1
        while True:
            term = -term * x * x / ((2 * k) * (2 * k + 1))
            total += term
            if abs(term) < Decimal(10) ** -70:
                return total
            k += 1

    failures = []
    for sides, expected in ((3, 22), (4, 15), (6, 11)):
        got = polygon_independence_bound(sides).independence_bound
        if got != expected:
            failures.append((sides, got, expected))
    for sides in range(3, 65):
        value = 18 * pi / (sides * dec_sin(2 * pi / sides))
        reference = int(value.to_integral_value(rounding=ROUND_CEILING))
        got = polygon_independence_bound(sides).independence_bound
        if got != reference:
            failures.append((sides, got, reference))
        distance = abs(value - value.to_integral_value())
        if distance < Decimal("1e-9"):
            failures.append((sides, "value sits on the integer boundary"))
    criterion(
        "8 polygon independence bound",
        not failures,
        "p = 3..64 vs 80-digit reference" if not failures else f"failures: {failures[:3]}",
    )


def test_criterion_9_circle_variants(criterion):
    """300 arbitrary-radius instances (r in [0.5, 2]), n <= 14: cover within
    5/3, independent set within 5, off-line coloring within 6."""
    failures = []
    for index in range(300):
        n = 4 + index % 11
        box = tuned_box(n, 0.5, 2.0, 4.0)
        inst = random_instance(n, box, 0.5, derive_seed(0xA9, index), radius_high=2.0)
        G = instance_to_graph(inst)

        cover = vertex_cover(G, 6)
        optimum, _ = exact_vc(G)
        if not checks.is_vertex_cover(G, cover):
            failures.append((index, "not a cover"))
        elif 3 * len(cover) > 5 * optimum:
            failures.append((index, f"cover {len(cover)} > 5/3 * {optimum}"))

        chosen = independent_set_graph(G, 5)
        best, _ = exact_mis(G)
        if not checks.is_independent_set(G, chosen):
            failures.append((index, "not independent"))
        elif 5 * len(chosen) < best:
            failures.append((index, f"5*{len(chosen)} < {best}"))

        coloring = color_offline(G)
        assert checks.is_proper_coloring(G, coloring.colors)
        chromatic, _ = exact_chromatic(G)
        if coloring.num_colors > 6 * chromatic:
            failures.append((index, f"{coloring.num_colors} > 6*{chromatic}"))
    criterion(
        "9 circle variants 5/3, 5, 6",
        not failures,
        "300 instances" if not failures else f"failures: {failures[:3]}",
    )


def test_criterion_10_cli_determinism(criterion, capsys, tmp_path):
    """Every CLI invocation with a fixed seed is byte-identical across runs."""
    instance_path = str(tmp_path / "det.udg")
    write_instance(
        random_connected_instance(10, unit_box(10), 1.0, 0xB0)[0], instance_path
    )
    k44 = build_graph(8, [(u, 4 + v) for u in range(4) for v in range(4)])

    invocations = [
        ["gen", "-n", "30", "--box", "9", "--radius", "1", "--seed", "12"],
        ["gen", "-n", "12", "--box", "6", "--radius", "1", "--seed", "12", "--connected"],
        ["gen", "-n", "12", "--box", "8", "--radius", "0.5:2", "--seed", "12"],
        ["solve", instance_path, "--problem", "vc"],
        ["solve", instance_path, "--problem", "color"],
        ["solve", instance_path, "--problem", "online-color", "--order", "random:5"],
        ["solve", instance_path, "--problem", "mis"],
        ["solve", instance_path, "--problem", "ds"],
        ["solve", instance_path, "--problem", "tds"],
        ["solve", instance_path, "--problem", "cds", "--root", "3"],
        ["exact", instance_path, "--problem", "vc"],
        ["exact", instance_path, "--problem", "color"],
        ["exact", instance_path, "--problem", "cds"],
        ["bench", "--instances", "5", "--n-range", "6:12",
         "--problems", "vc,color,online-color,mis,ds,ids,tds,cds", "--seed", "3"],
        ["bench", "--instances", "3", "--n-range", "6:10",
         "--problems", "vc,color,mis", "--seed", "3", "--radius", "0.5:2"],
        ["bound", "--polygon", "4"],
    ]
    failures = []
    for argv in invocations:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out.encode(), captured.err.encode()))
        if runs[0] != runs[1]:
            failures.append(argv[0])
        if runs[0][0] != 0:
            failures.append((argv, "nonzero exit"))
    # class-certificate rejections are deterministic too
    k44_path = str(tmp_path / "k44.udg")
    write_instance(k44, k44_path)
    codes = set()
    for _ in range(2):
        codes.add(cli_main(["solve", k44_path, "--problem", "vc"]))
        capsys.readouterr()
    if codes != {2}:
        failures.append(("k44", codes))
    criterion(
        "10 CLI byte-level determinism",
        not failures,
        f"{len(invocations)} invocations x2" if not failures else f"failures: {failures[:3]}",
    )

"""Fixed-seed CLI outputs, locked to a recorded digest.

The matrix runs every problem through solve (and verify on the result) on a
unit, a mixed-radius and an abstract instance, every problem through exact,
and both bench variants.  Any change to a heuristic's tie-breaking, the
dispatch, or the output formats moves the digest.
"""

import hashlib

from diskapprox import cli, problems
from diskapprox.covering import ArrivalSequence
from diskapprox.formats import write_instance
from diskapprox.geometry import random_connected_instance
from diskapprox.graphs import build_graph
from refimpl import run_cli

ALL = ("vc", "color", "online-color", "mis", "ds", "ids", "tds", "cds")

# sha256 of the matrix below, recorded from commit 63ea57b, before the
# problem table replaced the per-command dispatch.
GOLDEN = "f32a0be38eb158327cf4541e0d72afef69d01e70fc5a1bf3e729ad7dc6631664"


def matrix_digest(workdir) -> str:
    """Run the CLI matrix with files under ``workdir``; digest of every argv and result."""
    total = hashlib.sha256()

    def record(argv, files=()):
        code, out, err = run_cli([*argv, *files])
        names = [str(f).rsplit("/", 1)[-1] for f in files]
        total.update(repr((argv, names, code, out, err)).encode())
        return code, out

    paths = {}
    for name, gen in (
        ("unit", ["-n", "150", "--box", "18", "--radius", "1", "--seed", "7"]),
        ("mixed", ["-n", "60", "--box", "16", "--radius", "0.5:2", "--seed", "8"]),
        ("small", ["-n", "12", "--box", "5", "--radius", "1", "--seed", "3"]),
    ):
        paths[name] = f"{workdir}/{name}.udg"
        record(["gen", *gen, "--connected", "-o"], [paths[name]])
    paths["abstract"] = f"{workdir}/abstract.udg"
    write_instance(random_connected_instance(40, 9.0, 1.0, 9)[1], paths["abstract"])
    paths["k44"] = f"{workdir}/k44.udg"
    write_instance(build_graph(8, [(u, 4 + v) for u in range(4) for v in range(4)]), paths["k44"])

    for name in ("unit", "mixed", "abstract", "k44"):
        for problem in ALL:
            code, out = record(["solve", "--problem", problem], [paths[name]])
            if code != 0:
                continue
            solution = f"{workdir}/{name}-{problem}.json"
            with open(solution, "w", encoding="utf-8") as handle:
                handle.write(out)
            record(["verify"], [paths[name], solution])
    for extra in (
        ["--problem", "online-color", "--order", "random:5"],
        ["--problem", "cds", "--root", "3"],
        ["--problem", "mis", "--variant", "unit"],
        ["--problem", "vc", "--variant", "circle"],
    ):
        record(["solve", *extra], [paths["mixed"]])
    for problem in ALL:
        record(["exact", "--problem", problem], [paths["small"]])
    record(["bench", "--instances", "3", "--n-range", "6:12", "--problems", ",".join(ALL),
            "--seed", "1"])
    record(["bench", "--instances", "3", "--n-range", "6:12", "--problems", "vc,color,mis",
            "--seed", "2", "--radius", "0.5:2"])
    return total.hexdigest()


def test_cli_matrix_matches_the_recorded_digest(tmp_path):
    assert matrix_digest(tmp_path) == GOLDEN


def test_problem_table_is_complete():
    assert cli.SOLVE_PROBLEMS == tuple(problems.PROBLEMS) == ALL
    inst, G = random_connected_instance(10, 4.0, 1.0, 21)
    options = problems.Options(lambda n: ArrivalSequence.of(range(n)))
    for name, problem in problems.PROBLEMS.items():
        assert problem.bounds["unit"] >= 1.0, name
        answer = problem.heuristic(G, inst, "unit", options, {})
        solution = answer.colors if problem.coloring else answer.members
        assert problem.check(G, solution), name
        opt, witness = problem.oracle(G)
        assert problem.check(G, witness.colors if problem.coloring else witness.members), name
        assert 1.0 <= problem.ratio(problem.size(answer), opt) <= problem.bounds["unit"], name

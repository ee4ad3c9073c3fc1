"""README's ``python`` blocks run as written, so the docs cannot name a deleted function."""

import re
from pathlib import Path

from diskapprox import OracleLimits, checks, exact_mis, exact_vc

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)


def test_library_example_runs_and_keeps_its_bounds():
    blocks = python_blocks()
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    G, cover, mis = scope["G"], scope["cover"], scope["mis"]
    limits = OracleLimits(max_independent_set=G.n, max_vertex_cover=G.n)
    assert checks.is_vertex_cover(G, cover)
    assert len(cover) <= 1.5 * exact_vc(G, limits)[0]
    assert checks.is_independent_set(G, mis)
    assert 3 * len(mis) >= exact_mis(G, limits)[0]

"""The README's "Library tour" block runs against the library in `src/`
and prints what its comments say."""

import contextlib
import io
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tour_block() -> str:
    """The first python block under the README's "Library tour" heading."""
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_library_tour_runs_as_documented():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour_block(), "README.md", "exec"), {})
    bracket, beta, cycles = out.getvalue().splitlines()
    lower, upper, witness = bracket.split()
    golden = math.log((1 + math.sqrt(5)) / 2)
    assert math.isclose(float(lower), golden, rel_tol=1e-12)
    assert math.isclose(float(upper), golden, rel_tol=1e-12)
    assert witness == "01"
    assert beta == "1"
    assert cycles == "([Cycle(word=(1,))], True)"

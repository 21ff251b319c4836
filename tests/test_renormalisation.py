"""Running products across both ends of the renormalisation window.

Every step of each cocycle below has the same log norm s, so a depth-n
product has log norm exactly n * s.  The steps are far enough from norm 1
that running products leave [1e-100, 1e100] within a few steps and are
rescaled several times over the depths used here.
"""

import math

import numpy as np
import pytest

import ergopt as eo
from ergopt.cocycle import cocycle_log_product


def large_end(space):
    """Diagonal steps of norm 1e30: entries pass 1e100 at step 4."""
    step = np.diag([1e30, 1.0])
    return eo.MatrixCocycle(space, 2, 1, {(0,): step, (1,): step}), math.log(1e30)


def small_end(space):
    """Steps exp(-92) I, the scale carried by the weight: entries fall
    below 1e-100 at step 3."""
    return eo.from_potential(eo.constant_potential(space, -92.0), d=2), -92.0


@pytest.mark.parametrize("make", [large_end, small_end], ids=["large", "small"])
def test_products_match_closed_form_across_window(full2, make):
    A, s = make(full2)

    word = (0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0)
    logscale, P = cocycle_log_product(A, word)
    assert logscale != 0.0
    assert logscale + math.log(eo.op_norm(P)) == pytest.approx(len(word) * s, rel=1e-12)

    c = eo.make_cycle(full2, (0, 0, 0, 1, 1))
    assert float(eo.cycle_exponent(A, c)) == pytest.approx(s, rel=1e-12)

    series = eo.finite_time_exponents(full2, A, ((1,), c), 40)
    np.testing.assert_allclose(series, s, rtol=1e-12)

    for n in (1, 4, 9):
        assert eo.upper_bound(full2, A, n) == pytest.approx(s, rel=1e-12)

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
from ergopt.cocycle import _renormalise_rows, cocycle_log_product


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


def renormalise_per_row(P, logscale):
    """Reference: the per-row rule, each row's largest entry from a
    reduction over the row, then every row outside [1e-100, 1e100] divided
    by it and its log added to the row's log scale."""
    nrm = np.abs(P).reshape(len(P), -1).max(axis=1)
    if nrm.max() <= 1e100 and nrm.min() >= 1e-100:
        return
    out = (nrm > 1e100) | ((0.0 < nrm) & (nrm < 1e-100))
    P[out] /= nrm[out, None, None]
    logscale[out] += np.log(nrm[out])


# the largest entry of a row: inside the window, at either end and one
# rounding either side of it, far outside, zero and infinite
EDGES = [1.0, 1e100, 1e100 * (1 + 2**-52), 1e100 * (1 - 2**-52), np.nextafter(1e100, np.inf),
         1e-100, 1e-100 * (1 + 2**-52), 1e-100 * (1 - 2**-52), np.nextafter(1e-100, 0.0),
         1e200, 1e-200, 0.0, np.inf]


@pytest.mark.parametrize("N", [1, 2, 63, 4097])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_renormalise_rows_matches_the_per_row_rule(d, N):
    """The entry-sum test decides as the per-row maxima do: P and the log
    scales are byte-equal to the reference's, for stacks whose rows all
    sit at one edge and for a stack mixing every edge, and no warning is
    raised."""
    rng = np.random.default_rng(10 * d + N)
    stacks = [np.full(N, edge) for edge in EDGES] + [rng.choice(EDGES, N)]
    for tops in stacks:
        # each row's largest modulus is exactly its top: the rest is below it
        P = rng.uniform(-1.0, 1.0, (N, d, d))
        P = P / np.abs(P).reshape(N, -1).max(axis=1)[:, None, None]
        with np.errstate(invalid="ignore"):  # an entry 0 of an infinite row
            P = P * tops[:, None, None]
        P[np.isnan(P)] = 0.0
        logscale = rng.standard_normal(N)
        want_P, want_log = P.copy(), logscale.copy()
        with np.errstate(invalid="ignore"):  # the reference divides inf by inf
            renormalise_per_row(want_P, want_log)
        _renormalise_rows(P, logscale)  # RuntimeWarnings are errors here
        assert P.tobytes() == want_P.tobytes()
        assert logscale.tobytes() == want_log.tobytes()

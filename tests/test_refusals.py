"""Every refusal of the package, reached once: each case calls one public
or private entry point with one bad argument and expects its error."""

import math
from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt import report
from ergopt.cocycle import _step_rows
from ergopt.errors import (
    InadmissibleWordError,
    NoCycleError,
    ParseError,
    ShapeMismatchError,
    ValidationError,
)
from ergopt.shift import _word_index

FULL2 = eo.new_shift(2)
GOLDEN = eo.new_shift(2, [[True, True], [True, False]])
# 0 -> 1 -> 2 -> 0: no cycle shorter than 3
RING3 = eo.new_shift(3, [[False, True, False], [False, False, True], [True, False, False]])
EYE = np.eye(2)
PAIR = eo.MatrixCocycle(FULL2, 2, 1, {(0,): np.array([[1.0, 1.0], [0.0, 1.0]]),
                                      (1,): np.array([[1.0, 0.0], [1.0, 1.0]])})
STEP = eo.ScalarPotential(FULL2, 1, {(0,): Fraction(0), (1,): Fraction(1)})
STEP2 = STEP.lift(2)
FIXED = eo.make_cycle(FULL2, (0,))
MARKOV = eo.markov_measure(FULL2, [[0.5, 0.5], [0.5, 0.5]])

CASES = {
    # cocycle.py
    "potential_value_inadmissible": (lambda: STEP.value((2,)), InadmissibleWordError),
    "potential_sum_short_word": (lambda: STEP2.birkhoff_sum((0,)), InadmissibleWordError),
    "potential_add_other_space": (
        lambda: STEP + eo.constant_potential(GOLDEN, 0), ShapeMismatchError),
    "potential_value_nan": (
        lambda: eo.ScalarPotential(FULL2, 1, {(0,): math.nan, (1,): 0.0}), ValidationError),
    "potential_value_inf": (
        lambda: eo.ScalarPotential(FULL2, 1, {(0,): 0.0, (1,): -math.inf}), ValidationError),
    "cocycle_table_keys": (
        lambda: eo.MatrixCocycle(FULL2, 2, 1, {(0,): EYE}), ValidationError),
    "cocycle_shape": (
        lambda: eo.MatrixCocycle(FULL2, 2, 1, {(0,): EYE, (1,): np.eye(3)}), ShapeMismatchError),
    "cocycle_non_finite": (
        lambda: eo.MatrixCocycle(FULL2, 2, 1, {(0,): EYE, (1,): np.full((2, 2), math.nan)}),
        ValidationError),
    "cocycle_weight_memory": (
        lambda: eo.MatrixCocycle(FULL2, 2, 1, {(0,): EYE, (1,): EYE}, STEP2), ShapeMismatchError),
    "cocycle_lift_lower": (lambda: PAIR.lift(2).lift(1), ValidationError),
    "cocycle_additive_d2": (lambda: PAIR.additive_potential(), ShapeMismatchError),
    "cocycle_matrix_inadmissible": (lambda: PAIR.matrix((2,)), InadmissibleWordError),
    "step_rows_letter": (
        lambda: _step_rows(_word_index(FULL2, 1), np.array([[2]])), InadmissibleWordError),
    "gamma_apply_other_space": (
        lambda: eo.gamma_apply(eo.constant_potential(GOLDEN, 0), PAIR), ShapeMismatchError),
    "from_potential_d0": (lambda: eo.from_potential(STEP, d=0), ValidationError),
    # optimize.py
    "lower_bound_no_cycle": (
        lambda: eo.lower_bound_cycles(RING3, eo.identity_cocycle(RING3, 2), 2), ValidationError),
    "lower_bound_p_max_0": (lambda: eo.lower_bound_cycles(FULL2, PAIR, 0), ValidationError),
    "upper_bound_n_0": (lambda: eo.upper_bound(FULL2, PAIR, 0), ValidationError),
    "bracket_n_max_0": (lambda: eo.beta_bracket(FULL2, PAIR, n_max=0), ValidationError),
    "bracket_gap_tol_0": (lambda: eo.beta_bracket(FULL2, PAIR, gap_tol=0.0), ValidationError),
    "bracket_gap_tol_nan": (
        lambda: eo.beta_bracket(FULL2, PAIR, gap_tol=math.nan), ValidationError),
    "candidates_slack_negative": (
        lambda: eo.matrix_candidates(FULL2, PAIR, slack=-1e-9), ValidationError),
    "candidates_slack_nan": (
        lambda: eo.matrix_candidates(FULL2, PAIR, slack=math.nan), ValidationError),
    # measures.py
    "markov_shape": (
        lambda: eo.MarkovMeasure(FULL2, ((1.0,),), (1.0,)), ShapeMismatchError),
    "markov_rows": (
        lambda: eo.MarkovMeasure(FULL2, ((0.5, 0.6), (0.5, 0.5)), (0.5, 0.5)), ValidationError),
    "markov_rows_nan": (
        lambda: eo.MarkovMeasure(FULL2, ((math.nan, 1.0), (0.5, 0.5)), (0.5, 0.5)),
        ValidationError),
    "markov_not_stationary": (
        lambda: eo.MarkovMeasure(FULL2, ((0.5, 0.5), (0.5, 0.5)), (0.9, 0.1)), ValidationError),
    "markov_inadmissible": (
        lambda: eo.MarkovMeasure(GOLDEN, ((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5)), ValidationError),
    "markov_measure_shape": (
        lambda: eo.markov_measure(FULL2, [[1.0, 0.0]]), ShapeMismatchError),
    "orbit_average_n_0": (lambda: eo.cesaro_push(FULL2, (), FIXED, 0), ValidationError),
    "orbit_average_preamble": (
        lambda: eo.cesaro_push(RING3, (0,), eo.make_cycle(RING3, (0, 1, 2)), 4), ValidationError),
    "exponent_of_orbit_average": (
        lambda: eo.exponent_of_measure(FULL2, PAIR, eo.cesaro_push(FULL2, (1,), FIXED, 4)),
        ValidationError),
    "exponent_of_measure_n_max_0": (
        lambda: eo.exponent_of_measure(FULL2, PAIR, MARKOV, n_max=0), ValidationError),
    "weakstar_i_max_0": (
        lambda: eo.weakstar_distance(MARKOV, MARKOV, 0), ValidationError),
    "weakstar_other_space": (
        lambda: eo.weakstar_distance(MARKOV, eo.periodic_measure(GOLDEN, FIXED), 4),
        ShapeMismatchError),
    # irregular.py and shift.py
    "schedule_lengths": (
        lambda: eo.BlockSchedule((FIXED, FIXED), ((0, 0), (0, 0)), (3, 3), 1.0, 2),
        ValidationError),
    "irregular_one_block": (
        lambda: eo.build_irregular_point(FULL2, PAIR, FIXED, eo.make_cycle(FULL2, (1,)), J=1),
        ValidationError),
    "irregular_ratio_overflows": (
        lambda: eo.build_irregular_point(FULL2, PAIR, FIXED, eo.make_cycle(FULL2, (0, 1)),
                                         r=1e200, J=4), ValidationError),
    # the total of the lengths passes float64 before a length does
    "irregular_total_overflows": (
        lambda: eo.build_irregular_point(FULL2, PAIR, FIXED, eo.make_cycle(FULL2, (0, 1)),
                                         r=3.0, J=1000), ValidationError),
    "shift_relation_shape": (lambda: eo.new_shift(3, [[True] * 3] * 2), NoCycleError),
    # report.py
    "parse_system_transitions": (
        lambda: report.parse_system({"alphabet": 2, "transitions": [1, 2]}), ParseError),
    "parse_scalar_list": (lambda: report._parse_scalar([1]), ParseError),
    "require_missing": (lambda: report._require({"alphabet": 2}, "transitions"), ValidationError),
    "parse_measure_neither": (lambda: report.parse_measure(FULL2, {}), ValidationError),
    "parse_measure_not_object": (lambda: report.parse_measure(FULL2, "0"), ParseError),
    "get_cocycle_neither": (
        lambda: report._get_cocycle(FULL2, {"experiment": "beta"}, {}), ValidationError),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_refused(case):
    call, error = case
    with pytest.raises(error):
        call()


def test_unhinted_search_prunes_nothing():
    """The default hint -inf is the pruned search with its floor at -inf:
    it visits every admissible word of each length up to n, and no more."""
    A = eo.MatrixCocycle(GOLDEN, 2, 1, {(0,): np.array([[2.0, 1.0], [0.0, 0.5]]),
                                        (1,): np.array([[0.5, 0.0], [1.0, 2.0]])})
    for n in range(1, 8):
        visited = sum(len(eo.admissible_words(GOLDEN, j)) for j in range(1, n + 1))
        assert eo.upper_bound(GOLDEN, A, n, budget=visited) == \
            eo.upper_bound(GOLDEN, A, n, lower_hint=-math.inf)
        with pytest.raises(eo.errors.BudgetExceededError):
            eo.upper_bound(GOLDEN, A, n, budget=visited - 1)


def test_one_measure_stability_has_no_gap():
    res = eo.stability_radius([eo.periodic_measure(FULL2, FIXED)], PAIR, trials=5, seed=1)
    assert res.gap == math.inf and res.argmax_index == 0 and res.trials_invariant == 5
    assert 0 < res.delta < math.inf

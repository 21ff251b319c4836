"""Every refusal of the package, reached once: each case calls one public
or private entry point with one bad argument and expects its error, and
where given, a message that names the cause."""

import math
from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt import report
from ergopt.cocycle import _step_rows, cocycle_log_product
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
# 1 -> 0 is the one forbidden transition
UPPER = eo.new_shift(2, [[True, True], [False, True]])
UPPER_PAIR = eo.MatrixCocycle(UPPER, 2, 1, PAIR.table)
GOLDEN_PAIR = eo.MatrixCocycle(GOLDEN, 2, 1, PAIR.table)
FULL3 = eo.new_shift(3)
# valid steps whose products leave float64: around the cycle 01 the
# renormalised product underflows to [[0, 1], [0, 0]]; diag(1e200, 1e-200)
# renormalises to a singular matrix
BIG = {"0": [[0, 1e120], [1e-120, 0]], "1": [[1e120, 0], [0, 1e-120]]}
PAIR_JSON = {"0": [[1, 1], [0, 1]], "1": [[1, 0], [1, 1]]}
SPREAD = [[1e100, 0], [0, 1e-100]]
DOUBLING = eo.MatrixCocycle(FULL2, 2, 1, {(0,): np.diag([2.0, 1.0]), (1,): EYE})
# a rational past float64, and two memory-64 words: a table far smaller
# than the 2^64 memory-words it should cover
HUGE = "1" + "0" * 400
LONG = {(0,) * 64: Fraction(0), (1,) * 64: Fraction(1)}


def matrix_config(experiment: str, params: dict, matrices: dict) -> dict:
    return {"system": {"alphabet": 2}, "experiment": experiment, "params": params,
            "cocycle": {"d": 2, "memory": 1, "matrices": matrices}}


def potential_config(experiment: str, params: dict, values: dict) -> dict:
    return {"system": {"alphabet": 2}, "experiment": experiment, "params": params,
            "potential": {"memory": 1, "values": values}}


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
    "from_potential_negative_d": (lambda: eo.from_potential(STEP, d=-1), ValidationError),
    # d < 1 is refused by the cocycle itself, before numpy sees a 0 x 0 matrix
    "identity_cocycle_d0": (lambda: eo.identity_cocycle(FULL2, 0), ValidationError),
    "identity_cocycle_negative_d": (lambda: eo.identity_cocycle(FULL2, -2), ValidationError),
    "cocycle_d0": (
        lambda: eo.MatrixCocycle(FULL2, 0, 1, {(0,): np.zeros((0, 0)), (1,): np.zeros((0, 0))}),
        ValidationError),
    "cocycle_product_overflows": (
        lambda: eo.cocycle_product(DOUBLING, (0,) * 2000), ValidationError,
        "2000 letters overflows float64"),
    # optimize.py
    "lower_bound_no_cycle": (
        lambda: eo.lower_bound_cycles(RING3, eo.identity_cocycle(RING3, 2), 2), ValidationError),
    # a cycle built without `make_cycle`: at memory 1 its wrap 1 -> 0, and
    # the fixed point 1 of the golden shift, are still refused
    "cycle_exponent_forbidden_wrap": (
        lambda: eo.cycle_exponent(UPPER_PAIR, eo.Cycle((0, 1))), InadmissibleWordError),
    "restricted_beta_forbidden_fixed_point": (
        lambda: eo.restricted_beta([eo.periodic_measure(GOLDEN, eo.Cycle((1,)))], GOLDEN_PAIR),
        InadmissibleWordError),
    # 5e306 passes the word graph's bound, but 40 of it do not fit in float64
    "cycle_exponent_float_sum_overflows": (
        lambda: eo.cycle_exponent(eo.from_potential(eo.constant_potential(FULL2, 5e306)),
                                  eo.make_cycle(FULL2, (0,) * 39 + (1,))),
        ValidationError, "cycles of period 40"),
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
    # a shift space other than the cocycle's, refused at entry
    "lower_bound_other_space": (lambda: eo.lower_bound_cycles(GOLDEN, PAIR, 4), ShapeMismatchError),
    "upper_bound_other_space": (lambda: eo.upper_bound(GOLDEN, PAIR, 4), ShapeMismatchError),
    "bracket_other_space": (lambda: eo.beta_bracket(FULL2, GOLDEN_PAIR), ShapeMismatchError),
    "candidates_other_space": (
        lambda: eo.matrix_candidates(GOLDEN, PAIR, n_max=4, p_max=4), ShapeMismatchError),
    # perturb.py: the probe's arguments, refused on both routes before any draw
    "probe_n_max_0": (
        lambda: eo.uniqueness_probe(FULL2, eo.from_potential(STEP), 2, 0.1, 1, n_max=0),
        ValidationError),
    "probe_p_max_0": (
        lambda: eo.uniqueness_probe(FULL2, PAIR, 2, 0.1, 1, p_max=0), ValidationError),
    "probe_slack_negative": (
        lambda: eo.uniqueness_probe(FULL2, eo.from_potential(STEP), 2, 0.1, 1, slack=-1.0),
        ValidationError),
    "probe_slack_nan": (
        lambda: eo.uniqueness_probe(FULL2, eo.from_potential(STEP), 2, 0.1, 1, slack=math.nan),
        ValidationError),
    "probe_other_space": (
        lambda: eo.uniqueness_probe(GOLDEN, PAIR, 2, 0.1, 1, n_max=4, p_max=4),
        ShapeMismatchError),
    # every measure's space is compared with the cocycle's, not only the first's
    "stability_second_measure_other_space": (
        lambda: eo.stability_radius([eo.periodic_measure(FULL2, FIXED),
                                     eo.periodic_measure(GOLDEN, eo.make_cycle(GOLDEN, (0, 1)))],
                                    PAIR, trials=1, seed=0), ShapeMismatchError),
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
    # data that is not a probability measure, refused before any solve:
    # negative rows summing to 1, stationary masses summing to 2 or to 0
    "markov_measure_negative": (
        lambda: eo.markov_measure(FULL2, [[1.5, -0.5], [1.5, -0.5]]), ValidationError,
        "stochastic entries must be nonnegative"),
    "markov_measure_nan": (
        lambda: eo.markov_measure(FULL2, [[math.nan, 1.0], [0.5, 0.5]]), ValidationError,
        "stochastic entries must be finite"),
    "markov_measure_inf": (
        lambda: eo.markov_measure(FULL2, [[math.inf, 1.0], [0.5, 0.5]]), ValidationError,
        "stochastic entries must be finite"),
    "markov_stationary_sums_to_2": (
        lambda: eo.markov_measure(FULL2, [[0.5, 0.5], [0.5, 0.5]], [2.0, 2.0]), ValidationError,
        "stationary masses must sum to 1"),
    "markov_stationary_zero": (
        lambda: eo.markov_measure(FULL2, [[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0]), ValidationError,
        "stationary masses must sum to 1"),
    "markov_stationary_negative": (
        lambda: eo.MarkovMeasure(FULL2, ((1.0, 0.0), (0.0, 1.0)), (1.5, -0.5)), ValidationError,
        "stationary entries must be nonnegative"),
    "markov_stationary_nan": (
        lambda: eo.MarkovMeasure(FULL2, ((0.5, 0.5), (0.5, 0.5)), (math.nan, 0.5)),
        ValidationError, "stationary entries must be finite"),
    "measure_config_negative_stochastic": (
        lambda: report.run_config(matrix_config(
            "measure", {"measures": [{"stochastic": [[1.5, -0.5], [1.5, -0.5]]}]}, PAIR_JSON)),
        ValidationError, "nonnegative"),
    "measure_config_zero_stationary": (
        lambda: report.run_config(matrix_config(
            "measure", {"measures": [{"stochastic": [[0.5, 0.5], [0.5, 0.5]],
                                      "stationary": [0, 0]}]}, PAIR_JSON)),
        ValidationError, "sum to 1"),
    # used to exit 1 with numpy's TypeError, from a float() of each entry
    "measure_config_nested_stationary": (
        lambda: report.run_config(matrix_config(
            "measure", {"measures": [{"stochastic": [[0.5, 0.5], [0.5, 0.5]],
                                      "stationary": [[0.5, 0.5]]}]}, PAIR_JSON)),
        ShapeMismatchError, "alphabet size"),
    "orbit_average_n_0": (lambda: eo.cesaro_push(FULL2, (), FIXED, 0), ValidationError),
    "orbit_average_preamble": (
        lambda: eo.cesaro_push(RING3, (0,), eo.make_cycle(RING3, (0, 1, 2)), 4), ValidationError),
    "exponent_of_orbit_average": (
        lambda: eo.exponent_of_measure(PAIR, eo.cesaro_push(FULL2, (1,), FIXED, 4)),
        ValidationError),
    "exponent_of_measure_n_max_0": (
        lambda: eo.exponent_of_measure(PAIR, MARKOV, n_max=0), ValidationError),
    "exponent_of_measure_more_letters": (
        lambda: eo.exponent_of_measure(PAIR, eo.markov_measure(FULL3, np.full((3, 3), 1 / 3))),
        ShapeMismatchError),
    "exponent_of_measure_full_markov_on_golden": (
        lambda: eo.exponent_of_measure(GOLDEN_PAIR, MARKOV), ShapeMismatchError),
    "exponent_of_measure_periodic_other_space": (
        lambda: eo.exponent_of_measure(GOLDEN_PAIR, eo.periodic_measure(FULL2, FIXED)),
        ShapeMismatchError),
    "restricted_beta_other_space": (
        lambda: eo.restricted_beta([eo.periodic_measure(FULL2, eo.Cycle((1,)))], GOLDEN_PAIR),
        ShapeMismatchError),
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
    "irregular_other_space": (
        lambda: eo.build_irregular_point(GOLDEN, PAIR, FIXED, eo.make_cycle(FULL2, (0, 1))),
        ShapeMismatchError),
    "series_other_space": (
        lambda: eo.finite_time_exponents(GOLDEN, PAIR, ((), FIXED), 4), ShapeMismatchError),
    "shift_relation_shape": (lambda: eo.new_shift(3, [[True] * 3] * 2), NoCycleError),
    "make_cycle_empty": (lambda: eo.make_cycle(FULL2, ()), ValidationError, "nonempty word"),
    # report.py
    "parse_system_transitions": (
        lambda: report.parse_system({"alphabet": 2, "transitions": [1, 2]}), ParseError),
    # a string "false" used to be read as true by bool()
    "parse_system_string_entry": (
        lambda: report.parse_system({"alphabet": 2, "transitions": [[True, True], [True, "false"]]}),
        ParseError, r"transition entry \[1\]\[1\] must be true or false, got 'false'"),
    "parse_system_number_entry": (
        lambda: report.parse_system({"alphabet": 2, "transitions": [[1, 1], [1, 0]]}),
        ParseError, r"transition entry \[0\]\[0\]"),
    "birkhoff_config_string_transition": (
        lambda: report.run_config({
            "system": {"alphabet": 2, "transitions": [[True, True], [True, "false"]]},
            "experiment": "birkhoff", "potential": {"memory": 1, "values": {"0": 0, "1": 1}}}),
        ParseError, "got 'false'"),
    "parse_scalar_list": (lambda: report._parse_scalar([1], "x"), ParseError),
    "require_missing": (lambda: report._require({"alphabet": 2}, "transitions"), ValidationError),
    "parse_measure_neither": (lambda: report.parse_measure(FULL2, {}), ValidationError),
    "parse_measure_not_object": (lambda: report.parse_measure(FULL2, "0"), ParseError),
    "get_cocycle_neither": (
        lambda: report._get_cocycle(FULL2, {"experiment": "beta"}, {}), ValidationError),
    "beta_cycle_product_nilpotent": (
        lambda: report.run_config(matrix_config("beta", {"n_max": 2, "p_max": 2}, BIG)),
        ValidationError, "cycle 01 rounds to a nilpotent matrix"),
    "measure_product_singular": (
        lambda: report.run_config(matrix_config(
            "measure", {"measures": [{"stochastic": [[0.5, 0.5], [0.5, 0.5]]}], "n_max": 4},
            {"0": SPREAD, "1": SPREAD})),
        ValidationError, "depth-2 product rounds to a singular matrix"),
    # float weights whose sums leave float64: at 3e307 the cycle sums used
    # to overflow and list false candidates
    "birkhoff_float_sums_overflow": (
        lambda: report.run_config(potential_config("birkhoff", {}, {"0": 1e308, "1": 1e308})),
        ValidationError, "overflow float64"),
    "beta_float_sums_overflow": (
        lambda: report.run_config(potential_config("beta", {}, {"0": 1e308, "1": -1e308})),
        ValidationError, "overflow float64"),
    "perturb_float_sums_overflow": (
        lambda: report.run_config(potential_config(
            "perturb", {"gamma": {"memory": 1, "values": {"0": 0, "1": 1}}, "eps": [0.5]},
            {"0": 1e308, "1": 1e308})),
        ValidationError, "overflow float64"),
    "beta_float_cycle_sums_overflow": (
        lambda: report.run_config(potential_config("beta", {}, {"0": 3e307, "1": -3e307})),
        ValidationError, "overflow float64"),
    # rationals past float64: refused where a float is formed from them
    "beta_weight_past_float64": (
        lambda: report.run_config(potential_config("beta", {"d": 1}, {"0": HUGE, "1": "0"})),
        ValidationError, "past the range of float64"),
    "measure_weight_past_float64": (
        lambda: report.run_config(potential_config(
            "measure", {"d": 1, "measures": [{"cycle": "0"}]}, {"0": HUGE, "1": "0"})),
        ValidationError, "past the range of float64"),
    "lambda_weight_past_float64": (
        lambda: report.run_config(potential_config(
            "lambda", {"d": 1, "seed": 1, "measures": [{"cycle": "0"}, {"cycle": "1"}]},
            {"0": HUGE, "1": "0"})),
        ValidationError, "past the range of float64"),
    "irregular_weight_past_float64": (
        lambda: report.run_config(potential_config(
            "irregular", {"d": 1, "c1": "0", "c2": "1", "depth": 3, "N": 100},
            {"0": HUGE, "1": "0"})),
        ValidationError, "past the range of float64"),
    "perturb_gamma_past_float64_float_eps": (
        lambda: report.run_config(potential_config(
            "perturb", {"gamma": {"memory": 1, "values": {"0": HUGE, "1": "1"}}, "eps": [0.5]},
            {"0": "1", "1": "0"})),
        ValidationError, "past the range of float64"),
    "perturb_f_past_float64_float_gamma": (
        lambda: report.run_config(potential_config(
            "perturb", {"gamma": {"memory": 1, "values": {"0": 0.5, "1": 1}}, "eps": ["1/2"]},
            {"0": HUGE, "1": "0"})),
        ValidationError, "past the range of float64"),
    "birkhoff_mixed_table_past_float64": (
        lambda: report.run_config(potential_config("birkhoff", {}, {"0": HUGE, "1": 0.5})),
        ValidationError, "past the range of float64"),
    # exact results whose denominator 2^15000 has more digits than Python
    # converts to a string (4300 by default); they used to exit 1
    "flatten_exact_past_str_digits": (
        lambda: report.run_config({"system": {"alphabet": 2}, "experiment": "flatten",
                                   "params": {"values": ["1", "1/2", 0], "n": 15000}}),
        ValidationError, "more digits than Python converts"),
    "perturb_exact_past_str_digits": (
        lambda: report.run_config(potential_config(
            "perturb", {"gamma": {"memory": 1, "values": {"0": 0, "1": 4}}, "eps_min_pow": 15000},
            {"0": 1, "1": 0})),
        ValidationError, "more digits than Python converts"),
    # refused on a count of the memory-words, before the word index is built
    "potential_two_words_at_memory_64": (
        lambda: eo.ScalarPotential(FULL2, 64, LONG), ValidationError, "cover exactly"),
    "cocycle_two_words_at_memory_64": (
        lambda: eo.MatrixCocycle(FULL2, 2, 64, {w: EYE for w in LONG}), ValidationError,
        "cover exactly"),
    "lambda_empty_cycle": (
        lambda: report.run_config(matrix_config(
            "lambda", {"measures": [{"cycle": "0"}, {"cycle": ""}], "trials": 2, "seed": 1},
            {"0": EYE.tolist(), "1": EYE.tolist()})),
        ValidationError, "nonempty word"),
    "irregular_empty_cycle": (
        lambda: report.run_config(matrix_config(
            "irregular", {"c1": "", "c2": "1", "ratio": 3.0, "depth": 4, "N": 10},
            {"0": EYE.tolist(), "1": EYE.tolist()})),
        ValidationError, "nonempty word"),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_refused(case):
    call, error, *match = case
    with pytest.raises(error, match=match[0] if match else None):
        call()


@pytest.mark.parametrize("case", ["potential_two_words_at_memory_64",
                                  "cocycle_two_words_at_memory_64"])
def test_small_table_at_large_memory_builds_no_word_index(case):
    """The 2^64 memory-words are counted by last letter, and the count
    stops once it passes the table's two keys: no word is listed."""
    call, error, match = CASES[case]
    misses = _word_index.cache_info().misses
    with pytest.raises(error, match=match):
        call()
    assert _word_index.cache_info().misses == misses


@pytest.mark.parametrize("memory", [1, 2])
def test_every_refusal_names_the_forbidden_two_word(memory):
    """On the golden-mean shift a word, a cycle whose forbidden 2-word is
    at its wrap, and a point, each reading 11, are refused by one
    admissibility check, and each refusal names 11."""
    A = GOLDEN_PAIR.lift(memory)
    calls = [lambda: cocycle_log_product(A, (0, 1, 1, 0)),
             lambda: eo.cycle_exponent(A, eo.Cycle((1, 0, 1))),
             lambda: eo.finite_time_exponents(GOLDEN, A, ((0, 1, 1), eo.Cycle((0,))), 8)]
    for call in calls:
        with pytest.raises(InadmissibleWordError, match="forbidden 2-word 11"):
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

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import ergopt as eo
from ergopt.errors import EqualExponentsError, TooShortError, ValidationError

PHI = (1 + math.sqrt(5)) / 2


def scalar_step_cocycle(full2):
    f = eo.ScalarPotential(full2, 1, {(0,): Fraction(0), (1,): Fraction(1)})
    return eo.from_potential(f)


class TestSchedule:
    def test_lengths_r3_j8(self, full2):
        A = scalar_step_cocycle(full2)
        c0 = eo.make_cycle(full2, (0,))
        c1 = eo.make_cycle(full2, (1,))
        sched = eo.build_irregular_point(full2, A, c0, c1, r=3.0, J=8)
        assert sched.lengths == (1, 3, 12, 48, 192, 768, 3072, 12288)
        assert sched.total_length == sum(sched.lengths)

    def test_equal_exponents_rejected(self, full2):
        A = eo.identity_cocycle(full2, 2)
        with pytest.raises(EqualExponentsError):
            eo.build_irregular_point(full2, A,
                                     eo.make_cycle(full2, (0,)),
                                     eo.make_cycle(full2, (1,)))

    def test_symbols_admissible_on_golden_mean(self, golden):
        rng = np.random.default_rng(19)
        table = {(0,): np.eye(2), (1,): 2 * np.eye(2)}
        A = eo.MatrixCocycle(golden, 2, 1, table)
        sched = eo.build_irregular_point(golden, A,
                                         eo.make_cycle(golden, (0,)),
                                         eo.make_cycle(golden, (0, 1)),
                                         r=2.0, J=5)
        word = tuple(islice(sched.symbols(), 400))
        assert golden.is_admissible(word)

    def test_block_ends_match_symbol_counts(self, full2):
        A = scalar_step_cocycle(full2)
        sched = eo.build_irregular_point(full2, A,
                                         eo.make_cycle(full2, (0,)),
                                         eo.make_cycle(full2, (1,)),
                                         r=2.0, J=4)
        symbols = list(sched.symbols())
        # every block end is a valid index into the emitted symbol stream
        ends = sched.block_end_indices()
        assert ends[-1] == len(symbols)
        assert all(e1 < e2 for e1, e2 in zip(ends, ends[1:]))


class TestFiniteTimeExponents:
    def test_identity_is_zero(self, full2):
        A = eo.identity_cocycle(full2, 2)
        series = eo.finite_time_exponents(
            full2, A, ((), eo.make_cycle(full2, (0, 1))), 50)
        assert np.allclose(series, 0.0)

    def test_constant_scalar_is_exact(self, full2):
        A = scalar_step_cocycle(full2)
        series = eo.finite_time_exponents(
            full2, A, ((), eo.make_cycle(full2, (1,))), 100)
        assert np.allclose(series, 1.0, atol=1e-12)

    def test_periodic_point_converges_to_cycle_exponent(self, full2, fib_pair):
        c = eo.make_cycle(full2, (0, 1))
        series = eo.finite_time_exponents(full2, fib_pair, ((), c), 500)
        assert series[-1] == pytest.approx(math.log(PHI), abs=1e-2)

    def test_matches_unrenormalized_products(self, full2, fib_pair):
        """Oracle: direct products without rescaling, n <= 200."""
        c = eo.make_cycle(full2, (0, 1, 1))
        series = eo.finite_time_exponents(full2, fib_pair, ((1, 0), c), 200)
        sym = list(islice(eo.iter_point((1, 0), c), 200))
        P = np.eye(2)
        for n, a in enumerate(sym, start=1):
            P = fib_pair.table[(a,)] @ P
            want = math.log(eo.op_norm(P)) / n
            assert series[n - 1] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("case", ["chunk_boundary", "preamble", "memory2", "diag_1e60"])
    def test_matches_sequential_loop(self, full2, fib_pair, case):
        """Oracle: one matrix product per step, rescaled by its largest
        entry whenever that passes 1e50, and one 2-norm per step."""
        sft3 = eo.new_shift(3, [[True, True, False], [False, True, True],
                                [True, True, True]])
        rng = np.random.default_rng(31)
        if case == "chunk_boundary":  # two chunks of the scan and a bit
            space, A = full2, fib_pair
            x = eo.build_irregular_point(full2, A, eo.make_cycle(full2, (0, 1)),
                                         eo.make_cycle(full2, (0, 0, 1)), r=3.0, J=9)
            N = 2 * 2**14 + 37
        elif case == "preamble":
            space, A = full2, fib_pair
            x, N = ((1, 1, 0, 1), eo.make_cycle(full2, (0, 1, 1))), 3000
        elif case == "memory2":
            words = eo.admissible_words(sft3, 2)
            space = sft3
            A = eo.MatrixCocycle(sft3, 2, 2, {w: rng.standard_normal((2, 2)) for w in words})
            x, N = ((2, 2, 1, 2), eo.make_cycle(sft3, (0, 1, 2))), 2000
        else:  # every product leaves the renormalisation window within 2 steps
            space = full2
            A = eo.MatrixCocycle(full2, 2, 1, {(0,): np.diag([1e60, 1.0]),
                                              (1,): np.diag([1.0, 1e60])})
            x, N = ((), eo.make_cycle(full2, (0, 0, 1))), 500
        series = eo.finite_time_exponents(space, A, x, N)
        assert series.shape == (N,)

        if isinstance(x, tuple):
            sym = list(islice(eo.iter_point(*x), N + A.memory - 1))
        else:
            sym = list(islice(x.symbols(), N + A.memory - 1))
        m = A.memory
        P = np.eye(A.d)
        logscale = 0.0
        want = np.empty(N)
        for n in range(1, N + 1):
            P = A.table[tuple(sym[n - 1:n - 1 + m])] @ P
            big = np.abs(P).max()
            if big > 1e50:
                P = P / big
                logscale += math.log(big)
            want[n - 1] = (logscale + math.log(np.linalg.norm(P, 2))) / n
        np.testing.assert_allclose(series, want, rtol=1e-12, atol=1e-13)

    def test_length_validation(self, full2, fib_pair):
        x = ((), eo.make_cycle(full2, (0,)))
        with pytest.raises(ValidationError):
            eo.finite_time_exponents(full2, fib_pair, x, 0)
        with pytest.raises(ValidationError):
            eo.finite_time_exponents(full2, fib_pair, x, 10**6 + 1)


class TestOscillation:
    def test_constant_series_has_zero_gap(self):
        lo, hi, gap = eo.oscillation(np.ones(200))
        assert (lo, hi, gap) == (1.0, 1.0, 0.0)

    def test_short_series_rejected(self):
        with pytest.raises(TooShortError):
            eo.oscillation(np.ones(99))

    def test_scalar_schedule_oscillates(self, full2):
        """The alternating schedule keeps the block-boundary exponents apart
        while a plain periodic control point converges."""
        A = scalar_step_cocycle(full2)
        c0 = eo.make_cycle(full2, (0,))
        c1 = eo.make_cycle(full2, (1,))
        sched = eo.build_irregular_point(full2, A, c0, c1, r=3.0, J=8)
        series = eo.finite_time_exponents(full2, A, sched, sched.total_length)
        lo, hi, gap = eo.block_oscillation(series, sched)
        assert lo <= 0.3
        assert hi >= 0.7
        assert gap >= 0.45

        control = eo.finite_time_exponents(
            full2, A, ((), eo.make_cycle(full2, (0, 1))), 10**4)
        _, _, cgap = eo.oscillation(control)
        assert cgap <= 0.02

    def test_block_oscillation_needs_two_ends(self, full2):
        A = scalar_step_cocycle(full2)
        sched = eo.build_irregular_point(full2, A,
                                         eo.make_cycle(full2, (0,)),
                                         eo.make_cycle(full2, (1,)),
                                         r=3.0, J=8)
        series = eo.finite_time_exponents(full2, A, sched, 1)
        with pytest.raises(TooShortError):
            eo.block_oscillation(series, sched)

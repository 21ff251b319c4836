from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt.errors import (
    InvalidArgumentError,
    NoGapError,
    ValidationError,
)


def two_loop_tie(full2):
    return eo.ScalarPotential(full2, 2, {
        (0, 0): Fraction(1), (0, 1): Fraction(0),
        (1, 0): Fraction(0), (1, 1): Fraction(1)})


class TestSweep:
    def test_tie_broken_exactly(self, full2):
        """Two tied loops; gamma prefers the 1-loop.  Every epsilon selects
        that loop, so the selection set is a singleton equal to the limit."""
        f = two_loop_tie(full2)
        gamma = eo.ScalarPotential(full2, 1, {(0,): Fraction(0), (1,): Fraction(1)})
        grid = [Fraction(1, 2 ** j) for j in range(1, 13)]
        res = eo.perturbation_sweep(full2, f, gamma, grid)
        assert res.limit == Fraction(1)
        assert all(vs == (Fraction(1),) for vs in res.value_sets)
        assert all(d == 0 for d in res.diameters)
        assert all(h == 0 for h in res.hausdorff)

    def test_unique_maximizer_is_insensitive(self, full2, step_potential):
        gamma = eo.ScalarPotential(full2, 1, {(0,): Fraction(3), (1,): Fraction(-2)})
        grid = [Fraction(1, 10), Fraction(1, 100)]
        res = eo.perturbation_sweep(full2, step_potential, gamma, grid)
        assert res.limit == Fraction(-2)
        assert res.value_sets == ((Fraction(-2),), (Fraction(-2),))

    def test_every_cycle_tied_at_memory_four(self):
        """f = 0 and gamma a coboundary plus a constant c: every cycle stays
        maximizing for every eps and has gamma-mean c, so the critical graph
        is the whole 27-node word graph."""
        space = eo.new_shift(3)
        rng = np.random.default_rng(5)
        g = {w: Fraction(int(rng.integers(-9, 10)), 4) for w in eo.admissible_words(space, 3)}
        c = Fraction(7, 3)
        gamma = eo.ScalarPotential(space, 4, {
            w: g[w[1:]] - g[w[:3]] + c for w in eo.admissible_words(space, 4)})
        f = eo.constant_potential(space, Fraction(0), memory=4)
        grid = [Fraction(1, 2 ** j) for j in range(1, 5)]
        res = eo.perturbation_sweep(space, f, gamma, grid)
        assert res.limit == c
        assert res.value_sets == ((c,),) * len(grid)
        assert all(d == 0 for d in res.diameters)
        assert all(h == 0 for h in res.hausdorff)

    def test_grid_validation(self, full2, step_potential):
        gamma = eo.constant_potential(full2, Fraction(1))
        with pytest.raises(ValidationError):
            eo.perturbation_sweep(full2, step_potential, gamma, [])
        with pytest.raises(ValidationError):
            eo.perturbation_sweep(full2, step_potential, gamma,
                                  [Fraction(1, 4), Fraction(1, 2)])
        with pytest.raises(ValidationError):
            eo.perturbation_sweep(full2, step_potential, gamma, [Fraction(0)])

    def test_hausdorff_shrinks_for_generic_tie_breaker(self, full2):
        """With a gamma that separates the tied loops asymmetrically, the
        selected set still collapses to the limit as epsilon -> 0."""
        f = two_loop_tie(full2)
        gamma = eo.ScalarPotential(full2, 1, {(0,): Fraction(2), (1,): Fraction(-1)})
        grid = [Fraction(1, 2 ** j) for j in range(1, 9)]
        res = eo.perturbation_sweep(full2, f, gamma, grid)
        assert res.limit == Fraction(2)
        assert res.hausdorff[-1] == 0


class TestPinning:
    def test_fixed_point(self, full2):
        c = eo.make_cycle(full2, (1,))
        f = eo.pinning_potential(full2, c)
        assert f.memory == 2
        cycles, unique = eo.maximizing_cycles(full2, f, 4)
        assert unique and [x.word for x in cycles] == [(1,)]

    def test_all_short_cycles_full_and_golden(self, full2, golden):
        for space in (full2, golden):
            for c in eo.enumerate_cycles(space, 5):
                f = eo.pinning_potential(space, c)
                assert eo.karp_beta(space, f) == 0
                cycles, unique = eo.maximizing_cycles(space, f, 5)
                assert unique, f"cycle {c} not uniquely pinned"
                assert [x.word for x in cycles] == [c.word]


class TestProbe:
    def test_seed_deterministic(self, full2, step_potential):
        A = eo.from_potential(step_potential)
        a = eo.uniqueness_probe(full2, A, n_samples=20, delta=0.05, seed=7)
        b = eo.uniqueness_probe(full2, A, n_samples=20, delta=0.05, seed=7)
        assert a == b

    def test_typical_uniqueness_from_flat_potential(self, full2):
        """Perturbations of the zero potential are unique maximizers almost
        surely; with 40 continuous draws the observed frequency is 1."""
        A = eo.from_potential(eo.constant_potential(full2, Fraction(0)))
        freq = eo.uniqueness_probe(full2, A, n_samples=40, delta=0.1, seed=3)
        assert freq == 1.0

    def test_strict_gap_survives_small_noise(self, full2, step_potential):
        A = eo.from_potential(step_potential)
        freq = eo.uniqueness_probe(full2, A, n_samples=25, delta=0.01, seed=11)
        assert freq == 1.0

    def test_matrix_route(self, full2, fib_pair):
        freq = eo.uniqueness_probe(full2, fib_pair, n_samples=5, delta=0.01,
                                   seed=1, n_max=12, p_max=4)
        assert freq == 1.0

    def test_argument_validation(self, full2, fib_pair):
        with pytest.raises(InvalidArgumentError):
            eo.uniqueness_probe(full2, fib_pair, n_samples=0, delta=0.1, seed=0)
        with pytest.raises(InvalidArgumentError):
            eo.uniqueness_probe(full2, fib_pair, n_samples=1, delta=0.0, seed=0)


class TestStability:
    def family(self, full2):
        return [eo.periodic_measure(full2, eo.make_cycle(full2, w))
                for w in ((0,), (0, 1), (1,))]

    def test_strict_gap_certified(self, full2, step_potential):
        A = eo.from_potential(step_potential)
        res = eo.stability_radius(self.family(full2), A, trials=50, seed=5)
        assert res.argmax_index == 2
        assert res.gap == pytest.approx(0.5)
        assert res.delta > 0
        assert res.trials_invariant == res.trials == 50

    def test_tie_raises(self, full2):
        A = eo.identity_cocycle(full2, 1)
        with pytest.raises(NoGapError):
            eo.stability_radius(self.family(full2), A, trials=1, seed=0)

    def test_rejects_non_periodic_family(self, full2, fib_pair):
        mu = eo.markov_measure(full2, [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            eo.stability_radius([mu], fib_pair, trials=1, seed=0)

    def test_matrix_case(self, full2, fib_pair):
        res = eo.stability_radius(self.family(full2), fib_pair, trials=30, seed=9)
        assert res.argmax_index == 1  # the alternating cycle
        assert res.trials_invariant == 30


class TestFlatten:
    def test_three_point_example(self):
        sys = eo.identity_system([1, Fraction(99, 100), -1])
        res = eo.flatten_top(sys, 1)
        assert res.flattened == (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
        assert res.distance == Fraction(1, 2)
        assert res.argmax_count == 2
        assert res.band_holds

    def test_constant_grid_unchanged_shape(self):
        sys = eo.identity_system([Fraction(3), Fraction(3)])
        res = eo.flatten_top(sys, 4)
        assert res.argmax_count == 2
        assert res.distance <= sys.sup_norm / 16

    def test_distance_bound_random(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            size = int(rng.integers(2, 12))
            vals = [Fraction(int(rng.integers(-1000, 1001)), 64) for _ in range(size)]
            sys = eo.identity_system(vals)
            for n in range(1, 11):
                res = eo.flatten_top(sys, n)
                assert res.distance <= sys.sup_norm / 2 ** n
                if res.band_holds:
                    assert res.argmax_count >= 2

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValidationError):
            eo.identity_system([Fraction(1)])
        with pytest.raises(ValidationError):
            eo.flatten_top(eo.identity_system([0, 1]), 0)

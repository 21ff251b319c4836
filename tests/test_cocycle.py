import math
from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt.cocycle import cocycle_log_product, cocycles_equal
from ergopt.errors import (
    InadmissibleWordError,
    ShapeMismatchError,
    ValidationError,
)

PHI = (1 + math.sqrt(5)) / 2


class TestScalarPotential:
    def test_value_uses_only_the_memory_prefix(self, step_potential):
        assert step_potential.value((1, 0, 0, 1)) == 1
        assert step_potential.value((0, 1, 1)) == 0

    def test_birkhoff_sum(self, step_potential):
        assert step_potential.birkhoff_sum((0, 1, 1)) == 2
        # memory-2 potential: the sum runs over sliding windows
        full2 = step_potential.space
        g = eo.ScalarPotential(full2, 2, {
            (0, 0): Fraction(1), (0, 1): Fraction(2),
            (1, 0): Fraction(3), (1, 1): Fraction(4)})
        assert g.birkhoff_sum((0, 1, 1, 0)) == 2 + 4 + 3

    def test_table_must_cover_admissible_words(self, full2):
        with pytest.raises(ValidationError):
            eo.ScalarPotential(full2, 1, {(0,): Fraction(1)})

    def test_lift_preserves_values(self, step_potential):
        lifted = step_potential.lift(3)
        for w in eo.admissible_words(step_potential.space, 4):
            assert lifted.value(w) == step_potential.value(w)
        with pytest.raises(ValidationError):
            lifted.lift(1)

    def test_add_aligns_memories(self, full2, step_potential):
        g = eo.ScalarPotential(full2, 2, {
            (0, 0): Fraction(1), (0, 1): Fraction(0),
            (1, 0): Fraction(0), (1, 1): Fraction(1)})
        h = step_potential + g
        assert h.memory == 2
        assert h.value((1, 1)) == 2
        assert h.value((0, 0)) == 1

    def test_neg_scale_norm(self, step_potential):
        assert (-step_potential).value((1,)) == -1
        assert step_potential.scale(Fraction(3)).value((1,)) == 3
        assert step_potential.sup_norm == 1
        assert step_potential.is_rational

    def test_constant_potential(self, golden):
        f = eo.constant_potential(golden, Fraction(5, 3))
        assert f.value((1, 0)) == Fraction(5, 3)


class TestCocycleBasics:
    def test_table_validation(self, full2):
        sing = {(0,): np.zeros((2, 2)), (1,): np.eye(2)}
        with pytest.raises(ValidationError):
            eo.MatrixCocycle(full2, 2, 1, sing)
        bad_shape = {(0,): np.eye(3), (1,): np.eye(2)}
        with pytest.raises(ShapeMismatchError):
            eo.MatrixCocycle(full2, 2, 1, bad_shape)

    @pytest.mark.parametrize("scale", [1e-30, 1e-7, 1.0, 1e30])
    def test_invertibility_check_ignores_scale(self, full2, scale):
        """Well-conditioned matrices pass at any scale; rank-deficient and
        nearly rank-deficient ones fail at any scale."""
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        A = eo.MatrixCocycle(full2, 2, 1, {(0,): scale * np.eye(2), (1,): scale * rot})
        assert np.array_equal(A.matrix((0,)), scale * np.eye(2))
        singular = [
            np.array([[1.0, 2.0], [2.0, 4.0]]),
            np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]),
            np.array([[3.0, 1.0], [0.0, 0.0]]),
        ]
        for M in singular:
            with pytest.raises(ValidationError):
                eo.MatrixCocycle(full2, 2, 1, {(0,): scale * M, (1,): np.eye(2)})

    def test_product_order_first_factor_rightmost(self, fib_pair):
        # over "01" the product is M1 @ M0
        P = eo.cocycle_product(fib_pair, (0, 1))
        expected = fib_pair.table[(1,)] @ fib_pair.table[(0,)]
        assert np.allclose(P, expected)
        assert np.allclose(P, np.array([[1.0, 1.0], [1.0, 2.0]]))

    def test_scalar_product_is_exponential_of_sum(self, step_potential):
        A = eo.from_potential(step_potential)
        P = eo.cocycle_product(A, (0, 1, 1))
        assert P.shape == (1, 1)
        assert P[0, 0] == pytest.approx(math.exp(2), rel=1e-14)

    def test_one_step_product_is_owned_by_the_caller(self, full2):
        """Rescaling a one-step product in place must not reach the table."""
        A = eo.MatrixCocycle(full2, 2, 1, {(0,): np.diag([2.0, 1.0]),
                                          (1,): np.eye(2)})
        _, P = cocycle_log_product(A, (0,))
        assert P is not A.table[(0,)]
        P *= 3.0
        assert np.array_equal(A.table[(0,)], np.diag([2.0, 1.0]))

    def test_product_rejects_inadmissible(self, golden, fib_pair):
        with pytest.raises(InadmissibleWordError):
            eo.cocycle_product(fib_pair, ())
        B = eo.identity_cocycle(golden, 2)
        with pytest.raises(InadmissibleWordError):
            eo.cocycle_product(B, (1, 1))

    def test_cocycle_identity_exhaustive(self, golden):
        """A(n+m, x) = A(n, T^m x) A(m, x) on every admissible word,
        for all splits with n + m <= 6, memory 2."""
        rng = np.random.default_rng(11)
        table = {w: rng.standard_normal((2, 2)) + 2 * np.eye(2)
                 for w in eo.admissible_words(golden, 2)}
        A = eo.MatrixCocycle(golden, 2, 2, table)
        mem = A.memory
        for total in range(2, 7):
            for w in eo.admissible_words(golden, total + mem - 1):
                full = eo.cocycle_product(A, w)
                for n in range(1, total):
                    left = eo.cocycle_product(A, w[n:])
                    right = eo.cocycle_product(A, w[: n + mem - 1])
                    assert np.allclose(full, left @ right, rtol=1e-10)

    def test_renormalized_product_matches_direct(self, fib_pair):
        """Oracle: plain float accumulation without rescaling, n <= 200."""
        rng = np.random.default_rng(3)
        w = tuple(rng.integers(0, 2, 200))
        direct = fib_pair.table[w[0:1]]
        for a in w[1:]:
            direct = fib_pair.table[(int(a),)] @ direct
        logscale, P = cocycle_log_product(fib_pair, w)
        assert np.allclose(math.exp(logscale) * P, direct, rtol=1e-10)

    def test_lift_keeps_effective_matrices(self, fib_pair):
        lifted = fib_pair.lift(3)
        assert lifted.memory == 3
        assert cocycles_equal(fib_pair, lifted)

    def test_additive_potential_round_trip(self, step_potential):
        A = eo.from_potential(step_potential)
        assert A.is_additive
        g = A.additive_potential()
        assert g.table == dict(step_potential.table)


class TestNorms:
    def test_op_norm_examples(self):
        assert eo.op_norm(np.eye(2)) == pytest.approx(1.0)
        assert eo.op_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0)
        assert eo.op_norm(np.array([[-3.0]])) == 3.0
        # shear: largest singular value is sqrt((3 + sqrt 5) / 2) = phi
        shear = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert eo.op_norm(shear) == pytest.approx(PHI, rel=1e-12)

    def test_spectral_radius_examples(self):
        assert eo.spectral_radius(np.diag([2.0, -3.0])) == pytest.approx(3.0)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert eo.spectral_radius(rot) == pytest.approx(1.0)
        fib2 = np.array([[1.0, 1.0], [1.0, 2.0]])
        assert eo.spectral_radius(fib2) == pytest.approx(PHI ** 2, rel=1e-12)

    @pytest.mark.parametrize("d", [9, 10])
    def test_spectral_radius_high_dimension(self, d):
        """Q diag(lam) Q^T has spectrum lam; no dimension cap applies."""
        rng = np.random.default_rng(d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = np.linspace(-4.0, 3.0, d)
        M = Q @ np.diag(lam) @ Q.T
        assert eo.spectral_radius(M) == pytest.approx(4.0, rel=1e-12)

    def test_spectral_radius_jordan_block(self):
        """A defective matrix: one eigenvalue 1 of algebraic multiplicity 4."""
        J = np.eye(4) + np.eye(4, k=1)
        assert eo.spectral_radius(J) == pytest.approx(1.0, abs=1e-12)

    def test_spectral_radius_on_a_stack_is_row_by_row(self):
        rng = np.random.default_rng(23)
        stack = rng.standard_normal((30, 3, 3))
        rho = eo.spectral_radius(stack)
        assert isinstance(rho, np.ndarray) and rho.shape == (30,)
        assert rho.tolist() == [eo.spectral_radius(M) for M in stack]
        assert isinstance(eo.spectral_radius(stack[0]), float)

    def test_spectral_radius_below_op_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            M = rng.standard_normal((3, 3))
            assert eo.spectral_radius(M) <= eo.op_norm(M) + 1e-10

    def test_gelfand_on_powers(self):
        """(1/n) log ||M^n|| decreases toward log spectral_radius."""
        M = np.array([[1.0, 1.0], [1.0, 0.0]])
        target = math.log(eo.spectral_radius(M))
        vals = [math.log(eo.op_norm(np.linalg.matrix_power(M, n))) / n
                for n in range(1, 30)]
        assert vals[-1] == pytest.approx(target, abs=1e-2)
        assert all(v >= target - 1e-12 for v in vals)


class TestDistance:
    def test_zero_iff_equal(self, fib_pair):
        assert eo.cocycle_distance(fib_pair, fib_pair) == 0.0

    def test_scalar_constant_example(self, full2):
        A = eo.from_potential(eo.constant_potential(full2, 0.0))
        B = eo.from_potential(eo.constant_potential(full2, math.log(2)))
        # |1 - 2| + |1 - 1/2| = 1.5
        assert eo.cocycle_distance(A, B) == pytest.approx(1.5, rel=1e-12)

    def test_metric_axioms_random(self, full2):
        rng = np.random.default_rng(17)

        def rand_cocycle():
            table = {w: rng.standard_normal((2, 2)) + 3 * np.eye(2)
                     for w in eo.admissible_words(full2, 1)}
            return eo.MatrixCocycle(full2, 2, 1, table)

        for _ in range(30):
            A, B, C = rand_cocycle(), rand_cocycle(), rand_cocycle()
            dab = eo.cocycle_distance(A, B)
            assert dab == eo.cocycle_distance(B, A)
            assert dab >= 0.0
            assert dab <= (eo.cocycle_distance(A, C)
                           + eo.cocycle_distance(C, B) + 1e-12)

    def test_shape_mismatch(self, full2, golden, fib_pair):
        with pytest.raises(ShapeMismatchError):
            eo.cocycle_distance(fib_pair, eo.identity_cocycle(golden, 2))
        with pytest.raises(ShapeMismatchError):
            eo.cocycle_distance(fib_pair, eo.identity_cocycle(full2, 3))


class TestGamma:
    def test_constant_scales_every_matrix(self, fib_pair, full2):
        c = eo.constant_potential(full2, math.log(2))
        B = eo.gamma_apply(c, fib_pair)
        for w in eo.admissible_words(full2, 1):
            assert np.allclose(B.matrix(w), 2.0 * fib_pair.matrix(w))

    def test_composition_adds_potentials(self, fib_pair, step_potential):
        twice = eo.gamma_apply(step_potential,
                               eo.gamma_apply(step_potential, fib_pair))
        direct = eo.gamma_apply(step_potential.scale(Fraction(2)), fib_pair)
        assert cocycles_equal(twice, direct)

    def test_exactly_invertible(self, fib_pair, step_potential):
        forward = eo.gamma_apply(step_potential, fib_pair)
        back = eo.gamma_apply(-step_potential, forward)
        assert cocycles_equal(back, fib_pair)

    def test_from_potential_product(self, step_potential):
        A = eo.from_potential(step_potential, d=2)
        P = eo.cocycle_product(A, (1, 1, 0))
        assert np.allclose(P, math.exp(2) * np.eye(2))

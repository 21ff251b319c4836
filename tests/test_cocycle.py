import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt.cocycle import _op_norms, _step_rows, cocycle_log_product, cocycles_equal
from ergopt.errors import (
    InadmissibleWordError,
    ShapeMismatchError,
    ValidationError,
)

from ergopt.shift import _word_index

from conftest import index_edges, sft3_memory2, word_graph_edges

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

    @pytest.mark.parametrize("kind", ["random", "near_rank_one", "orthogonal"])
    def test_2x2_closed_form_matches_svd(self, kind):
        """Oracle: the largest singular value from LAPACK, on stacks scaled
        matrix by matrix over 1e-100 .. 1e100."""
        rng = np.random.default_rng(["random", "near_rank_one", "orthogonal"].index(kind))
        n = 100_000
        if kind == "random":
            M = rng.standard_normal((n, 2, 2))
        elif kind == "near_rank_one":
            u, v = rng.standard_normal((n, 2, 1)), rng.standard_normal((n, 1, 2))
            M = u @ v + 10.0 ** rng.uniform(-17, -8, (n, 1, 1)) * rng.standard_normal((n, 2, 2))
        else:
            t = rng.uniform(0, 2 * np.pi, n)
            c, s = np.cos(t), np.sin(t)
            M = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
            M[::2, 1] *= -1  # reflections as well as rotations
        M *= 10.0 ** rng.uniform(-100, 100, (n, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _op_norms(M)
        want = np.linalg.svd(M, compute_uv=False)[:, 0]
        np.testing.assert_allclose(got, want, rtol=4e-15, atol=0)

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


class TestStepTable:
    def test_steps_are_stacked_once(self, full2):
        """Every kernel reads the cocycle's one step table: it reads each
        matrix of the cocycle's own table once, when it is built, and no
        kernel reads that table again or builds another."""
        calls = []

        class CountingTable(dict):
            def __getitem__(self, w):
                calls.append(w)
                return super().__getitem__(w)

        A = eo.MatrixCocycle(full2, 2, 1, CountingTable({
            (0,): np.array([[1.0, 1.0], [0.0, 1.0]]),
            (1,): np.array([[1.0, 0.0], [1.0, 1.0]])}))
        mu = eo.markov_measure(full2, [[0.5, 0.5], [0.3, 0.7]])

        def run_kernels():
            for n in range(1, 7):
                eo.upper_bound(full2, A, n)
            eo.cycle_exponent(A, eo.enumerate_cycles(full2, 6))
            eo.finite_time_exponents(full2, A, ((0,), eo.make_cycle(full2, (0, 1))), 50)
            eo.exponent_of_measure(full2, A, mu, n_max=5)

        assert calls == []
        run_kernels()
        assert sorted(calls) == [(0,), (1,)]
        table = A._step_table
        run_kernels()
        assert len(calls) == 2 and A._step_table is table

    def test_table_matches_the_cocycle_and_is_read_only(self):
        """Row w of the table is exp(+-weight(w)) * table[w]^(+-1), formed
        here word by word, with and without a weight; `matrix` and
        `inverse_matrix` return read-only rows of it."""
        space, weighted = sft3_memory2(5)
        words = eo.admissible_words(space, 2)
        for A in (weighted, eo.MatrixCocycle(space, 2, 2, weighted.table)):
            table = A._step_table
            s = [0.0 if A.weight is None else float(A.weight.table[w]) for w in words]
            assert np.array_equal(table.steps, np.stack(
                [math.exp(x) * A.table[w] for x, w in zip(s, words)]))
            assert np.array_equal(table.inverses, np.stack(
                [math.exp(-x) * np.linalg.inv(A.table[w]) for x, w in zip(s, words)]))
            assert np.array_equal(table.norms, [eo.op_norm(M) for M in table.steps])
            for i, w in enumerate(words):
                assert np.array_equal(A.matrix(w + (0,)), table.steps[i])
                assert np.array_equal(A.inverse_matrix(w), table.inverses[i])
                for M in (A.matrix(w), A.inverse_matrix(w)):
                    with pytest.raises(ValueError):
                        M[0, 0] = 0.0
        A = weighted
        table = A._step_table
        index = table.index
        assert list(index.row_of) == list(index.words) == words
        assert A._step_table is table
        # the word graph read off the words, one edge per position, sorted
        # by head
        nodes = eo.admissible_words(space, 1)
        assert list(index.nodes) == nodes
        heads, tails = index.heads.tolist(), index.tails.tolist()
        assert list(zip(heads, tails)) == sorted(zip(heads, tails))
        edges = word_graph_edges(space, 2)
        assert index_edges(index) == edges and len(heads) == len(edges)
        # every edge reads a word that ends at its head
        assert all(words[r][1:] == nodes[v] for v, r in zip(heads, index.rows.tolist()))
        arrays = [table.steps, table.inverses, table.norms,
                  index.powers, index.codes, index.heads, index.tails, index.rows]
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0

    def test_step_rows_read_the_index(self):
        """Every admissible window maps to its row, and a window with a
        forbidden 2-word is refused, at memory 1 to 4 on an SFT and where
        the codes of the words pass int64."""
        space = eo.new_shift(3, [[True, True, False], [False, True, True], [True, True, True]])
        for m in range(1, 5):
            index = _word_index(space, m)
            words = eo.admissible_words(space, m)
            assert _step_rows(index, np.array(words)).tolist() == list(range(len(words)))
            if m >= 2:
                with pytest.raises(InadmissibleWordError):
                    _step_rows(index, np.array([words[0], (0, 2) + words[0][2:]]))
        # 70 letters in one cycle: the codes of 11-words pass int64
        ring = eo.new_shift(70, [[b == (a + 1) % 70 for b in range(70)] for a in range(70)])
        index = _word_index(ring, 11)
        assert index.codes.dtype == object
        words = eo.admissible_words(ring, 11)
        assert _step_rows(index, np.array(words[::-1])).tolist() == list(range(70))[::-1]
        with pytest.raises(InadmissibleWordError):
            _step_rows(index, np.array([words[0][:-1] + (0,)]))

    def test_equal_spaces_share_one_index(self):
        """Cocycles and potentials on equal spaces, built apart, with the
        same memory read one word index."""
        space, A = sft3_memory2(5)
        same = eo.new_shift(3, [[True, True, False], [False, True, True], [True, True, True]])
        B = eo.identity_cocycle(same, 2, memory=2)
        assert space is not same
        assert A._step_table.index is B._step_table.index is _word_index(same, 2)
        assert _word_index(same, 1) is not _word_index(same, 2)
        f = eo.constant_potential(same, Fraction(1), memory=2)
        assert eo.karp_beta(space, f) == 1
        assert eo.critical_graph(space, f).index is A._step_table.index


class TestListProduct:
    """The list form of `cocycle_log_product` against plain numpy products
    of the effective matrices, and `svd` / `inv` of those."""

    @staticmethod
    def direct(A, w):
        m = A.memory
        P = np.eye(A.d)
        for j in range(len(w) - m + 1):
            key = tuple(w[j:j + m])
            scale = math.exp(A.weight.table[key]) if A.weight is not None else 1.0
            P = scale * A.table[key] @ P
        return P

    def check(self, A, words):
        logscale, P = cocycle_log_product(A, words)
        assert logscale.shape == (len(words),) and P.shape == (len(words), A.d, A.d)
        for w, ls, Q in zip(words, logscale.tolist(), P):
            want = self.direct(A, w)
            np.testing.assert_allclose(math.exp(ls) * Q, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
            top = np.linalg.svd(want, compute_uv=False)[0]
            top_inv = np.linalg.svd(np.linalg.inv(want), compute_uv=False)[0]
            assert ls + math.log(np.linalg.svd(Q, compute_uv=False)[0]) == pytest.approx(
                math.log(top), rel=1e-12, abs=1e-12)
            assert -ls + math.log(np.linalg.svd(np.linalg.inv(Q), compute_uv=False)[0]) \
                == pytest.approx(math.log(top_inv), rel=1e-12, abs=1e-12)
            one_ls, one_P = cocycle_log_product(A, w)
            assert one_ls == ls and np.array_equal(one_P, Q)
        return logscale

    def test_memory_two_with_weight(self):
        space, A = sft3_memory2(31)
        self.check(A, eo.admissible_words(space, 6))

    def test_across_the_window(self, full2):
        A = eo.MatrixCocycle(full2, 2, 1, {(0,): np.diag([1e101, 1.0]),
                                          (1,): np.array([[0.0, 1.0], [1.0, 0.0]])})
        logscale = self.check(A, eo.admissible_words(full2, 3))
        assert logscale.max() > 0.0

    def test_empty_list(self, fib_pair):
        logscale, P = cocycle_log_product(fib_pair, [])
        assert logscale.shape == (0,) and P.shape == (0, 2, 2)

    def test_rejects_bad_lists(self, golden):
        A = eo.identity_cocycle(golden, 2)
        # each window of (1, 1) is an admissible memory-word, its 2-word is not
        with pytest.raises(InadmissibleWordError):
            cocycle_log_product(A, [(0, 1), (1, 1)])
        with pytest.raises(ValidationError):
            cocycle_log_product(A, [(0, 1), (0, 1, 0)])

    @pytest.mark.parametrize("form", ["single", "list"])
    @pytest.mark.parametrize("word", [(0, 1, 1, 0), (0, 1, 0, 2), (-1, 0, 1, 0)],
                             ids=["forbidden_inner_transition", "letter_out_of_range",
                                  "negative_letter"])
    @pytest.mark.parametrize("memory", [1, 2])
    def test_refuses_inadmissible_words(self, golden, memory, word, form):
        """A forbidden 2-letter transition or a letter outside the alphabet
        is refused, in a word alone or after an admissible word of a list."""
        A = eo.identity_cocycle(golden, 2, memory=memory)
        with pytest.raises(InadmissibleWordError):
            cocycle_log_product(A, word if form == "single" else [(0, 1, 0, 1), word])

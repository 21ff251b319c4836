import math
import time
from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt.errors import ValidationError
from ergopt.optimize import build_word_graph

from conftest import (
    brute_force_beta,
    random_rational_potential,
    random_sft,
)

PHI = (1 + math.sqrt(5)) / 2


def brute_upper(space, A, n):
    """Oracle U_n: direct max over all admissible words, no pruning, no
    shared code with upper_bound."""
    best = -math.inf
    for w in eo.admissible_words(space, n + A.memory - 1):
        P = eo.cocycle_product(A, w)
        best = max(best, math.log(eo.op_norm(P)) / n)
    return best


class TestWordGraph:
    def test_memory_one_nodes_are_letters(self, golden):
        nodes, edges = build_word_graph(golden, 1)
        assert nodes == [(0,), (1,)]
        assert set(edges) == {((0,), (0,)), ((0,), (1,)), ((1,), (0,))}
        # with memory 1 the weight of an edge depends on its source letter
        assert edges[((0,), (1,))] == (0,)

    def test_memory_two_edges_span_words(self, golden):
        nodes, edges = build_word_graph(golden, 2)
        assert nodes == [(0,), (1,)]
        for (u, v), w in edges.items():
            assert w == u + v


class TestKarp:
    def test_step_potential(self, full2, step_potential):
        b = eo.karp_beta(full2, step_potential)
        assert b == Fraction(1) and isinstance(b, Fraction)

    def test_constant(self, golden):
        f = eo.constant_potential(golden, Fraction(7, 3), memory=2)
        assert eo.karp_beta(golden, f) == Fraction(7, 3)

    def test_memory_two_alternation_wins(self, full2):
        # only the alternating 2-cycle collects the big values
        f = eo.ScalarPotential(full2, 2, {
            (0, 0): Fraction(0), (0, 1): Fraction(3),
            (1, 0): Fraction(3), (1, 1): Fraction(0)})
        assert eo.karp_beta(full2, f) == Fraction(3)

    def test_against_cycle_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            space = random_sft(rng, int(rng.integers(2, 4)))
            f = random_rational_potential(rng, space, int(rng.integers(1, 4)))
            assert eo.karp_beta(space, f) == brute_force_beta(space, f)


class TestCriticalGraph:
    def test_single_loop(self, full2, step_potential):
        G = eo.critical_graph(full2, step_potential)
        assert G.beta == 1
        assert G.edges == frozenset({((1,), (1,))})
        assert G.is_single_cycle()
        assert [c.word for c in G.cycles(4)] == [(1,)]

    def test_constant_keeps_whole_graph(self, golden):
        f = eo.constant_potential(golden, Fraction(2))
        G = eo.critical_graph(golden, f)
        nodes, edges = build_word_graph(golden, 1)
        assert G.edges == frozenset(edges)
        assert not G.is_single_cycle()

    def test_two_loop_tie(self, full2):
        f = eo.ScalarPotential(full2, 2, {
            (0, 0): Fraction(1), (0, 1): Fraction(0),
            (1, 0): Fraction(0), (1, 1): Fraction(1)})
        G = eo.critical_graph(full2, f)
        assert G.edges == frozenset({((0,), (0,)), ((1,), (1,))})
        assert [c.word for c in G.cycles(4)] == [(0,), (1,)]

    def test_sound_and_complete_random(self):
        """Every cycle inside has mean beta; every mean-beta cycle is inside."""
        rng = np.random.default_rng(29)
        for _ in range(30):
            space = random_sft(rng, int(rng.integers(2, 4)))
            f = random_rational_potential(rng, space, int(rng.integers(1, 3)))
            G = eo.critical_graph(space, f)
            node_count = len(eo.admissible_words(space, max(f.memory - 1, 1)))
            for c in eo.enumerate_cycles(space, node_count):
                mean = Fraction(sum(f.value(w) for w in c.windows(f.memory))) / c.period
                assert G.contains_cycle(c) == (mean == G.beta)

    def test_maximizing_cycles(self, full2, step_potential):
        cycles, unique = eo.maximizing_cycles(full2, step_potential, 4)
        assert [c.word for c in cycles] == [(1,)]
        assert unique

    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_cycles_witness_and_sweep_against_brute_force(self, memory):
        """Oracles: `enumerate_cycles` filtered by `contains_cycle`, and f-
        and gamma-means summed directly over every primitive cycle up to the
        node count, which covers the simple cycles.  Values in {-1, 0, 1}
        make ties common: large critical graphs, and sweeps whose maximizers
        have two distinct gamma-means."""
        rng = np.random.default_rng(40 + memory)
        grid = [Fraction(1, 2 ** j) for j in range(6)]

        def mean(g, c):
            return Fraction(sum(g.value(w) for w in c.windows(g.memory)), c.period)

        for _ in range(10):
            space = random_sft(rng, int(rng.integers(2, 4)))
            f = random_rational_potential(rng, space, memory, denom_max=1, num_max=1)
            gamma = random_rational_potential(rng, space, int(rng.integers(1, 3)),
                                              denom_max=1, num_max=1)
            G = eo.critical_graph(space, f)
            for p in (1, 3, 6):
                assert G.cycles(p) == [c for c in eo.enumerate_cycles(space, p)
                                       if G.contains_cycle(c)]
            m = max(memory, gamma.memory)
            node_count = len(eo.admissible_words(space, max(m - 1, 1)))
            means = [(c, mean(f, c), mean(gamma, c))
                     for c in eo.enumerate_cycles(space, node_count)]
            beta = max(fm for _, fm, _ in means)
            critical = [(c, gm) for c, fm, gm in means if fm == beta]
            br = eo.beta_bracket(space, eo.from_potential(f))
            assert br.exact == beta
            assert br.witness == min((c for c, _ in critical),
                                     key=lambda c: (c.period, c.word))
            limit = max(gm for _, gm in critical)
            res = eo.perturbation_sweep(space, f, gamma, grid)
            assert res.limit == limit
            for eps, vs, diam, dist in zip(grid, res.value_sets, res.diameters,
                                           res.hausdorff):
                top = max(fm + eps * gm for _, fm, gm in means)
                values = [gm for _, fm, gm in means if fm + eps * gm == top]
                assert vs == tuple(sorted({min(values), max(values)}))
                assert diam == max(values) - min(values)
                deviations = [abs(v - limit) for v in values]
                assert dist == max(deviations) + min(deviations)


class TestRelativeBeta:
    def test_on_tie_selects_best_loop_for_gamma(self, full2):
        f = eo.ScalarPotential(full2, 2, {
            (0, 0): Fraction(1), (0, 1): Fraction(0),
            (1, 0): Fraction(0), (1, 1): Fraction(1)})
        gamma = eo.ScalarPotential(full2, 1, {(0,): Fraction(2), (1,): Fraction(5)})
        assert eo.relative_beta(full2, f, gamma) == Fraction(5)

    def test_unique_argmax_gives_its_mean(self, full2, step_potential):
        gamma = eo.ScalarPotential(full2, 1, {(0,): Fraction(9), (1,): Fraction(-4)})
        assert eo.relative_beta(full2, step_potential, gamma) == Fraction(-4)


class TestCycleExponent:
    def test_additive_exact(self, full2, step_potential):
        A = eo.from_potential(step_potential)
        c = eo.make_cycle(full2, (0, 1))
        assert eo.cycle_exponent(A, c) == Fraction(1, 2)

    def test_matrix_case_spectral_radius(self, full2, fib_pair):
        c = eo.make_cycle(full2, (0, 1))
        # rho(M1 M0) = phi^2, so the exponent is log phi
        assert eo.cycle_exponent(fib_pair, c) == pytest.approx(
            math.log(PHI), rel=1e-12)
        fixed = eo.make_cycle(full2, (0,))
        assert eo.cycle_exponent(fib_pair, fixed) == pytest.approx(0.0, abs=1e-12)

    def test_list_form_matches_direct_products(self):
        """Oracle: per cycle, a plain numpy product of the effective memory-2
        matrices around it and the largest `eigvals` modulus."""
        sft3 = eo.new_shift(3, [[True, True, False], [False, True, True],
                                [True, True, True]])
        rng = np.random.default_rng(29)
        words = eo.admissible_words(sft3, 2)
        weight = eo.ScalarPotential(sft3, 2, {w: float(rng.uniform(-1, 1)) for w in words})
        A = eo.MatrixCocycle(sft3, 2, 2, {w: rng.standard_normal((2, 2)) for w in words},
                             weight)
        cycles = eo.enumerate_cycles(sft3, 7)
        cycles = cycles[::-1][::3] + cycles[:5]  # periods interleaved
        got = eo.cycle_exponent(A, cycles)
        assert len(got) == len(cycles)
        for c, val in zip(cycles, got):
            p = c.period
            P = np.eye(2)
            for j in range(p):
                w = (c.word[j], c.word[(j + 1) % p])
                P = math.exp(weight.table[w]) * A.table[w] @ P
            want = math.log(np.max(np.abs(np.linalg.eigvals(P)))) / p
            assert val == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert eo.cycle_exponent(A, c) == val
        assert eo.cycle_exponent(A, []) == []

    def test_list_form_stays_rational(self, golden):
        f = eo.ScalarPotential(golden, 2, {
            (0, 0): Fraction(1, 3), (0, 1): Fraction(-2), (1, 0): Fraction(5, 7)})
        A = eo.from_potential(f)
        cycles = [eo.make_cycle(golden, w) for w in ((0, 1), (0,), (0, 0, 1))]
        got = eo.cycle_exponent(A, cycles)
        assert got == [Fraction(-9, 14), Fraction(1, 3), Fraction(-20, 63)]
        assert all(type(v) is Fraction for v in got)

    def test_leaves_the_cocycle_table_unchanged(self, full2):
        """A one-step product above the renormalisation window must be
        rescaled in a copy, never in the cocycle's own matrix."""
        A = eo.MatrixCocycle(full2, 2, 1, {(0,): np.diag([1e101, 1.0]),
                                          (1,): np.eye(2)})
        val = eo.cycle_exponent(A, eo.make_cycle(full2, (0,)))
        assert val == pytest.approx(math.log(1e101), rel=1e-12)
        assert np.array_equal(A.table[(0,)], np.diag([1e101, 1.0]))
        assert eo.upper_bound(full2, A, 3) == pytest.approx(math.log(1e101), rel=1e-12)
        assert np.array_equal(A.table[(0,)], np.diag([1e101, 1.0]))


class TestBounds:
    def test_lower_bound_tie_prefers_short_lex(self, full2):
        A = eo.identity_cocycle(full2, 2)
        val, witness = eo.lower_bound_cycles(full2, A, 3)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert witness.word == (0,)

    def test_lower_bound_fib(self, full2, fib_pair):
        val, witness = eo.lower_bound_cycles(full2, fib_pair, 2)
        assert witness.word == (0, 1)
        assert val == pytest.approx(math.log(PHI), rel=1e-12)

    def test_upper_bound_matches_oracle(self, full2, golden, fib_pair):
        rng = np.random.default_rng(41)
        table = {w: rng.standard_normal((2, 2)) + 2 * np.eye(2)
                 for w in eo.admissible_words(golden, 2)}
        B = eo.MatrixCocycle(golden, 2, 2, table)
        for space, A in ((full2, fib_pair), (golden, B)):
            hint, _ = eo.lower_bound_cycles(space, A, 4)
            for n in range(1, 9):
                want = brute_upper(space, A, n)
                assert eo.upper_bound(space, A, n) == pytest.approx(want, abs=1e-12)
                # pruning with a certified hint must not change the value
                assert eo.upper_bound(space, A, n, lower_hint=hint) == \
                    pytest.approx(want, abs=1e-12)

    def test_upper_bound_budget(self, full2, fib_pair):
        with pytest.raises(eo.errors.BudgetExceededError):
            eo.upper_bound(full2, fib_pair, 12, budget=100)

    def test_upper_bound_budget_counts_every_word(self, full2):
        """Without pruning the depth-12 search visits the 2 + 4 + ... + 2^12
        = 8190 words of the full 2-shift; the budget counts each once."""
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        A = eo.MatrixCocycle(full2, 2, 1, {(0,): np.eye(2), (1,): swap})
        assert eo.upper_bound(full2, A, 12, budget=8190) == 0.0
        with pytest.raises(eo.errors.BudgetExceededError):
            eo.upper_bound(full2, A, 12, budget=8189)

    def test_upper_bound_across_split_blocks(self, full2, fib_pair):
        """2^13 = 8192 depth-13 products do not fit in one block."""
        assert eo.upper_bound(full2, fib_pair, 13) == \
            pytest.approx(brute_upper(full2, fib_pair, 13), abs=1e-12)

    def test_subadditive_and_sandwich(self, full2, fib_pair):
        U = {n: eo.upper_bound(full2, fib_pair, n) for n in range(1, 11)}
        L, _ = eo.lower_bound_cycles(full2, fib_pair, 6)
        for n in U:
            assert L <= U[n] + 1e-9
            for m in U:
                if n + m in U:
                    assert (n + m) * U[n + m] <= n * U[n] + m * U[m] + 1e-9


class TestBracket:
    def test_identity_bracket_is_zero(self, full2):
        br = eo.beta_bracket(full2, eo.identity_cocycle(full2, 2), n_max=1, p_max=1)
        assert br.lower == pytest.approx(0.0, abs=1e-12)
        assert br.upper == pytest.approx(0.0, abs=1e-12)
        assert br.n_used == 1 and br.p_used == 1

    def test_additive_case_is_exact(self, full2, step_potential):
        br = eo.beta_bracket(full2, eo.from_potential(step_potential))
        assert br.exact == Fraction(1)
        assert br.lower == br.upper == 1.0
        assert br.witness.word == (1,)

    @pytest.mark.parametrize("k, memory", [(4, 3), (3, 4)])
    def test_constant_potential_is_fast(self, k, memory):
        """The whole word graph is critical: listing its simple cycles took
        3.4 s at k=4, memory 3 and over 20 s at k=3, memory 4."""
        space = eo.new_shift(k)
        f = eo.constant_potential(space, Fraction(0), memory=memory)
        start = time.monotonic()
        br = eo.beta_bracket(space, eo.from_potential(f))
        assert time.monotonic() - start < 2.0
        assert br.exact == 0
        assert br.witness.word == (0,)

    def test_fib_pair_closes(self, full2, fib_pair):
        br = eo.beta_bracket(full2, fib_pair, n_max=24, p_max=4)
        assert br.lower == pytest.approx(math.log(PHI), rel=1e-12)
        assert br.upper - br.lower <= 0.02
        assert br.witness.word == (0, 1)
        assert br.norm_tag == "spectral-2"
        assert br.gap >= 0.0

    def test_invalid_interval_rejected(self, full2):
        c = eo.make_cycle(full2, (0,))
        with pytest.raises(ValidationError):
            eo.BetaBracket(lower=1.0, upper=0.0, n_used=1, p_used=1, witness=c)

    def test_scaling_covariance(self, full2, fib_pair):
        """Scaling by exp(c) shifts both ends of the bracket by c."""
        c = 0.5
        shifted = eo.gamma_apply(eo.constant_potential(full2, c), fib_pair)
        b0 = eo.beta_bracket(full2, fib_pair, n_max=10, p_max=4)
        b1 = eo.beta_bracket(full2, shifted, n_max=10, p_max=4)
        assert b1.lower == pytest.approx(b0.lower + c, abs=1e-9)
        assert b1.upper == pytest.approx(b0.upper + c, abs=1e-9)


class TestCandidates:
    def test_tied_loops_not_unique(self, full2):
        A = eo.identity_cocycle(full2, 2)
        rep = eo.matrix_candidates(full2, A, n_max=4, p_max=2, slack=1e-6)
        words = [c.word for c in rep.candidates]
        assert (0,) in words and (1,) in words
        assert not rep.unique_at_resolution

    def test_fib_pair_unique(self, full2, fib_pair):
        rep = eo.matrix_candidates(full2, fib_pair, n_max=24, p_max=4, slack=1e-6)
        assert [c.word for c in rep.candidates] == [(0, 1)]
        assert rep.unique_at_resolution

    def test_matches_exact_route_for_potentials(self, full2, step_potential):
        rep = eo.matrix_candidates(full2, eo.from_potential(step_potential),
                                   p_max=3)
        exact, unique = eo.maximizing_cycles(full2, step_potential, 3)
        assert [c.word for c in rep.candidates] == [c.word for c in exact]
        assert rep.unique_at_resolution == unique

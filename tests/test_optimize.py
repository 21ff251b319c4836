import math
import time
from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt.errors import ShapeMismatchError, ValidationError
from ergopt.shift import _word_index

from conftest import (
    brute_force_beta,
    index_edges,
    random_rational_potential,
    random_sft,
    word_graph_edges,
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


# the unjittered base of the golden-mean 3x3 benchmark cocycle
GOLDEN_3X3 = {
    (0,): [[0.13, -0.13, 0.64], [0.1, -0.54, 0.36], [1.3, 0.95, -0.7]],
    (1,): [[-1.27, -0.62, 0.04], [-2.33, -0.22, -1.25], [-0.73, -0.54, -0.32]],
}


def golden_3x3(golden):
    return eo.MatrixCocycle(golden, 3, 1, {w: np.array(m) for w, m in GOLDEN_3X3.items()})


def bracket_against_brute_upper(space, A):
    """The bracket to depth 8, whose U_n series must be the unpruned
    maximum at every depth."""
    br = eo.beta_bracket(space, A, n_max=8, p_max=4, gap_tol=1e-300)
    assert [n for n, _ in br.upper_series] == list(range(1, 9))
    for n, u_n in br.upper_series:
        assert u_n == pytest.approx(brute_upper(space, A, n), abs=1e-12)
    return br


def layered_shift(L):
    """2L letters in L layers of two, each letter followed by both letters
    of the next layer (cyclically): every cycle has a length divisible by
    L, and there are 2^L closed walks of length L."""
    k = 2 * L
    return eo.new_shift(k, [[b // 2 == (a // 2 + 1) % L for b in range(k)]
                            for a in range(k)])


class TestWordGraph:
    def test_memory_one_nodes_are_letters(self, golden):
        index = _word_index(golden, 1)
        assert index.nodes == ((0,), (1,))
        edges = index_edges(index)
        assert set(edges) == {((0,), (0,)), ((0,), (1,)), ((1,), (0,))}
        # with memory 1, as with any memory, an edge is read at the word it
        # ends with: its head letter
        assert edges[((0,), (1,))] == (1,)
        assert edges == word_graph_edges(golden, 1)

    def test_memory_two_edges_span_words(self, golden):
        index = _word_index(golden, 2)
        assert index.nodes == ((0,), (1,))
        edges = index_edges(index)
        for (u, v), w in edges.items():
            assert w == u + v
        assert edges == word_graph_edges(golden, 2)

    @pytest.mark.parametrize("memory", [1, 2, 3, 4])
    def test_edges_are_read_off_the_words(self, memory):
        """On random SFTs: the nodes are the (memory-1)-words in order, the
        edges those of `word_graph_edges`, one per array position, sorted
        by head, every edge reads a word that ends at its head, and every
        word is read by some edge."""
        rng = np.random.default_rng(40 + memory)
        for _ in range(10):
            space = random_sft(rng, int(rng.integers(2, 5)))
            index = _word_index(space, memory)
            s = max(memory - 1, 1)
            assert list(index.nodes) == eo.admissible_words(space, s)
            edges = word_graph_edges(space, memory)
            assert index_edges(index) == edges and len(index.heads) == len(edges)
            pairs = list(zip(index.heads.tolist(), index.tails.tolist()))
            assert pairs == sorted(pairs)
            rows = index.rows.tolist()
            assert all(index.words[r][-s:] == index.nodes[v]
                       for v, r in zip(index.heads.tolist(), rows))
            assert set(rows) == set(range(len(index.words)))


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
        assert G.edges == frozenset(word_graph_edges(golden, 1))
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


def test_cycle_free_word_graph_is_refused():
    """0 may be followed by 1 and 1 by nothing: the word graph has no cycle,
    so there is no invariant measure, and each exact solver says so."""
    space = eo.ShiftSpace(2, ((False, True), (False, False)))
    f = eo.constant_potential(space, Fraction(1))
    for solve in (eo.karp_beta, eo.critical_graph, lambda s, g: eo.maximizing_cycles(s, g, 3)):
        with pytest.raises(ValidationError, match="no cycle"):
            solve(space, f)


class TestMismatch:
    """A potential read on another space or memory than the word graph's
    is refused, not solved on the wrong graph."""

    def test_larger_alphabet(self, step_potential):
        k3 = eo.new_shift(3)
        with pytest.raises(ShapeMismatchError):
            eo.karp_beta(k3, step_potential)
        with pytest.raises(ShapeMismatchError):
            eo.critical_graph(k3, step_potential)

    def test_sub_shift(self, golden, step_potential):
        with pytest.raises(ShapeMismatchError):
            eo.karp_beta(golden, step_potential)
        with pytest.raises(ShapeMismatchError):
            eo.critical_graph(golden, step_potential)

    def test_gamma_on_another_space(self, full2, step_potential):
        gamma = eo.constant_potential(eo.new_shift(3), Fraction(1))
        with pytest.raises(ShapeMismatchError):
            eo.relative_beta(full2, step_potential, gamma)

    def test_max_mean_of_another_memory(self, full2, step_potential):
        G = eo.critical_graph(full2, step_potential)
        with pytest.raises(ShapeMismatchError):
            G.max_mean(step_potential.lift(2))
        assert G.max_mean(step_potential) == 1


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

    @pytest.mark.parametrize("hint", [math.nan, math.inf, 5.0])
    def test_upper_bound_refuses_a_hint_that_is_no_lower_bound(self, full2, fib_pair, hint):
        """A NaN, +inf or too-large hint prunes every word; the search
        refuses it instead of returning -inf."""
        with pytest.raises(ValidationError):
            eo.upper_bound(full2, fib_pair, 4, lower_hint=hint)

    def test_upper_bound_refuses_too_small_maxima(self, full2, fib_pair):
        hint, _ = eo.lower_bound_cycles(full2, fib_pair, 4)
        with pytest.raises(ValidationError):
            eo.upper_bound(full2, fib_pair, 4, lower_hint=hint, maxima=[-10.0] * 3)

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

    def test_layered_witness_is_fast(self):
        """Every closed walk of the layered family is critical under the
        constant potential; a witness search over all cycles up to the
        girth took 2.06 s at L = 16."""
        f = eo.constant_potential(layered_shift(16), Fraction(0))
        start = time.monotonic()
        br = eo.beta_bracket(f.space, eo.from_potential(f))
        assert time.monotonic() - start < 0.5
        assert br.exact == 0
        assert br.witness.word == tuple(range(0, 32, 2))

    @pytest.mark.parametrize("L", range(1, 7))
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_layered_witness_against_brute_force(self, L, seed):
        """Oracle: the shortest closed walks of maximal mean among all
        closed walks, and the least rotation among those."""
        space = layered_shift(L)
        if seed is None:
            f = eo.constant_potential(space, Fraction(0))
        else:
            f = random_rational_potential(np.random.default_rng(seed), space, 2,
                                          denom_max=2, num_max=2)
        beta = brute_force_beta(space, f)
        for p in range(1, 2 * L + 1):
            best = [eo.canonical_rotation(w) for w in eo.admissible_words(space, p)
                    if space.allowed[w[-1]][w[0]]
                    and sum(f.value((w[i], w[(i + 1) % p])[:f.memory])
                            for i in range(p)) == p * beta]
            if best:
                break
        br = eo.beta_bracket(space, eo.from_potential(f))
        assert br.exact == beta
        assert br.witness.word == min(best)

    def test_fib_pair_closes(self, full2, fib_pair):
        br = eo.beta_bracket(full2, fib_pair, n_max=24, p_max=4)
        assert br.lower == pytest.approx(math.log(PHI), rel=1e-12)
        assert br.upper - br.lower <= 0.02
        assert br.witness.word == (0, 1)
        assert br.norm_tag == "spectral-2"
        assert br.gap >= 0.0

    @pytest.mark.parametrize("memory", [1, 2])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_upper_series_against_brute_force(self, memory, seed):
        """Each U_n of the bracket, searched with the depth maxima of the
        shallower depths as tail bounds, is the unpruned maximum."""
        rng = np.random.default_rng(seed)
        space = random_sft(rng, 3)
        A = eo.MatrixCocycle(space, 2, memory, {w: rng.standard_normal((2, 2))
                                                for w in eo.admissible_words(space, memory)})
        bracket_against_brute_upper(space, A)

    @pytest.mark.parametrize("memory", [1, 2])
    def test_upper_series_at_a_fixed_point_maximiser(self, memory):
        """The fixed point a carries the nearly rank-one J = [[2, t], [0, t]],
        t = 1e-3, and every other step has norm 0.1, so L = beta = log 2
        exactly.  The maximiser a^n sits only about t^2 / 8 above the prune
        floor n * L, and ||J^(n-k)|| * ||J^k||_F exceeds ||J^n|| by the same
        factor, so a tail bound 1e-6 too small would prune it."""
        rng = np.random.default_rng(5)
        space = random_sft(rng, 3)
        a = next(a for a in range(3) if space.allowed[a][a])
        table = {}
        for w in eo.admissible_words(space, memory):
            M = rng.standard_normal((2, 2))
            table[w] = 0.1 * M / np.linalg.norm(M, 2)
        table[(a,) * memory] = np.array([[2.0, 1e-3], [0.0, 1e-3]])
        br = bracket_against_brute_upper(space, eo.MatrixCocycle(space, 2, memory, table))
        assert br.lower == pytest.approx(math.log(2), abs=1e-15)
        assert br.witness.word == (a,)

    def test_depth_maxima_prune_where_the_step_bound_does_not(self, golden):
        """With only the one-step look-ahead, depth 9 visits 136 words; with
        the depth maxima as tail bounds no depth visits more than 63."""
        A = golden_3x3(golden)
        want = eo.beta_bracket(golden, A, n_max=12, p_max=12)
        br = eo.beta_bracket(golden, A, n_max=12, p_max=12, budget=100)
        assert br.upper_series == want.upper_series
        assert len(br.upper_series) == 12
        with pytest.raises(eo.errors.BudgetExceededError):
            eo.upper_bound(golden, A, 9, budget=100, lower_hint=br.lower)

    def test_maxima_above_the_step_bound_change_nothing(self, golden):
        A = golden_3x3(golden)
        hint, _ = eo.lower_bound_cycles(golden, A, 12)
        u_1 = eo.upper_bound(golden, A, 1)  # the largest one-step log norm
        loose = [j * u_1 + 1.0 for j in range(1, 12)]

        def outcome(n, budget, **kw):
            try:
                return eo.upper_bound(golden, A, n, budget=budget, lower_hint=hint, **kw)
            except eo.errors.BudgetExceededError:
                return "budget"

        for n in range(1, 13):
            for budget in (10, 50, 100, 200, 400):
                assert outcome(n, budget, maxima=loose) == outcome(n, budget)

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

import warnings
from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt import _graph, optimize, perturb
from ergopt.cocycle import MatrixCocycle, cocycle_distance, gamma_apply
from ergopt.errors import (
    InvalidArgumentError,
    NoGapError,
    ShapeMismatchError,
    ValidationError,
)

from conftest import (
    brute_breakpoints,
    cycle_means,
    random_rational_potential,
    selected_means,
    sft3_memory2,
    shared_uppers,
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


@pytest.fixture
def evaluations(monkeypatch):
    """The critical graphs built from here on, one entry per Karp
    evaluation of a potential (`_graph.critical_subgraph` calls)."""
    calls = []
    inner = _graph.critical_subgraph

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(_graph, "critical_subgraph", counted)
    return calls


SPACES = {
    "full2": eo.new_shift(2),
    "golden": eo.new_shift(2, [[True, True], [True, False]]),
    "sft3": eo.new_shift(3, [[True, True, False], [False, True, True], [True, True, True]]),
}


class TestBreakpointPath:
    """Rational sweeps read beta(eps) = max_c (f_c + eps gamma_c) at its
    breakpoints only; the oracles sum f and gamma over the primitive
    cycles and walk the upper envelope of their lines."""

    @pytest.mark.parametrize("memory", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_against_brute_force(self, name, memory, evaluations):
        """Grids hold every breakpoint in range, the points between them and
        one point below the first."""
        space = SPACES[name]
        rng = np.random.default_rng([memory, len(name)])
        top = Fraction(32)
        found = 0
        for _ in range(8):
            f = random_rational_potential(rng, space, memory, denom_max=4, num_max=8)
            gamma = random_rational_potential(rng, space, int(rng.integers(1, 4)),
                                              denom_max=4, num_max=8)
            means = cycle_means(space, f, gamma)
            bps = brute_breakpoints(means, top)
            ends = [Fraction(0), *bps, top]
            grid = sorted({*ends[1:], *((a + b) / 2 for a, b in zip(ends, ends[1:])),
                           ends[1] / 1024}, reverse=True)
            evaluations.clear()
            res = eo.perturbation_sweep(space, f, gamma, grid)
            beta = max(fm for _, fm, _ in means)
            assert res.limit == max(gm for _, fm, gm in means if fm == beta)
            assert res.breakpoints == tuple(bps)
            assert res.threshold == (bps[0] if bps else None)
            for eps, vs, diam in zip(grid, res.value_sets, res.diameters):
                values = selected_means(means, eps)
                assert vs == tuple(sorted({min(values), max(values)}))
                assert diam == max(values) - min(values)
            # Eisner-Severance: the 2 ends, then at most 2k - 1 intersections
            # for k breakpoints
            assert len(evaluations) <= (2 * len(bps) + 1 if bps else 2)
            found += len(bps)
        assert found

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_threshold_is_the_first_crossing(self, name):
        """eps* = min over cycles c with gamma_c > limit of
        (beta - f_c) / (gamma_c - limit), when it lies in the grid's range."""
        space = SPACES[name]
        rng = np.random.default_rng(len(name))
        grid = [Fraction(1, 2 ** j) for j in range(8)]
        for _ in range(6):
            f = random_rational_potential(rng, space, int(rng.integers(1, 4)),
                                          denom_max=3, num_max=6)
            gamma = random_rational_potential(rng, space, int(rng.integers(1, 4)),
                                              denom_max=3, num_max=6)
            means = cycle_means(space, f, gamma)
            res = eo.perturbation_sweep(space, f, gamma, grid)
            beta = max(fm for _, fm, _ in means)
            crossings = [(beta - fm) / (gm - res.limit) for _, fm, gm in means if gm > res.limit]
            first = min(crossings, default=None)
            assert res.threshold == (first if first is not None and first <= grid[0] else None)

    def test_three_way_tie_is_a_breakpoint(self, full2):
        """f and gamma on two fixed points and the 2-cycle: the lines 1,
        4 eps and 1/2 + 2 eps all meet at eps = 1/4."""
        f = eo.ScalarPotential(full2, 1, {(0,): Fraction(1), (1,): Fraction(0)})
        gamma = eo.ScalarPotential(full2, 1, {(0,): Fraction(0), (1,): Fraction(4)})
        res = eo.perturbation_sweep(full2, f, gamma, [Fraction(1, 2), Fraction(1, 4),
                                                      Fraction(1, 8)])
        assert res.limit == 0
        assert res.value_sets == ((4,), (0, 4), (0,))
        assert res.diameters == (0, 4, 0)
        assert res.hausdorff == (8, 4, 0)
        assert res.breakpoints == (Fraction(1, 4),) and res.threshold == Fraction(1, 4)
        below = eo.perturbation_sweep(full2, f, gamma, [Fraction(1, 8), Fraction(1, 16)])
        assert below.breakpoints == () and below.threshold is None

    def test_no_breakpoint_takes_two_evaluations(self, evaluations):
        """The coboundary tie of `test_every_cycle_tied_at_memory_four`:
        beta(eps) = c eps is one line, read at eps = 0 and the largest eps."""
        space = eo.new_shift(3)
        rng = np.random.default_rng(5)
        g = {w: Fraction(int(rng.integers(-9, 10)), 4) for w in eo.admissible_words(space, 3)}
        gamma = eo.ScalarPotential(space, 4, {
            w: g[w[1:]] - g[w[:3]] + Fraction(7, 3) for w in eo.admissible_words(space, 4)})
        f = eo.constant_potential(space, Fraction(0), memory=4)
        res = eo.perturbation_sweep(space, f, gamma, [Fraction(1, 2 ** j) for j in range(1, 11)])
        assert len(evaluations) == 2
        assert res.breakpoints == () and res.threshold is None

    def test_large_rows_stay_exact(self, full2):
        """Values whose integer rows leave int64 run on Python ints."""
        big = Fraction(2**70 + 1, 3)
        f = eo.ScalarPotential(full2, 1, {(0,): big, (1,): Fraction(0)})
        gamma = eo.ScalarPotential(full2, 1, {(0,): Fraction(0), (1,): Fraction(1)})
        res = eo.perturbation_sweep(full2, f, gamma, [2 * big, big, big / 2])
        assert res.breakpoints == (big,)
        assert res.value_sets == ((1,), (0, 1), (0,))


class TestFloatSweep:
    """A float potential or grid keeps one critical graph per grid point:
    a tight edge there is tight to a tolerance, so breakpoints are not exact."""

    @pytest.mark.parametrize("floats", ["f", "grid", "mixed"])
    def test_one_critical_graph_per_grid_point(self, full2, floats, evaluations):
        rng = np.random.default_rng(17)
        f = random_rational_potential(rng, full2, 2, denom_max=4, num_max=8)
        gamma = random_rational_potential(rng, full2, 1, denom_max=4, num_max=8)
        grid = [Fraction(3, 2 ** j) for j in range(8)]
        if floats == "f":
            f = f.scale(1.0)
        elif floats == "grid":
            grid = [float(e) for e in grid]
        else:
            # one float in the grid sends it all down the float route
            grid = [float(e) if j % 2 else e for j, e in enumerate(grid)]
        res = eo.perturbation_sweep(full2, f, gamma, grid)
        assert len(evaluations) == len(grid) + 1
        assert res.breakpoints is None and res.threshold is None
        means = cycle_means(full2, f, gamma)
        g = gamma.lift(2)
        for eps, vs in zip(grid, res.value_sets):
            G = eo.critical_graph(full2, f + gamma.scale(eps))
            assert vs == tuple(sorted({-G.max_mean(-g), G.max_mean(g)}))
            top = max(fm + eps * gm for _, fm, gm in means)
            values = [gm for _, fm, gm in means if fm + eps * gm >= top - 1e-9]
            assert vs == pytest.approx(sorted({min(values), max(values)}))

    def test_overflowing_perturbation_is_refused(self, full2):
        """f + eps gamma past float64 is refused as the potential is formed,
        with no numpy warning on the way."""
        f = eo.constant_potential(full2, 0.0)
        gamma = eo.ScalarPotential(full2, 1, {(0,): 1e300, (1,): -1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                eo.perturbation_sweep(full2, f, gamma, [1e10])


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

    def test_tiny_delta_still_perturbs(self, full2):
        """f = 0 ties every cycle; a delta below the 1e-9 denominator limit
        of the exact draws must still give nonzero draws, which break the
        tie, not zero ones that leave it."""
        f = eo.constant_potential(full2, Fraction(0))
        A = eo.from_potential(f)
        assert eo.uniqueness_probe(full2, A, n_samples=5, delta=1e-12, seed=3) == 1.0

    def test_argument_validation(self, full2, fib_pair):
        with pytest.raises(InvalidArgumentError):
            eo.uniqueness_probe(full2, fib_pair, n_samples=0, delta=0.1, seed=0)
        with pytest.raises(InvalidArgumentError):
            eo.uniqueness_probe(full2, fib_pair, n_samples=1, delta=0.0, seed=0)

    @pytest.mark.parametrize("bad", [{"n_max": 0}, {"p_max": 0}, {"slack": -1.0},
                                     {"slack": float("nan")}])
    def test_search_arguments_refused_before_any_draw(self, full2, fib_pair, step_potential,
                                                      monkeypatch, bad):
        """Both routes refuse the same arguments, and draw nothing first."""
        drawn = TestScalarShift.record_draws(monkeypatch)
        for A in (fib_pair, eo.from_potential(step_potential)):
            with pytest.raises(ValidationError):
                eo.uniqueness_probe(full2, A, n_samples=2, delta=0.1, seed=1, **bad)
        assert drawn == []

    def test_other_space_refused_before_any_draw(self, full2, golden, fib_pair, step_potential,
                                                  monkeypatch):
        drawn = TestScalarShift.record_draws(monkeypatch)
        for A in (fib_pair, eo.from_potential(step_potential)):
            with pytest.raises(ShapeMismatchError):
                eo.uniqueness_probe(golden, A, n_samples=2, delta=0.1, seed=1)
        assert drawn == []

    def test_blocks_shrink_as_samples_grow(self, monkeypatch, full2, fib_pair):
        """A shared search's blocks hold at most _BLOCK_ROWS * d^2 // S
        rows, so its eta-sums stay within a single search's block, and the
        smaller blocks change no upper end."""
        A = fib_pair
        rng = np.random.default_rng(5)
        eta = rng.uniform(-0.3, 0.3, size=(12, 2))
        # A's lower end less max |eta| is below every sample's lower end
        lowers = np.full(12, optimize.lower_bound_cycles(full2, A, 6)[0] - 0.3)
        want = shared_uppers(A, eta, lowers, 9)
        leaves = []
        op_norms = optimize._op_norms

        def counting(P):
            leaves.append(len(P))
            return op_norms(P)

        monkeypatch.setattr(optimize, "_op_norms", counting)
        monkeypatch.setattr(optimize, "_BLOCK_ROWS", 12)
        got = shared_uppers(A, eta, lowers, 9)
        assert got.tolist() == want.tolist()
        assert max(leaves) == 12 * 4 // 12 and len(leaves) > 20


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


def eta_row(eta):
    """The values of eta in the row order of a step table."""
    return [eta.table[w] for w in eo.admissible_words(eta.space, eta.memory)]


def eta_potential(A, values):
    """The potential of A's space and memory with the given values, in the
    row order of a step table."""
    words = eo.admissible_words(A.space, A.memory)
    return eo.ScalarPotential(A.space, A.memory, dict(zip(words, values)))


def argmax(values):
    return max(range(len(values)), key=lambda i: (values[i], -i))


class TestScalarShift:
    """exp(eta) commutes with every step, so the probe and the stability
    trials score eta without building the perturbed cocycle; checked
    against `gamma_apply`, `cocycle_distance` and `cycle_exponent`."""

    @pytest.mark.parametrize("rational", [False, True])
    def test_closed_form_distance(self, rational):
        space, A = sft3_memory2(41)
        words = eo.admissible_words(space, 2)
        norms = perturb._step_norms(A)
        rng = np.random.default_rng(3)
        for size in (Fraction(1, 20), Fraction(1, 2), Fraction(3)):
            for _ in range(10):
                if rational:
                    table = {w: size * Fraction(int(rng.integers(-1000, 1001)), 1000)
                             for w in words}
                else:
                    table = {w: float(size) * float(rng.uniform(-1, 1)) for w in words}
                eta = eo.ScalarPotential(space, 2, table)
                want = cocycle_distance(gamma_apply(eta, A), A)
                assert perturb._distance(eta_row(eta), norms) == pytest.approx(want, rel=1e-12)

    @staticmethod
    def record_draws(monkeypatch, radius=None, counts=None):
        """Record the values of every eta the package draws, one list per
        row, drawn within `radius` in place of the requested delta when it
        is given; `counts`, when given, gets the row count of each draw."""
        drawn = []
        draw = perturb._perturbations

        def recording(rng, delta, exact, norms, count):
            eta = draw(rng, radius or delta, exact, norms, count)
            drawn.extend(eta.tolist())
            if counts is not None:
                counts.append(count)
            return eta

        monkeypatch.setattr(perturb, "_perturbations", recording)
        return drawn

    @pytest.mark.parametrize("exact", [False, True])
    def test_one_draw_is_successive_single_draws(self, fib_pair, step_potential, monkeypatch,
                                                 exact):
        """One draw of five rows makes one call to the generator and equals
        five one-row draws in turn from the same seed, at a delta where only
        some rows are halved: the reports depend on this stream."""
        A = eo.from_potential(step_potential) if exact else fib_pair
        norms, delta = perturb._step_norms(A), 40.0
        calls = []

        class Counting:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        first = []
        distance = perturb._distance

        def recording(eta, norms):
            first.append(distance(eta, norms))
            return first[-1]

        monkeypatch.setattr(perturb, "_distance", recording)
        rows = perturb._perturbations(Counting(2), delta, exact, norms, 5)
        assert len(calls) == 1 and 0 < np.count_nonzero(first[0] >= delta) < 5
        monkeypatch.undo()
        rng = np.random.default_rng(2)
        single = [perturb._perturbations(rng, delta, exact, norms, 1)[0].tolist()
                  for _ in range(5)]
        assert rows.tolist() == single
        assert all(isinstance(v, Fraction) for v in rows.ravel()) == exact
        assert (perturb._distance(rows, norms) < delta).all()

    def test_one_draw_per_trial_block(self, full2, step_potential, monkeypatch):
        counts = []
        self.record_draws(monkeypatch, counts=counts)
        family = [eo.periodic_measure(full2, eo.make_cycle(full2, w)) for w in ((0,), (1,))]
        trials = 2 * perturb._TRIAL_BLOCK + 7
        res = eo.stability_radius(family, eo.from_potential(step_potential), trials, seed=3)
        assert counts == [perturb._TRIAL_BLOCK, perturb._TRIAL_BLOCK, 7]
        assert res.trials_invariant == trials

    def test_large_delta_does_not_overflow(self, full2):
        """A d = 1 float potential at delta 5000: the first draw's
        expm1(eta) overflows, which reads as a distance beyond delta, so the
        row is halved; no numpy warning is raised."""
        A = eo.from_potential(eo.ScalarPotential(full2, 1, {(0,): 0.5, (1,): -0.25}))
        assert eo.uniqueness_probe(full2, A, n_samples=8, delta=5000.0, seed=1) == 1.0
        norms = perturb._step_norms(A)
        eta = perturb._perturbations(np.random.default_rng(1), 5000.0, False, norms, 8)
        assert np.isfinite(eta).all() and (perturb._distance(eta, norms) < 5000.0).all()

    def test_matrix_trial_values(self, monkeypatch):
        """Trial exponents are A's plus the eta-averages, to 1e-12.  Drawn
        far past the certified radius, some trials move the argmax, and the
        count of those that keep it matches the oracle's."""
        space, A = sft3_memory2(43)
        cycles = eo.enumerate_cycles(space, 4)
        family = [eo.periodic_measure(space, c) for c in cycles]
        drawn = self.record_draws(monkeypatch, radius=30.0)
        res = eo.stability_radius(family, A, trials=60, seed=8)
        values = eo.cycle_exponent(A, cycles)
        kept = 0
        for eta in (eta_potential(A, row) for row in drawn):
            want = eo.cycle_exponent(gamma_apply(eta, A), cycles)
            got = [v + mu.integrate(eta) for v, mu in zip(values, family)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            kept += argmax(want) == res.argmax_index
        assert len(drawn) == 60
        assert 0 < kept < 60
        assert res.trials_invariant == kept

    def test_rational_trial_values_are_exact(self, monkeypatch):
        space = eo.new_shift(2, [[True, True], [True, False]])
        f = random_rational_potential(np.random.default_rng(6), space, 2,
                                      denom_max=4, num_max=3)
        A = eo.from_potential(f)
        cycles = eo.enumerate_cycles(space, 6)
        family = [eo.periodic_measure(space, c) for c in cycles]
        values = eo.cycle_exponent(A, cycles)
        drawn = self.record_draws(monkeypatch, radius=30.0)
        res = eo.stability_radius(family, A, trials=40, seed=1)
        kept = 0
        for eta in (eta_potential(A, row) for row in drawn):
            assert eta.is_rational
            want = eo.cycle_exponent(gamma_apply(eta, A), cycles)
            got = [v + mu.integrate(eta) for v, mu in zip(values, family)]
            assert got == want and all(isinstance(v, Fraction) for v in got)
            kept += argmax(want) == res.argmax_index
        assert len(drawn) == 40
        assert 0 < kept < 40
        assert res.trials_invariant == kept

    def test_no_cocycle_is_built_per_trial(self, full2, fib_pair, step_potential, monkeypatch):
        built = []
        init = MatrixCocycle.__post_init__

        def counting(self):
            built.append(self)
            init(self)

        exact = eo.from_potential(step_potential)
        family = [eo.periodic_measure(full2, eo.make_cycle(full2, w))
                  for w in ((0,), (0, 1), (1,))]
        monkeypatch.setattr(MatrixCocycle, "__post_init__", counting)
        for A in (fib_pair, exact):
            assert eo.stability_radius(family, A, trials=200, seed=4).trials_invariant == 200
        assert eo.uniqueness_probe(full2, exact, n_samples=10, delta=0.05, seed=1) == 1.0
        eo.uniqueness_probe(full2, fib_pair, n_samples=6, delta=0.01, seed=1, n_max=6, p_max=4)
        assert built == []

    def test_large_delta_drives_the_halving_loop(self, full2, fib_pair, step_potential,
                                                 monkeypatch):
        counts = []
        drawn = self.record_draws(monkeypatch, counts=counts)
        distances = []
        distance = perturb._distance

        def counting(eta, norms):
            distances.append(distance(eta, norms))
            return distances[-1]

        monkeypatch.setattr(perturb, "_distance", counting)
        delta = 20.0
        for A in (fib_pair, eo.from_potential(step_potential)):
            drawn.clear()
            counts.clear()
            distances.clear()
            eo.uniqueness_probe(full2, A, n_samples=12, delta=delta, seed=2, n_max=6, p_max=4)
            # one draw of all 12 rows, then at least one halving
            assert counts == [12] and len(drawn) == 12
            assert distances[0].shape == (12,)
            assert len(distances) > 1 and max(d.max() for d in distances) >= delta
            for row in drawn:
                assert cocycle_distance(gamma_apply(eta_potential(A, row), A), A) < delta

    def test_family_on_another_space(self, full2, golden, fib_pair):
        family = [eo.periodic_measure(golden, eo.make_cycle(golden, (0,)))]
        with pytest.raises(ShapeMismatchError):
            eo.stability_radius(family, fib_pair, trials=1, seed=0)


def admissible(allowed, length):
    """The admissible words of a length over the transition matrix, in
    lexicographic order."""
    words = [(a,) for a in range(len(allowed))]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in range(len(allowed)) if allowed[w[-1]][b]]
    return words


def brute_verdicts(A, rows, n_max, p_max, slack, gap_tol=1e-9):
    """The probe's verdict for each perturbation e^{eta_w} A_w, eta in `rows`,
    by brute force in numpy: every primitive cycle up to p_max for the lower
    end; every admissible depth-n product, n <= n_max, for the upper end,
    stopping at the first depth whose gap is at most gap_tol; and one
    candidate within slack of a gap within slack."""
    allowed, m = A.space.allowed, A.memory
    memory_words = admissible(allowed, m)
    row_of = {w: i for i, w in enumerate(memory_words)}
    cycles = []  # the step rows around each cycle, as its least rotation
    for p in range(1, p_max + 1):
        for w in admissible(allowed, p):
            turns = {w[i:] + w[:i] for i in range(p)}
            if allowed[w[-1]][w[0]] and len(turns) == p and w == min(turns):
                cycles.append([row_of[tuple(w[(i + j) % p] for j in range(m))] for i in range(p)])
    # depth-n words as extensions of depth-(n - 1) words: (parent, step row)
    words = memory_words
    growth = []
    for _ in range(n_max - 1):
        ext = [(i, w + (b,)) for i, w in enumerate(words)
               for b in range(len(allowed)) if allowed[w[-1]][b]]
        words = [w for _, w in ext]
        growth.append((np.array([i for i, _ in ext]), np.array([row_of[w[-m:]] for w in words])))
    verdicts = []
    for eta in rows:
        steps = np.stack([A.matrix(w) for w in memory_words])
        steps = np.exp(np.array(eta))[:, None, None] * steps
        exponents = []
        for cycle in cycles:
            P = np.eye(A.d)
            for r in cycle:
                P = steps[r] @ P
            exponents.append(np.log(np.abs(np.linalg.eigvals(P)).max()) / len(cycle))
        lower = max(exponents)
        P, upper = steps, np.inf
        for n in range(1, n_max + 1):
            if n > 1:
                parents, reads = growth[n - 2]
                P = steps[reads] @ P[parents]
            upper = min(upper, np.log(np.linalg.norm(P, 2, axis=(1, 2)).max()) / n)
            if upper - lower <= gap_tol:
                break
        candidates = sum(e >= lower - slack for e in exponents)
        verdicts.append(candidates == 1 and upper - lower <= slack)
    return verdicts


def memory2_sft3():
    """The benchmark's memory-2 cocycle on a 3-letter SFT."""
    sft3 = eo.new_shift(3, [[True, True, False], [False, True, True], [True, True, True]])
    table = {(0, 0): [[2.04, -2.56], [0.42, -0.57]], (0, 1): [[-0.45, -0.22], [-2.02, -0.23]],
             (1, 1): [[-0.87, 3.32], [0.23, -0.35]], (1, 2): [[-0.28, -0.67], [-1.06, -0.39]],
             (2, 0): [[0.48, -0.24], [0.96, -0.2]], (2, 1): [[0.02, 1.55], [0.55, -0.51]],
             (2, 2): [[-0.18, 0.54], [1.94, -0.27]]}
    return eo.MatrixCocycle(sft3, 2, 2, {w: np.array(m) for w, m in table.items()})


class TestProbeOracle:
    """The matrix probe scores every sample from one search over A's word
    tree; each verdict is checked against a brute force over the perturbed
    matrices that shares no code with `ergopt.optimize`."""

    def pair(self, full2):
        return eo.MatrixCocycle(full2, 2, 1, {(0,): np.array([[0.19, -0.52], [-0.41, -2.44]]),
                                              (1,): np.array([[1.8, 1.14], [-0.33, 0.77]])})

    def check(self, monkeypatch, A, *, n_samples=12, seed=3, **kwargs):
        drawn = TestScalarShift.record_draws(monkeypatch)
        freq = eo.uniqueness_probe(A.space, A, n_samples=n_samples, seed=seed, **kwargs)
        want = brute_verdicts(A, drawn, kwargs["n_max"], kwargs["p_max"], kwargs["slack"])
        got = perturb._matrix_verdicts(A.space, A, np.array(drawn), kwargs["n_max"],
                                       kwargs["p_max"], kwargs["slack"])
        assert got.tolist() == want
        assert freq == sum(want) / n_samples
        return sum(want)

    @pytest.mark.parametrize("case", ["d1_float", "weighted_memory2"])
    def test_verdicts_match_a_cocycle_per_sample(self, monkeypatch, full2, case):
        """The verdicts equal those of `matrix_candidates` on each perturbed
        cocycle `gamma_apply(eta, A)`, which the probe no longer builds: at
        d = 1 with float entries, where both ends are a Karp maximum over
        every period (here the cycle 01, longer than p_max), and at memory 2
        with a weight."""
        if case == "d1_float":
            A = eo.MatrixCocycle(full2, 1, 2, {w: np.array([[v]]) for w, v in zip(
                eo.admissible_words(full2, 2), (2.0, 2.05, 2.05, 1.1))})
            kwargs = {"delta": 0.1, "n_max": 6, "p_max": 1, "slack": 1e-2}
        else:
            A = sft3_memory2(41)[1]
            kwargs = {"delta": 50.0, "n_max": 8, "p_max": 6, "slack": 1e-2}
        drawn = TestScalarShift.record_draws(monkeypatch)
        freq = eo.uniqueness_probe(A.space, A, n_samples=16, seed=6, **kwargs)
        del kwargs["delta"]
        want = [eo.matrix_candidates(A.space, gamma_apply(eta_potential(A, row), A),
                                     **kwargs).unique_at_resolution for row in drawn]
        assert 0 < sum(want) < 16
        assert freq == sum(want) / 16

    def test_frequency_strictly_between_0_and_1(self, monkeypatch, fib_pair):
        hits = self.check(monkeypatch, fib_pair, delta=0.5, n_max=8, p_max=6, slack=1e-6)
        assert 0 < hits < 12

    def test_memory2_sft3(self, monkeypatch):
        hits = self.check(monkeypatch, memory2_sft3(), delta=50.0, n_max=10, p_max=6, slack=0.1)
        assert 0 < hits < 12

    def test_halving_loop_at_depth_14(self, monkeypatch, full2):
        """A large delta draws again until the distance is below it; depth
        14 stays within the default word budget."""
        distances = []
        distance = perturb._distance

        def counting(eta, norms):
            distances.append(distance(eta, norms))
            return distances[-1]

        monkeypatch.setattr(perturb, "_distance", counting)
        hits = self.check(monkeypatch, self.pair(full2), delta=50.0, n_max=14, p_max=6,
                          slack=1e-4)
        assert max(d.max() for d in distances) >= 50.0 and len(distances) > 1
        assert 0 < hits < 12


class TestZeroRow:
    """A zero eta row is A itself, bit for bit: the probe's depth loop
    gives it the upper series of A's own bracket, and its verdict is A's
    `matrix_candidates` verdict."""

    @pytest.mark.parametrize("case", ["fib_pair", "memory2_sft3"])
    def test_zero_row_is_a_itself(self, request, case):
        A = request.getfixturevalue("fib_pair") if case == "fib_pair" else memory2_sft3()
        kwargs = {"n_max": 12, "p_max": 8, "slack": 1e-6}
        report = eo.matrix_candidates(A.space, A, **kwargs)
        bracket = eo.beta_bracket(A.space, A, kwargs["n_max"], kwargs["p_max"], gap_tol=1e-9)
        assert report.bracket == bracket
        # the zero row between two others, whose floors stay below their
        # lower ends: A's lower end less max |eta|
        rng = np.random.default_rng(7)
        eta = rng.uniform(-0.2, 0.2, size=(3, len(A._step_table.steps)))
        eta[1] = 0.0
        lowers = bracket.lower - np.array([0.2, 0.0, 0.2])
        column = optimize._upper_ends(A, lowers, kwargs["n_max"], 1e-9, eta=eta)[:, 1]
        assert column[~np.isnan(column)].tolist() == [u for _, u in bracket.upper_series]
        verdicts = perturb._matrix_verdicts(A.space, A, eta[1:2], **kwargs)
        assert verdicts.tolist() == [report.unique_at_resolution]
        assert report.unique_at_resolution == (case == "fib_pair")


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

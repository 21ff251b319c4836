import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt import measures
from ergopt.errors import BudgetExceededError, EmptySetError, ShapeMismatchError, ValidationError

PHI = (1 + math.sqrt(5)) / 2


class TestPeriodicMeasure:
    def test_cylinder_mass(self, full2):
        mu = eo.periodic_measure(full2, eo.make_cycle(full2, (0, 1)))
        assert mu.cylinder_mass((0,)) == Fraction(1, 2)
        assert mu.cylinder_mass((0, 1)) == Fraction(1, 2)
        assert mu.cylinder_mass((0, 0)) == 0

    def test_integral_is_exact_cycle_mean(self, full2, step_potential):
        mu = eo.periodic_measure(full2, eo.make_cycle(full2, (0, 1, 1)))
        val = eo.integrate(mu, step_potential)
        assert val == Fraction(2, 3) and isinstance(val, Fraction)

    def test_mass_sums_to_one_on_each_level(self, golden):
        mu = eo.periodic_measure(golden, eo.make_cycle(golden, (0, 0, 1)))
        for n in range(1, 6):
            total = sum(mu.cylinder_mass(w) for w in eo.admissible_words(golden, n))
            assert total == 1


class TestMarkovMeasure:
    def test_stationary_vector_uniform(self, full2):
        mu = eo.markov_measure(full2, [[0.5, 0.5], [0.5, 0.5]])
        assert mu.stationary[0] == pytest.approx(0.5)
        assert mu.cylinder_mass((0, 1, 1)) == pytest.approx(0.125)

    def test_golden_mean_parry_like(self, golden):
        mu = eo.markov_measure(golden, [[0.5, 0.5], [1.0, 0.0]])
        # pi = (2/3, 1/3)
        assert mu.stationary[0] == pytest.approx(2 / 3)
        assert mu.cylinder_mass((1, 1)) == 0.0

    def test_integrate(self, full2, step_potential):
        mu = eo.markov_measure(full2, [[0.25, 0.75], [0.25, 0.75]])
        assert eo.integrate(mu, step_potential) == pytest.approx(0.75)

    def test_validation(self, full2, golden):
        with pytest.raises(ValidationError):
            eo.MarkovMeasure(full2, ((0.5, 0.4), (0.5, 0.5)), (0.5, 0.5))
        with pytest.raises(ValidationError):
            eo.MarkovMeasure(full2, ((0.5, 0.5), (0.5, 0.5)), (0.9, 0.1))
        with pytest.raises(ValidationError):
            # positive mass on the forbidden word 11
            eo.markov_measure(golden, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("k, relation, P", [
        (2, None, [[0.3, 0.7], [0.6, 0.4]]),
        (3, None, [[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]),
        (2, [[True, True], [True, False]], [[0.6, 0.4], [1.0, 0.0]]),
    ], ids=["full2", "full3", "golden"])
    def test_stationary_is_solved_when_absent(self, k, relation, P):
        """Without a stationary vector `MarkovMeasure` is `markov_measure`,
        and the vector it solves for is, bit for bit, the least-squares
        solve of the float stochastic matrix, stored as Python floats."""
        space = eo.new_shift(k, relation)
        mu = eo.MarkovMeasure(space, P)
        assert mu == eo.markov_measure(space, P)
        assert mu.stochastic == tuple(map(tuple, P))
        solved = measures._stationary_vector(np.array(P, dtype=float))
        assert mu.stationary == tuple(float(x) for x in solved)
        assert all(type(x) is float for x in mu.stationary)

    def test_stochastic_is_checked_before_stationary(self, full2):
        """Faults in both, each refused on its own: the stochastic matrix's
        is named."""
        bad_rows, bad_masses = ((0.5, 0.6), (0.5, 0.5)), (1.5, -0.5)
        with pytest.raises(ValidationError, match="stationary entries must be nonnegative"):
            eo.MarkovMeasure(full2, ((1.0, 0.0), (0.0, 1.0)), bad_masses)
        with pytest.raises(ValidationError, match="stochastic rows must sum to 1"):
            eo.MarkovMeasure(full2, bad_rows, (0.5, 0.5))
        with pytest.raises(ValidationError, match="stochastic rows must sum to 1"):
            eo.MarkovMeasure(full2, bad_rows, bad_masses)

    @pytest.mark.parametrize("stochastic, stationary", [
        ([[0.5], [0.5, 0.5]], None),
        ([[0.5, 0.5], [0.5, 0.5]], [[0.5], 0.5]),
        ([[[0.5], 0.5], [0.5]], None),
    ], ids=["ragged_stochastic", "ragged_stationary", "ragged_deeper"])
    def test_ragged_input_is_a_shape_mismatch(self, full2, stochastic, stationary):
        """Library input that numpy cannot stack is refused by the one
        conversion of Markov data, not by numpy's ValueError."""
        with pytest.raises(ShapeMismatchError):
            eo.MarkovMeasure(full2, stochastic, stationary)

    @pytest.mark.parametrize("field, stochastic, stationary", [
        ("stochastic", [["0.5", 0.5], [0.5, 0.5]], None),
        ("stochastic", [[True, False], [0.5, 0.5]], None),
        ("stationary", [[0.5, 0.5], [0.5, 0.5]], ["0.5", 0.5]),
        ("stationary", [[0.5, 0.5], [0.5, 0.5]], [None, 0.5]),
    ], ids=["string_stochastic", "boolean_stochastic", "string_stationary", "null_stationary"])
    def test_non_numbers_are_refused_by_name(self, full2, field, stochastic, stationary):
        """A string entry such as '0.5' is no mass, and is not read as one."""
        with pytest.raises(ValidationError, match=f"{field} entries must be real numbers"):
            eo.MarkovMeasure(full2, stochastic, stationary)

    def test_empty_word_has_mass_one(self, golden):
        mu = eo.markov_measure(golden, [[0.6, 0.4], [1.0, 0.0]])
        assert mu.cylinder_mass(()) == 1.0

    def test_mass_sums_to_one_on_each_level(self, golden):
        mu = eo.markov_measure(golden, [[0.6, 0.4], [1.0, 0.0]])
        for n in range(1, 7):
            total = sum(mu.cylinder_mass(w) for w in eo.admissible_words(golden, n))
            assert total == pytest.approx(1.0)


class TestCesaroPush:
    def test_no_preamble_multiple_of_period_is_empirical(self, full2):
        c = eo.make_cycle(full2, (0, 1))
        nu = eo.cesaro_push(full2, (), c, 4)
        mu = eo.periodic_measure(full2, c)
        for n in range(1, 5):
            for w in eo.admissible_words(full2, n):
                assert nu.cylinder_mass(w) == mu.cylinder_mass(w)

    def test_integral_is_finite_birkhoff_average(self, full2, step_potential):
        nu = eo.cesaro_push(full2, (1, 1, 1), eo.make_cycle(full2, (0,)), 5)
        # windows: 1,1,1,0,0 -> average 3/5
        assert eo.integrate(nu, step_potential) == Fraction(3, 5)

    def test_converges_weakly_to_empirical(self, full2):
        c = eo.make_cycle(full2, (0, 1, 1))
        mu = eo.periodic_measure(full2, c)
        prev = None
        for n in (30, 300, 3000):
            nu = eo.cesaro_push(full2, (0, 0, 0, 0), c, n)
            d, err = eo.weakstar_distance(nu, mu, i_max=30)
            if prev is not None:
                assert d <= prev + err
            prev = d
        assert prev <= 0.01

    def test_bad_preamble_rejected(self, golden):
        with pytest.raises(ValidationError):
            eo.cesaro_push(golden, (1, 1), eo.make_cycle(golden, (0,)), 3)


def window_mass(preamble, word, n, w):
    """Oracle: the share of the first n shifts of preamble * word^infinity
    whose first len(w) letters are w, each window read letter by letter."""
    def letter(j):
        return preamble[j] if j < len(preamble) else word[(j - len(preamble)) % len(word)]
    hits = sum(1 for i in range(n) if tuple(letter(j) for j in range(i, i + len(w))) == tuple(w))
    return Fraction(hits, n)


def window_average(preamble, word, n, g):
    """Oracle: the values of g on the first n windows, summed one by one in
    order, over n: a Fraction for a rational g, else a float."""
    def letter(j):
        return preamble[j] if j < len(preamble) else word[(j - len(preamble)) % len(word)]
    total = sum(g.value(tuple(letter(j) for j in range(i, i + g.memory))) for i in range(n))
    return Fraction(total) / n if g.is_rational else total / n


ORBIT_SPACES = {
    "full2": (eo.new_shift(2), [(0,), (0, 1), (0, 1, 1), (0, 0, 1, 1, 1)], [(1, 1, 0), (1,)]),
    "golden": (eo.new_shift(2, [[True, True], [True, False]]),
               [(0,), (0, 1), (0, 0, 1)], [(1, 0, 1), (0, 1, 0, 1, 0, 0, 0)]),
    "sft3": (eo.new_shift(3, [[False, True, True], [True, False, True], [True, True, False]]),
             [(0, 1), (0, 1, 2), (0, 2, 1, 2)], [(2, 1, 2, 1), (1, 0, 2)]),
}


class TestOrbitMeasuresAgainstWindows:
    """Both orbit measures read the letters of one point: masses and
    integrals match a letter-by-letter reading of its windows."""

    @pytest.mark.parametrize("name", ORBIT_SPACES)
    def test_cylinder_masses(self, name):
        space, cycles, preambles = ORBIT_SPACES[name]
        words = [()] + [w for n in range(1, 5) for w in eo.admissible_words(space, n)]
        for word in cycles:
            c = eo.make_cycle(space, word)
            mu = eo.periodic_measure(space, c)
            for w in words:
                got = mu.cylinder_mass(w)
                assert isinstance(got, Fraction) and got == window_mass((), c.word, c.period, w)
            p = c.period
            for pre in [()] + [q for q in preambles if space.is_admissible(q + c.word)]:
                for n in sorted({1, max(1, p - 1), p, p + 1, 3 * p + 2, len(pre) + 5}):
                    nu = eo.cesaro_push(space, pre, c, n)
                    for w in words:
                        got = nu.cylinder_mass(w)
                        assert isinstance(got, Fraction)
                        assert got == window_mass(pre, c.word, n, w), (pre, c, n, w)

    @pytest.mark.parametrize("memory", [1, 2, 3])
    @pytest.mark.parametrize("name", ORBIT_SPACES)
    def test_integrals_keep_their_bits(self, name, memory):
        """The same Fraction for a rational potential, and the same float,
        bit for bit, for a float one: the window values summed in order."""
        space, cycles, preambles = ORBIT_SPACES[name]
        rng = np.random.default_rng(memory)
        words = eo.admissible_words(space, memory)
        potentials = [
            eo.ScalarPotential(space, memory, {w: Fraction(int(rng.integers(-50, 50)), 7)
                                               for w in words}),
            eo.ScalarPotential(space, memory, {w: float(rng.normal()) * 10.0 ** rng.integers(-3, 4)
                                               for w in words})]
        for g in potentials:
            for word in cycles:
                c = eo.make_cycle(space, word)
                got = eo.integrate(eo.periodic_measure(space, c), g)
                want = window_average((), c.word, c.period, g)
                assert type(got) is type(want) and got == want
                for pre in [()] + [q for q in preambles if space.is_admissible(q + c.word)]:
                    for n in (1, c.period + 1, 3 * c.period + 2, 50):
                        got = eo.integrate(eo.cesaro_push(space, pre, c, n), g)
                        want = window_average(pre, c.word, n, g)
                        assert type(got) is type(want) and got == want, (pre, c, n)

    def test_windows_of_one_length_are_counted_once(self, full2):
        """A weak* distance asks for every cylinder of both measures; each
        measure's windows are counted once per cylinder length."""
        mus = [eo.periodic_measure(full2, eo.make_cycle(full2, w)) for w in [(0,), (0, 0, 1)]]
        lengths = {len(w) for w in eo.TestBasis(full2).cylinders(1074)}
        measures._window_counts.cache_clear()
        eo.weakstar_distance(*mus, 1074)
        assert measures._window_counts.cache_info().misses == 2 * len(lengths)


class TestExponentOfMeasure:
    def test_periodic_exact(self, full2, fib_pair):
        mu = eo.periodic_measure(full2, eo.make_cycle(full2, (0, 1)))
        lo, hi = eo.exponent_of_measure(fib_pair, mu)
        assert lo == pytest.approx(math.log(PHI), rel=1e-10)
        assert hi == pytest.approx(math.log(PHI), rel=1e-10)

    def test_bernoulli_scalar_exact_mean(self, full2, step_potential):
        A = eo.from_potential(step_potential)
        mu = eo.markov_measure(full2, [[0.5, 0.5], [0.5, 0.5]])
        lo, hi = eo.exponent_of_measure(A, mu, n_max=8)
        assert lo == pytest.approx(0.5, abs=1e-9)
        assert hi == pytest.approx(0.5, abs=1e-9)

    def test_enclosure_ordered_and_shrinking(self, full2, fib_pair):
        mu = eo.markov_measure(full2, [[0.5, 0.5], [0.5, 0.5]])
        lo4, hi4 = eo.exponent_of_measure(fib_pair, mu, n_max=4)
        lo8, hi8 = eo.exponent_of_measure(fib_pair, mu, n_max=8)
        assert lo4 <= hi4 and lo8 <= hi8
        assert lo8 >= lo4 - 1e-12 and hi8 <= hi4 + 1e-12


    def test_depth_over_the_budget_builds_no_words(self, monkeypatch):
        """30 letters: depth 4 holds 810 000 words, over a 10^5 budget; the
        depth is refused before any of its words is grown.  Each growth
        step extends the words of the depth before: 30 words into depth 2
        and 900 into depth 3, and none into depth 4."""
        space = eo.new_shift(30)
        A = eo.from_potential(eo.constant_potential(space, Fraction(0)))
        mu = eo.markov_measure(space, np.full((30, 30), 1 / 30))
        parents = []
        real = measures._grow

        def recording(table, states, logscale, P):
            parents.append(len(states))
            return real(table, states, logscale, P)

        monkeypatch.setattr(measures, "_grow", recording)
        with pytest.raises(BudgetExceededError, match="810000 words at depth 4"):
            eo.exponent_of_measure(A, mu, n_max=5, word_budget=10**5)
        assert parents == [30, 900]


# (transition relation, stochastic matrix): the full 2-shift, the golden
# mean shift, and a 3-letter SFT whose Markov data put zero mass on its
# admissible transition 1 -> 1
_ORACLE_SPACES = {
    "full2": ([[1, 1], [1, 1]], [[0.3, 0.7], [0.6, 0.4]]),
    "golden": ([[1, 1], [1, 0]], [[0.55, 0.45], [1.0, 0.0]]),
    "sft3_zero": ([[1, 1, 0], [1, 1, 1], [1, 0, 1]],
                  [[0.5, 0.5, 0.0], [0.2, 0.0, 0.8], [0.3, 0.0, 0.7]]),
}


def _oracle_enclosures(allowed, table, memory, pi, P, n_max):
    """(1/n) sums over the admissible words of length n + memory - 1 of
    mass * log ||A_w|| and of mass * -log ||A_w^-1||, n = 1..n_max: words
    listed in plain Python, masses pi[w0] P[w0][w1]..., the raw matrices
    multiplied with numpy, first step rightmost."""
    k = len(allowed)
    uppers, lowers = [], []
    for n in range(1, n_max + 1):
        up = down = 0.0
        for w in itertools.product(range(k), repeat=n + memory - 1):
            if not all(allowed[a][b] for a, b in zip(w, w[1:])):
                continue
            mass = pi[w[0]] * math.prod(P[a][b] for a, b in zip(w, w[1:]))
            if mass == 0:
                continue
            M = table[w[:memory]]
            for j in range(1, n):
                M = table[w[j:j + memory]] @ M
            up += mass * math.log(np.linalg.norm(M, 2))
            down += mass * math.log(np.linalg.norm(np.linalg.inv(M), 2))
        uppers.append(up / n)
        lowers.append(-down / n)
    return uppers, lowers


class TestMarkovEnclosureOracle:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("memory", [1, 2, 3])
    @pytest.mark.parametrize("name", list(_ORACLE_SPACES))
    def test_both_ends_match_plain_enumeration(self, name, memory, d):
        allowed, P = _ORACLE_SPACES[name]
        space = eo.new_shift(len(allowed), allowed)
        rng = np.random.default_rng(100 * memory + d)
        table = {}
        for w in itertools.product(range(len(allowed)), repeat=memory):
            if all(allowed[a][b] for a, b in zip(w, w[1:])):
                table[w] = rng.uniform(-1.0, 1.0, (d, d)) + 2.0 * np.eye(d)
        A = eo.MatrixCocycle(space, d, memory, table)
        mu = eo.markov_measure(space, P)
        uppers, lowers = _oracle_enclosures(allowed, table, memory, mu.stationary,
                                            mu.stochastic, 4)
        for n_max in range(1, 5):
            lo, hi = eo.exponent_of_measure(A, mu, n_max=n_max)
            want_hi = min(uppers[:n_max])
            want_lo = min(max(lowers[:n_max]), want_hi)
            assert hi == pytest.approx(want_hi, abs=1e-12, rel=0)
            assert lo == pytest.approx(want_lo, abs=1e-12, rel=0)


class TestRestrictedBeta:
    def test_three_periodic_measures(self, full2, step_potential):
        A = eo.from_potential(step_potential)
        measures = [
            eo.periodic_measure(full2, eo.make_cycle(full2, w))
            for w in ((0,), (0, 1), (1,))
        ]
        res = eo.restricted_beta(measures, A)
        assert res.argmax == (2,)
        assert res.certified_singleton
        assert res.interval[0] == pytest.approx(1.0, abs=1e-9)

    def test_singleton_family(self, full2, fib_pair):
        mu = eo.periodic_measure(full2, eo.make_cycle(full2, (0, 1)))
        res = eo.restricted_beta([mu], fib_pair)
        assert res.argmax == (0,)
        assert res.interval[0] == pytest.approx(math.log(PHI), rel=1e-9)

    def test_empty_family_rejected(self, fib_pair):
        with pytest.raises(EmptySetError):
            eo.restricted_beta([], fib_pair)


class TestWeakstar:
    def test_basis_order(self, golden):
        basis = eo.measures.TestBasis(golden)
        cyls = basis.cylinders(6)
        assert cyls == [(0,), (1,), (0, 0), (0, 1), (1, 0), (0, 0, 0)]

    def test_two_fixed_points_derived_value(self, full2):
        mu0 = eo.periodic_measure(full2, eo.make_cycle(full2, (0,)))
        mu1 = eo.periodic_measure(full2, eo.make_cycle(full2, (1,)))
        d, err = eo.weakstar_distance(mu0, mu1, i_max=6)
        assert d == pytest.approx(0.890625, abs=1e-12)
        assert err == 2 * 2.0 ** -6

    def test_metric_axioms(self, full2):
        cycles = [eo.make_cycle(full2, w) for w in ((0,), (1,), (0, 1), (0, 1, 1))]
        mus = [eo.periodic_measure(full2, c) for c in cycles]
        for a in mus:
            assert eo.weakstar_distance(a, a, 8)[0] == 0.0
            for b in mus:
                dab = eo.weakstar_distance(a, b, 8)[0]
                assert dab == eo.weakstar_distance(b, a, 8)[0]
                for c in mus:
                    assert dab <= (eo.weakstar_distance(a, c, 8)[0]
                                   + eo.weakstar_distance(c, b, 8)[0] + 1e-12)

    def test_error_term_bounds_tail(self, full2):
        mu0 = eo.periodic_measure(full2, eo.make_cycle(full2, (0,)))
        mu1 = eo.periodic_measure(full2, eo.make_cycle(full2, (0, 1)))
        d_small, err = eo.weakstar_distance(mu0, mu1, i_max=5)
        d_big, _ = eo.weakstar_distance(mu0, mu1, i_max=20)
        assert abs(d_big - d_small) <= err

    def test_i_max_past_the_float_range(self, full2):
        """2^i leaves float64 at i = 1024; the weight 2.0^-i does not, and
        the terms past i = 1000 are far below the total's last digit."""
        mu0 = eo.periodic_measure(full2, eo.make_cycle(full2, (0,)))
        mu1 = eo.periodic_measure(full2, eo.make_cycle(full2, (0, 1)))
        assert (eo.weakstar_distance(mu0, mu1, i_max=1100)[0]
                == eo.weakstar_distance(mu0, mu1, i_max=1000)[0])

    @pytest.mark.parametrize("kind", ["periodic", "markov"])
    def test_huge_i_max_lists_no_zero_weight_cylinder(self, full2, kind, monkeypatch):
        """2.0^-i is 0.0 from i = 1075 on: the distance equals the sum over
        all i_max cylinders bit for bit around that index, and i_max = 10^8
        lists at most 1074 cylinders."""
        if kind == "periodic":
            mu0 = eo.periodic_measure(full2, eo.make_cycle(full2, (0,)))
            mu1 = eo.periodic_measure(full2, eo.make_cycle(full2, (0, 1)))
        else:
            mu0 = eo.markov_measure(full2, [[0.3, 0.7], [0.6, 0.4]])
            mu1 = eo.markov_measure(full2, [[0.5, 0.5], [0.5, 0.5]])
        basis = eo.measures.TestBasis(full2).cylinders(3000)
        for i_max in (1, 8, 1073, 1074, 1075, 1100, 3000):
            want = 0.0
            for i, w in enumerate(basis[:i_max], start=1):
                want += abs(float(mu0.cylinder_mass(w)) - float(mu1.cylinder_mass(w))) * 2.0 ** -i
            assert eo.weakstar_distance(mu0, mu1, i_max) == (want, 2.0 * 2.0 ** -i_max)
        counts = []
        cylinders = eo.measures.TestBasis.cylinders
        monkeypatch.setattr(eo.measures.TestBasis, "cylinders",
                            lambda self, count: counts.append(count) or cylinders(self, count))
        assert eo.weakstar_distance(mu0, mu1, 10**8) == (want, 0.0)
        assert max(counts) <= 1074


class TestHausdorff:
    def test_examples(self):
        assert eo.hausdorff_distance([1, 2], [1, 2]) == 0
        assert eo.hausdorff_distance([Fraction(0)], [Fraction(1)]) == 2
        # one-sided deviations 0 and 1 sum to 1
        assert eo.hausdorff_distance([0, 1], [0]) == 1

    def test_symmetry_and_empty(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            C = list(rng.standard_normal(3))
            D = list(rng.standard_normal(4))
            assert eo.hausdorff_distance(C, D) == eo.hausdorff_distance(D, C)
            assert eo.hausdorff_distance(C, D) >= 0
        with pytest.raises(EmptySetError):
            eo.hausdorff_distance([], [1.0])


class TestDispatch:
    def test_space_mismatch(self, full2, golden, step_potential):
        mu = eo.periodic_measure(golden, eo.make_cycle(golden, (0,)))
        with pytest.raises(ShapeMismatchError):
            eo.integrate(mu, step_potential)

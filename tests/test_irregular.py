import functools
import math
from fractions import Fraction
from itertools import chain, cycle, islice

import numpy as np
import pytest

import ergopt as eo
from ergopt.errors import EqualExponentsError, InadmissibleWordError, TooShortError, ValidationError
from ergopt import irregular
from ergopt.cocycle import _step_rows
from ergopt.irregular import _SCAN_ROWS, _join, _runs, _symbols

PHI = (1 + math.sqrt(5)) / 2


def scalar_step_cocycle(full2):
    f = eo.ScalarPotential(full2, 1, {(0,): Fraction(0), (1,): Fraction(1)})
    return eo.from_potential(f)


SCAN_N_MAX = 3 * _SCAN_ROWS + 7


@functools.lru_cache(maxsize=None)
def scan_case(d, memory, kind):
    """A cocycle on the full 3-shift, a point along it given as a random
    preamble of SCAN_N_MAX steps, and the oracle series over all of them.

    "gaussian" steps are standard normal; "extreme" steps are
    diag(10^60q) times them, q a rotation of (1, -1, 0) chosen by the last
    letter, so a product leaves [1e-100, 1e100] within two steps."""
    space = eo.new_shift(3)
    rng = np.random.default_rng(100 * d + 10 * memory + (kind == "extreme"))
    A = random_cocycle(rng, space, d, memory, kind)
    preamble = tuple(rng.integers(0, 3, SCAN_N_MAX + memory - 1).tolist())
    return space, A, (preamble, eo.make_cycle(space, (0,))), sequential_series(A, preamble)


def random_cocycle(rng, space, d, memory, kind):
    """Standard normal steps, or for "extreme" diag(10^60q) times them, q a
    rotation of (1, -1, 0) chosen by the word's last letter."""
    table = {}
    for w in eo.admissible_words(space, memory):
        step = rng.standard_normal((d, d))
        if kind == "extreme":
            step = np.diag(10.0 ** (60 * np.roll([1, -1, 0], w[-1])[:d])) @ step
        table[w] = step
    return eo.MatrixCocycle(space, d, memory, table)


def sequential_series(A, symbols):
    """Oracle: one product M @ P per step, divided by its largest entry,
    the logs of the divisors summed with Neumaier's compensation, and the
    2-norms from one batched `numpy.linalg.svd` call, added to the
    compensation before the sum."""
    m = A.memory
    N = len(symbols) - m + 1
    P = np.eye(A.d)
    total = comp = 0.0
    products, totals, comps = np.empty((N, A.d, A.d)), np.empty(N), np.empty(N)
    for n in range(N):
        P = A.table[symbols[n:n + m]] @ P
        big = np.abs(P).max()
        P = P / big
        x = math.log(big)
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
        products[n], totals[n], comps[n] = P, total, comp
    norms = np.linalg.svd(products, compute_uv=False)[:, 0]
    return ((comps + np.log(norms)) + totals) / np.arange(1, N + 1)


def joins_formed(monkeypatch):
    """A list to which every later `_join` call appends the number of
    matrices it forms."""
    formed = []

    def join(later, earlier):
        out = _join(later, earlier)
        formed.append(out[2].size // out[2].shape[-1] ** 2)
        return out

    monkeypatch.setattr(irregular, "_join", join)
    return formed


RUN_CASES = ("period_1", "period_2", "period_3", "long_preamble", "long_period",
             "golden_memory2", "golden_memory3")


@functools.lru_cache(maxsize=None)
def run_case(name, d, kind):
    """A cocycle, a point along it whose steps come in runs of one word,
    the largest N tested, and the oracle series up to it.

    period_1 has more than 2 _SCAN_ROWS repeats of one letter and no
    preamble, so chunk ends fall inside the run; period_2 and period_3
    cross one chunk end; long_preamble scans a preamble longer than
    _SCAN_ROWS first; long_period has a cycle longer than _SCAN_ROWS.  The
    golden-mean schedules, of (01)^a and (100)^b blocks (a bare Cycle, not
    its least rotation 001), read the splice 1 -> 1 through 0, so one
    connector is not empty, and their windows of m >= 2 letters straddle
    every block's end."""
    rng = np.random.default_rng(1000 * d + 7 * RUN_CASES.index(name) + (kind == "extreme"))
    if name.startswith("golden"):
        space = eo.new_shift(2, [[True, True], [True, False]])
        memory = int(name[-1])
        A = random_cocycle(rng, space, d, memory, kind)
        x = eo.build_irregular_point(space, A, eo.make_cycle(space, (0, 1)),
                                     eo.Cycle((1, 0, 0)), r=2.0, J=6)
        assert x.connectors[0] == (1, 0, 1)
        N = x.total_length + 50
        symbols = tuple(islice(chain(x.symbols(), cycle(x.cycles[1].word)), N + memory - 1))
        return space, A, x, N, sequential_series(A, symbols)
    space = eo.new_shift(3)
    A = random_cocycle(rng, space, d, 1, kind)
    preamble, word, N = {
        "period_1": ((), (0,), 2 * _SCAN_ROWS + 5),
        "period_2": ((2,), (0, 1), _SCAN_ROWS + 1000),
        "period_3": ((1, 1), (2, 0, 1), _SCAN_ROWS + 1000),
        "long_preamble": (tuple(rng.integers(0, 3, _SCAN_ROWS + 5).tolist()), (1, 2),
                          _SCAN_ROWS + 400),
        "long_period": ((2,), tuple(rng.integers(0, 3, _SCAN_ROWS + 3).tolist()),
                        2 * _SCAN_ROWS + 100),
    }[name]
    x = (preamble, eo.Cycle(word))
    return space, A, x, N, sequential_series(A, tuple(islice(eo.iter_point(*x), N)))


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


    def test_blocks_end_before_their_connectors(self):
        """On 0 -> {0, 1}, 1 -> 2, 2 -> {0, 2} the splice 0 -> 2 passes
        through 1: each block end is the last step of the block's own
        repeats, and the connector's letters follow it."""
        space = eo.new_shift(3, [[True, True, False], [False, False, True], [True, False, True]])
        A = eo.MatrixCocycle(space, 2, 1, {(a,): (a + 1.0) * np.eye(2) for a in range(3)})
        sched = eo.build_irregular_point(space, A, eo.make_cycle(space, (0,)),
                                         eo.make_cycle(space, (2,)), r=2.0, J=5)
        assert sched.connectors == ((0, 1, 2), (2, 0))
        symbols = list(sched.symbols())
        ends = sched.block_end_indices()
        assert ends[-1] == sched.total_length == len(symbols)
        start = 0
        for j, (L, end) in enumerate(zip(sched.lengths, ends)):
            assert symbols[start:end] == [2 * (j % 2)] * L
            connector = [1] if j % 2 == 0 and j + 1 < len(ends) else []
            start = end + len(connector)
            assert symbols[end:start] == connector

    @pytest.mark.parametrize("memory", [1, 2])
    def test_symbol_array_matches_the_symbol_stream(self, memory):
        """`_symbols` gives the first N + m - 1 symbols of a schedule, padded
        with its last block's cycle past its end, and of a (preamble, cycle)
        point, empty preamble included, as the per-symbol generators do."""
        space = eo.new_shift(3, [[True, True, False], [False, False, True], [True, False, True]])
        A = eo.MatrixCocycle(space, 2, 1, {(a,): (a + 1.0) * np.eye(2) for a in range(3)})
        sched = eo.build_irregular_point(space, A, eo.make_cycle(space, (0,)),
                                         eo.make_cycle(space, (2,)), r=2.0, J=5)
        assert sched.connectors[0] == (0, 1, 2)
        last = sched.cycles[(sched.depth - 1) % 2].word
        c = eo.make_cycle(space, (0, 1, 2))
        points = [(sched, chain(sched.symbols(), cycle(last))),
                  (((), c), eo.iter_point((), c)),
                  (((2, 2, 0, 1, 2), c), eo.iter_point((2, 2, 0, 1, 2), c))]
        for x, stream in points:
            want = list(islice(stream, 3 * sched.total_length))
            # within the first block, inside a connector, to the schedule's
            # end, and past it
            for N in (1, 2, 5, sched.block_end_indices()[2] + 1, sched.total_length,
                      sched.total_length + 7, 3 * sched.total_length - memory + 1):
                got = _symbols(x, N + memory - 1)
                assert got.dtype == np.intp
                assert got.tolist() == want[:N + memory - 1], (x, N)


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

    @pytest.mark.parametrize("kind", ["gaussian", "extreme"])
    @pytest.mark.parametrize("memory", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scan_matches_the_sequential_oracle(self, d, memory, kind):
        """Every N where the doubling or the chunks of the scan change
        shape: the first levels, odd lengths whose last step has no pair
        at every level (2^k - 1), one chunk, a chunk and one, two chunks
        less one, and four chunks, the last one short; and a square and a
        square and one."""
        space, A, x, want = scan_case(d, memory, kind)
        b = 12
        for N in (1, 2, 3, 5, 7, b * b, b * b + 1, 2**13 - 1, _SCAN_ROWS - 1, _SCAN_ROWS,
                  _SCAN_ROWS + 1, 2 * _SCAN_ROWS - 1, SCAN_N_MAX):
            series = eo.finite_time_exponents(space, A, x, N)
            assert series.shape == (N,)
            np.testing.assert_allclose(series, want[:N], rtol=0, atol=1e-13, err_msg=f"N = {N}")

    @pytest.mark.parametrize("kind", ["gaussian", "extreme"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", RUN_CASES)
    def test_runs_match_the_sequential_oracle(self, name, d, kind):
        """Every N mod 2 and mod 3 near the start of the point and near
        its end, so that runs stop after a partial last repeat, and one
        step past the preamble and past a block's end."""
        space, A, x, N_max, want = run_case(name, d, kind)
        ends = x.block_end_indices()[:3] if isinstance(x, eo.BlockSchedule) else [len(x[0])]
        for N in sorted({1, 2, 3, 4, 5, 6, 7, 50, 51, 52, N_max - 2, N_max - 1, N_max,
                         *(e + 1 for e in ends)}):
            series = eo.finite_time_exponents(space, A, x, N)
            np.testing.assert_allclose(series, want[:N], rtol=0, atol=1e-13, err_msg=f"N = {N}")

    def test_runs_tile_the_steps_and_repeat(self):
        """The pieces of a point cover its steps in order, each a run of at
        least two copies of its word, along which the step rows repeat and
        no further, or a single copy of at most _SCAN_ROWS steps; at memory
        3 a block's last two windows straddle its end."""
        golden = eo.new_shift(2, [[True, True], [True, False]])
        A = eo.MatrixCocycle(golden, 2, 1, {(0,): np.eye(2), (1,): 2 * np.eye(2)}).lift(3)
        x = eo.build_irregular_point(golden, A, eo.make_cycle(golden, (0, 1)),
                                     eo.Cycle((1, 0, 0)), r=2.0, J=6)
        N = x.total_length + 50
        rows = _step_rows(A._step_table.index, _symbols(x, N + 2))
        pieces = _runs(x, rows)
        assert [a for a, _, _ in pieces] == [0] + [b for _, b, _ in pieces[:-1]]
        assert pieces[-1][1] == N
        runs = [(a, b, p) for a, b, p in pieces if b - a > p]
        assert all(b - a == p <= _SCAN_ROWS for a, b, p in set(pieces) - set(runs))
        for a, b, p in runs:
            assert b - a >= 2 * p
            assert (rows[a + p:b] == rows[a:b - p]).all()
        # a run starts with its block and keeps on while the rows repeat:
        # past the block's last window inside it, which may reach into a
        # connector that continues the word; the last block's run goes to N
        blocks = {end - copies * len(word): (end - 2, len(word)) for _, word, copies, end in x._layout}
        for a, b, p in runs:
            assert blocks[a][1] == p and b >= blocks[a][0]
            assert b == N or rows[b] != rows[b - p]
        assert len(runs) == 4 and runs[-1][1] == N

    def test_no_join_holds_more_than_a_chunk(self, monkeypatch):
        """Runs of period 1 and 3, and single copies of a random preamble
        and of a cycle of more than _SCAN_ROWS steps, make no batched
        product of more than _SCAN_ROWS matrices."""
        largest = joins_formed(monkeypatch)
        space = eo.new_shift(3)
        A = random_cocycle(np.random.default_rng(3), space, 1, 1, "gaussian")
        rng = np.random.default_rng(4)
        for preamble, word in [((), (0,)), ((1,), (2, 0, 1)),
                               (tuple(rng.integers(0, 3, 3 * _SCAN_ROWS).tolist()), (1,)),
                               ((), tuple(rng.integers(0, 3, _SCAN_ROWS + 3).tolist()))]:
            eo.finite_time_exponents(space, A, (preamble, eo.Cycle(word)), 5 * _SCAN_ROWS)
        assert 0 < max(largest) <= _SCAN_ROWS

    def test_block_point_forms_about_one_product_a_step(self, monkeypatch):
        """The benchmark's block point, cycles 0 and 1 on the full 2-shift
        at r = 3 and J = 8, goes almost all in runs: its N = 5 * 10^4 steps
        form at most N + 64 products."""
        formed = joins_formed(monkeypatch)
        space = eo.new_shift(2)
        A = eo.MatrixCocycle(space, 2, 1, {(0,): np.array([[0.19, -0.52], [-0.41, -2.44]]),
                                           (1,): np.array([[1.8, 1.14], [-0.33, 0.77]])})
        x = eo.build_irregular_point(space, A, eo.make_cycle(space, (0,)),
                                     eo.make_cycle(space, (1,)), r=3.0, J=8)
        N = 5 * 10**4
        eo.finite_time_exponents(space, A, x, N)
        assert sum(formed) <= N + 64

    @pytest.mark.parametrize("memory", [1, 2])
    @pytest.mark.parametrize("preamble, word, pair", [
        ((1, 1, 1), (0,), "11"),  # inside the preamble
        ((1,), (1, 0), "11"),  # at the junction of preamble and cycle
        ((), (1,), "11"),  # at the cycle's wrap
        ((0,) * (_SCAN_ROWS - 1) + (1,), (1, 0), "11"),  # across the first chunk's end
    ], ids=["preamble", "junction", "wrap", "chunk_boundary"])
    def test_forbidden_two_word_refused(self, golden, memory, preamble, word, pair):
        """On the golden-mean shift a point that reads the forbidden 11 is
        refused at every memory, also when its cycle was built without
        `make_cycle`."""
        A = eo.MatrixCocycle(golden, 2, 1, {(0,): np.eye(2), (1,): 2 * np.eye(2)}).lift(memory)
        with pytest.raises(InadmissibleWordError, match=pair):
            eo.finite_time_exponents(golden, A, (preamble, eo.Cycle(word)), len(preamble) + 8)

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

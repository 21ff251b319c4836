"""The eleven acceptance criteria, one test per criterion.

Each test prints a single pass line for its criterion; tolerances and
budgets are as stated, with independent oracles (brute-force products and
cycle enumeration, never the code under test) wherever a value is derived.
"""

import math
import time
from fractions import Fraction

import numpy as np

import ergopt as eo
from ergopt import report

from conftest import (
    brute_force_beta,
    random_rational_potential,
    random_sft,
)

PHI = (1 + math.sqrt(5)) / 2
LOG_PHI = math.log((3 + math.sqrt(5)) / 2) / 2


def _pass(k: int, msg: str) -> None:
    print(f"ACCEPTANCE {k:2d}: PASS — {msg}")


def test_criterion_01_trivial_brackets(full2):
    t0 = time.monotonic()
    ident = eo.identity_cocycle(full2, d=2)
    br = eo.beta_bracket(full2, ident, n_max=1, p_max=1)
    assert abs(br.lower) <= 1e-12 and abs(br.upper) <= 1e-12
    assert br.n_used == 1 and br.p_used == 1

    diag = eo.MatrixCocycle(full2, 2, 1, {
        (0,): np.diag([2.0, 1.0]), (1,): np.diag([2.0, 1.0])})
    br2 = eo.beta_bracket(full2, diag, n_max=1, p_max=1)
    assert abs(br2.lower - math.log(2)) <= 1e-12
    assert abs(br2.upper - math.log(2)) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _pass(1, f"identity -> [0,0], diag(2,1) -> [log2,log2] at n=p=1 "
             f"({elapsed:.3f}s)")


def test_criterion_02_jsr_benchmark_pair(full2, fib_pair):
    t0 = time.monotonic()
    br = eo.beta_bracket(full2, fib_pair, n_max=24, p_max=2)
    assert abs(br.lower - LOG_PHI) <= 1e-12
    assert br.witness.word == (0, 1) and br.witness.period == 2
    assert br.upper - LOG_PHI <= 0.02

    # independent brute force over every product of length <= 12
    M = {0: np.array([[1.0, 1.0], [0.0, 1.0]]),
         1: np.array([[1.0, 0.0], [1.0, 1.0]])}
    best_cycle = -math.inf
    for n in range(1, 13):
        for idx in range(2 ** n):
            w = [(idx >> j) & 1 for j in range(n)]
            P = np.eye(2)
            for a in w:
                P = M[a] @ P
            ev = np.linalg.eigvals(P)
            best_cycle = max(best_cycle, math.log(max(abs(ev))) / n)
    assert abs(br.lower - best_cycle) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _pass(2, f"lower = log((1+sqrt5)/2) exactly at p=2, gap {br.gap:.2e} "
             f"<= 0.02, matches brute force <= 12 ({elapsed:.1f}s)")


def test_criterion_03_birkhoff_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    for i in range(200):
        space = random_sft(rng, int(rng.integers(2, 4)))
        f = random_rational_potential(rng, space, int(rng.integers(1, 4)))
        oracle = brute_force_beta(space, f)
        beta = eo.karp_beta(space, f)
        assert beta == oracle, f"instance {i}: {beta} != {oracle}"
        G = eo.critical_graph(space, f)
        assert G.beta == oracle
        node_count = len(eo.admissible_words(space, max(f.memory - 1, 1)))
        for c in eo.enumerate_cycles(space, node_count):
            mean = Fraction(sum(f.value(w) for w in c.windows(f.memory))) / c.period
            assert G.contains_cycle(c) == (mean == oracle)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _pass(3, f"200/200 random rational instances exact ({elapsed:.1f}s)")


def test_criterion_04_scalar_matrix_agreement():
    rng = np.random.default_rng(404)
    for _ in range(100):
        space = random_sft(rng, int(rng.integers(2, 4)))
        f = random_rational_potential(rng, space, int(rng.integers(1, 3)))
        beta = eo.karp_beta(space, f)
        br = eo.beta_bracket(space, eo.from_potential(f))
        size = len(eo.admissible_words(space, max(f.memory - 1, 1)))
        assert br.n_used <= size and br.p_used <= size
        assert br.upper - br.lower < 1e-9
        assert br.lower - 1e-12 <= float(beta) <= br.upper + 1e-12
        assert br.exact == beta
    _pass(4, "100/100 potentials: karp value inside a < 1e-9 bracket at "
             "graph size")


def test_criterion_05_sandwich_and_subadditivity(full2, golden):
    rng = np.random.default_rng(505)
    for i in range(50):
        space = golden if i % 2 else full2
        n_cap = 16 if i % 2 else 12
        table = {w: rng.standard_normal((2, 2)) + 2.5 * np.eye(2)
                 for w in eo.admissible_words(space, 1)}
        A = eo.MatrixCocycle(space, 2, 1, table)
        U = {n: eo.upper_bound(space, A, n) for n in range(1, n_cap + 1)}
        L, _ = eo.lower_bound_cycles(space, A, 6)
        for n in U:
            assert L <= U[n] + 1e-9
            for m in U:
                if n + m in U:
                    assert (n + m) * U[n + m] <= n * U[n] + m * U[m] + 1e-9
    _pass(5, "50/50 matrix instances: L_p <= U_n and subadditivity up to "
             "n+m = 16")


def test_criterion_06_exact_tie_breaking_sweep(full2):
    f = eo.ScalarPotential(full2, 2, {
        (0, 0): Fraction(1), (0, 1): Fraction(0),
        (1, 0): Fraction(0), (1, 1): Fraction(1)})
    gamma = eo.ScalarPotential(full2, 1, {(0,): Fraction(0), (1,): Fraction(1)})
    grid = [Fraction(1, 2 ** j) for j in range(1, 13)]
    res = eo.perturbation_sweep(full2, f, gamma, grid)
    assert res.limit == Fraction(1)
    for eps, vs, diam, h in zip(res.epsilons, res.value_sets,
                                res.diameters, res.hausdorff):
        assert isinstance(h, Fraction) or isinstance(h, int)
        assert h == 0, f"eps={eps}"
        assert diam == 0, f"eps={eps}"
        assert vs == (Fraction(1),)
    _pass(6, "two-loop tie: d_H = 0 and diam = 0 exactly for eps = 2^-1 .. "
             "2^-12")


def test_criterion_07_pinning_every_short_cycle(full2, golden):
    t0 = time.monotonic()
    checked = 0
    for space in (full2, golden):
        for c in eo.enumerate_cycles(space, 5):
            f = eo.pinning_potential(space, c)
            cycles, unique = eo.maximizing_cycles(space, f, 5)
            assert unique, f"cycle {c} not unique"
            assert [x.word for x in cycles] == [c.word]
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _pass(7, f"{checked} cycles of period <= 5 each uniquely pinned "
             f"({elapsed:.1f}s)")


def test_criterion_08_flatten_band():
    rng = np.random.default_rng(808)
    for _ in range(100):
        size = int(rng.integers(2, 21))
        vals = [Fraction(int(rng.integers(-10**6, 10**6 + 1)), 2**10)
                for _ in range(size)]
        sys = eo.identity_system(vals)
        for n in range(1, 11):
            res = eo.flatten_top(sys, n)
            assert res.distance <= sys.sup_norm * Fraction(1, 2 ** n)
            if res.band_holds:
                assert res.argmax_count >= 2
    _pass(8, "100/100 identity systems: ||g_n - f|| <= 2^-n ||f|| for "
             "n <= 10, argmax >= 2 on the band")


def test_criterion_09_stability_radius(full2, golden):
    rng = np.random.default_rng(909)
    done = 0
    while done < 50:
        space = golden if done % 2 else full2
        f = random_rational_potential(rng, space, int(rng.integers(1, 3)))
        A = eo.from_potential(f)
        pool = eo.enumerate_cycles(space, 4)
        picks = rng.choice(len(pool), size=3, replace=False)
        measures = [eo.periodic_measure(space, pool[i]) for i in picks]
        values = [eo.cycle_exponent(A, mu.cycle) for mu in measures]
        if len(set(values)) < len(values):
            continue  # resample: need a strict gap
        res = eo.stability_radius(measures, A, trials=100, seed=done)
        assert res.delta > 0
        assert res.trials_invariant == res.trials == 100
        done += 1
    _pass(9, "50/50 instances: certified delta kept the argmax in 100/100 "
             "perturbation trials")


def test_criterion_10_irregularity_evidence(full2):
    t0 = time.monotonic()
    f = eo.ScalarPotential(full2, 1, {(0,): Fraction(0), (1,): Fraction(1)})
    A = eo.from_potential(f)
    c0 = eo.make_cycle(full2, (0,))
    c1 = eo.make_cycle(full2, (1,))
    sched = eo.build_irregular_point(full2, A, c0, c1, r=3.0, J=8)
    series = eo.finite_time_exponents(full2, A, sched, sched.total_length)
    lo, hi, _ = eo.block_oscillation(series, sched)
    assert lo <= 0.3, f"tail liminf estimate {lo}"
    assert hi >= 0.7, f"tail limsup estimate {hi}"

    control = eo.finite_time_exponents(
        full2, A, ((), eo.make_cycle(full2, (0, 1))), 10**4)
    _, _, gap = eo.oscillation(control)
    assert gap <= 0.02
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _pass(10, f"block schedule oscillates [{lo:.3f}, {hi:.3f}], control "
              f"gap {gap:.1e} <= 0.02 ({elapsed:.1f}s)")


def test_criterion_11_deterministic_reports():
    configs = [
        {"system": {"alphabet": 2},
         "cocycle": {"d": 2, "memory": 1,
                     "matrices": {"0": [[1, 1], [0, 1]],
                                  "1": [[1, 0], [1, 1]]}},
         "experiment": "beta", "params": {"n_max": 10, "p_max": 4}},
        {"system": {"alphabet": 2},
         "potential": {"memory": 1, "values": {"0": "0", "1": "1"}},
         "experiment": "probe",
         "params": {"seed": 17, "n_samples": 15, "delta": 0.05}},
        {"system": {"alphabet": 2},
         "potential": {"memory": 1, "values": {"0": "0", "1": "1"}},
         "experiment": "lambda",
         "params": {"seed": 5, "trials": 40,
                    "measures": [{"cycle": "0"}, {"cycle": "01"}, {"cycle": "1"}]}},
    ]
    for cfg in configs:
        b1, _, _ = report.run_config(cfg, threads=1)
        b2, _, _ = report.run_config(cfg, threads=2)
        s1, s2 = report.serialize_body(b1), report.serialize_body(b2)
        assert s1 == s2, f"non-deterministic body for {cfg['experiment']}"
    _pass(11, "repeated runs (threads 1 and 2) give byte-identical report "
              "bodies")

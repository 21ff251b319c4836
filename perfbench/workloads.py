"""Seeded experiment configs for the benchmark workloads.

Every workload is a fixed list of configs.  Structural sizes (alphabet,
transitions, memory, d, depths, periods, sample counts, series length) are
constants in this file.  The seed draws only entries: matrices are jittered
by 0.1 % around fixed base systems and rational potentials are drawn
whole.  Branch-and-bound search cost swings by orders of magnitude between
unrelated random cocycles, so jitter around a base keeps the amount of work
nearly the same for every seed while still changing every input.

Each config carries an oracle kind, read by `oracles.py`, and any facts of
its construction that the oracle needs.  This module uses
numpy only and never imports the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

WORKLOADS = ("deep_search", "exact_scalar", "many_small")

# gap_tol is positive but unreachable, so every matrix bracket runs to n_max
# and accuracy shows in the bracket width, not in a time-to-tolerance
UNREACHABLE_GAP = 1e-300
JITTER = 0.001

FULL2 = {"alphabet": 2}
GOLDEN = {"alphabet": 2, "transitions": [[True, True], [True, False]]}
SFT3 = {"alphabet": 3,
        "transitions": [[True, True, False], [False, True, True], [True, True, True]]}

FIB_PAIR = {"0": [[1, 1], [0, 1]], "1": [[1, 0], [1, 1]]}
ROTATION_ANGLES = (0.2, 1.0)
ROTATION_STRETCH = (1.2, 1.1)
GOLDEN_3X3 = {
    "0": [[0.13, -0.13, 0.64], [0.1, -0.54, 0.36], [1.3, 0.95, -0.7]],
    "1": [[-1.27, -0.62, 0.04], [-2.33, -0.22, -1.25], [-0.73, -0.54, -0.32]],
}
FULL2_3X3 = {
    "0": [[0.35, 0.82, 0.33], [-1.3, 0.91, 0.45], [-0.54, 0.58, 0.36]],
    "1": [[0.29, 0.03, 0.55], [-0.74, -0.16, -0.48], [0.6, 0.04, -0.29]],
}
PAIR_2X2 = {"0": [[0.19, -0.52], [-0.41, -2.44]], "1": [[1.8, 1.14], [-0.33, 0.77]]}
MEMORY2_SFT3 = {  # one matrix per admissible 2-word of SFT3
    "00": [[2.04, -2.56], [0.42, -0.57]],
    "01": [[-0.45, -0.22], [-2.02, -0.23]],
    "11": [[-0.87, 3.32], [0.23, -0.35]],
    "12": [[-0.28, -0.67], [-1.06, -0.39]],
    "20": [[0.48, -0.24], [0.96, -0.2]],
    "21": [[0.02, 1.55], [0.55, -0.51]],
    "22": [[-0.18, 0.54], [1.94, -0.27]],
}


def words(k: int, length: int, transitions=None) -> list[str]:
    """Admissible words of the given length, lexicographic."""
    out = [str(a) for a in range(k)]
    for _ in range(length - 1):
        out = [w + str(b) for w in out for b in range(k)
               if transitions is None or transitions[int(w[-1])][b]]
    return out


def _jitter(rng: np.random.Generator, matrices: dict) -> dict:
    return {
        w: (np.asarray(m, dtype=float)
            * (1.0 + JITTER * rng.uniform(-1.0, 1.0, np.shape(m)))).tolist()
        for w, m in matrices.items()
    }


def _rational(rng: np.random.Generator, bound: int, den: int) -> Fraction:
    return Fraction(int(rng.integers(-bound, bound + 1)), den)


def _literal(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rational_potential(rng, system: dict, memory: int, bound=24, den=8) -> dict:
    ws = words(system["alphabet"], memory, system.get("transitions"))
    return {"memory": memory,
            "values": {w: _literal(_rational(rng, bound, den)) for w in ws}}


def _rotation_pair(rng: np.random.Generator) -> dict:
    out = {}
    for letter, theta, s in zip("01", ROTATION_ANGLES, ROTATION_STRETCH):
        theta *= 1.0 + JITTER * rng.uniform(-1.0, 1.0)
        s *= 1.0 + JITTER / 2 * rng.uniform(-1.0, 1.0)
        c, sn = math.cos(theta), math.sin(theta)
        out[letter] = [[c * s, -sn / s], [sn * s, c / s]]
    return out


def _case(name: str, kind: str, config: dict, **expect) -> dict:
    """One config with its oracle kind and any facts the oracle needs."""
    return {"name": name, "kind": kind, "config": config, "expect": expect}


def _matrix_beta(system, d, memory, matrices, n_max, p_max, gap_tol=UNREACHABLE_GAP):
    return {
        "system": system,
        "cocycle": {"d": d, "memory": memory, "matrices": matrices},
        "experiment": "beta",
        "params": {"n_max": n_max, "p_max": p_max, "gap_tol": gap_tol},
    }


def _deep_search(rng):
    return [
        _case("rotation_pair", "matrix_beta",
              _matrix_beta(FULL2, 2, 1, _rotation_pair(rng), n_max=22, p_max=12)),
        _case("golden_3x3", "matrix_beta",
              _matrix_beta(GOLDEN, 3, 1, _jitter(rng, GOLDEN_3X3), n_max=24, p_max=12)),
    ]


def _exact_scalar(rng):
    k5 = {"alphabet": 5}
    k4 = {"alphabet": 4}
    k3 = {"alphabet": 3}
    # gamma = g(shifted window) - g(window) + c: a coboundary plus a constant,
    # so every cycle has gamma-mean c and the ties of f = 0 survive every eps
    g = {w: _rational(rng, 24, 8) for w in words(3, 2)}
    c = _rational(rng, 24, 8)
    tie_gamma = {w: _literal(g[w[1:]] - g[w[:2]] + c) for w in words(3, 3)}
    return [
        _case("birkhoff_k5_m3", "birkhoff", {
            "system": k5, "potential": _rational_potential(rng, k5, 3),
            "experiment": "birkhoff", "params": {"p_max": 6}}),
        _case("constant_beta_k4_m3", "constant_beta", {
            "system": k4,
            "potential": {"memory": 3, "values": {w: "0" for w in words(4, 3)}},
            "experiment": "beta", "params": {"p_max": 6}}),
        _case("perturb_k4_m4", "perturb", {
            "system": k4, "potential": _rational_potential(rng, k4, 4),
            "experiment": "perturb",
            "params": {"gamma": _rational_potential(rng, k4, 4), "eps_min_pow": 10}}),
        _case("perturb_ties_k3_m3", "perturb_ties", {
            "system": k3,
            "potential": {"memory": 3, "values": {w: "0" for w in words(3, 3)}},
            "experiment": "perturb",
            "params": {"gamma": {"memory": 3, "values": tie_gamma},
                       "eps_min_pow": 4}}, gamma_mean=_literal(c)),
        _case("probe_k3_m2", "probe", {
            "system": k3, "potential": _rational_potential(rng, k3, 2),
            "experiment": "probe",
            "params": {"n_samples": 20, "delta": 0.1, "p_max": 8,
                       "seed": int(rng.integers(2**31))}}),
    ]


def _many_small(rng):
    pair = _jitter(rng, PAIR_2X2)
    cocycle = {"d": 2, "memory": 1, "matrices": pair}
    return [
        _case("fib_pair", "fib_beta",
              _matrix_beta(FULL2, 2, 1, FIB_PAIR, n_max=24, p_max=12, gap_tol=1e-3)),
        _case("full2_3x3", "matrix_beta",
              _matrix_beta(FULL2, 3, 1, _jitter(rng, FULL2_3X3), n_max=18, p_max=12)),
        _case("memory2_sft3", "matrix_beta",
              _matrix_beta(SFT3, 2, 2, _jitter(rng, MEMORY2_SFT3), n_max=12, p_max=8)),
        *[_case(f"probe_2x2_{i}", "probe", {
            "system": FULL2,
            "cocycle": {"d": 2, "memory": 1, "matrices": _jitter(rng, PAIR_2X2)},
            "experiment": "probe",
            "params": {"n_samples": 20, "delta": 0.05, "n_max": 10, "p_max": 8,
                       "seed": int(rng.integers(2**31))}}) for i in range(2)],
        _case("lambda_4_cycles", "lambda", {
            "system": FULL2, "cocycle": cocycle, "experiment": "lambda",
            "params": {"measures": [{"cycle": c} for c in ("0", "1", "01", "001")],
                       "trials": 1000, "seed": int(rng.integers(2**31))}}),
        _case("irregular_5e4", "irregular", {
            "system": FULL2, "cocycle": cocycle, "experiment": "irregular",
            "params": {"c1": "0", "c2": "1", "ratio": 3.0, "depth": 8, "N": 50_000}}),
        _case("measure_markov", "measure", {
            "system": FULL2, "cocycle": cocycle, "experiment": "measure",
            "params": {"measures": [{"stochastic": _stochastic(rng)}], "n_max": 10}}),
    ]


def _stochastic(rng: np.random.Generator) -> list[list[float]]:
    a, b = rng.uniform(0.3, 0.7, 2)
    return [[float(a), float(1 - a)], [float(b), float(1 - b)]]


_BUILDERS = {"deep_search": _deep_search, "exact_scalar": _exact_scalar,
             "many_small": _many_small}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's cases, in run order, drawn from the seed."""
    return _BUILDERS[workload](np.random.default_rng(seed))

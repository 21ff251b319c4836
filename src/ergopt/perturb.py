"""Perturbation experiments around maximizing measures.

Scalar perturbations exp(eps * gamma) select, among the maximizers of the
unperturbed system, those with maximal gamma-average; the sweep watches
that selection converge.  Also here: the cycle-pinning potential that
makes a chosen periodic measure the unique maximizer, a randomized
uniqueness probe, a certified stability radius for finite measure
families, and the top-flattening construction on identity systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cocycle import (
    MatrixCocycle,
    Scalar,
    ScalarPotential,
    cocycle_distance,
    gamma_apply,
    op_norm,
)
from .errors import InvalidArgumentError, NoGapError, ValidationError
from .measures import PeriodicMeasure, hausdorff_distance
from .optimize import (
    critical_graph,
    cycle_exponent,
    matrix_candidates,
    maximizing_cycles,
    relative_beta,
)
from .shift import Cycle, ShiftSpace, admissible_words


@dataclass(frozen=True)
class SweepResult:
    """Per-epsilon selection of the perturbed maximizers: `value_sets[i]`
    holds the distinct values among the least and the greatest
    gamma-average over them, so one value or two."""

    epsilons: tuple[Scalar, ...]
    value_sets: tuple[tuple[Scalar, ...], ...]
    diameters: tuple[Scalar, ...]
    hausdorff: tuple[Scalar, ...]
    limit: Scalar


def perturbation_sweep(
    space: ShiftSpace,
    f: ScalarPotential,
    gamma: ScalarPotential,
    eps_grid: Sequence[Scalar],
) -> SweepResult:
    """For each eps, the least and greatest gamma-average over maximizers of
    f + eps * gamma, with their diameter and distance to the limiting
    singleton.

    Exact (rational) when f, gamma and the grid are rational.
    """
    eps_grid = tuple(eps_grid)
    if not eps_grid or any(e <= 0 for e in eps_grid):
        raise ValidationError("epsilon grid must be positive")
    if any(a <= b for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValidationError("epsilon grid must be strictly decreasing")
    limit = relative_beta(space, f, gamma)
    value_sets: list[tuple[Scalar, ...]] = []
    diameters: list[Scalar] = []
    dists: list[Scalar] = []
    for eps in eps_grid:
        h = f + gamma.scale(eps)
        G = critical_graph(space, h)
        g = gamma.lift(h.memory)
        # every maximizer of h has gamma-average >= limit (compare it with
        # a maximizer of f of gamma-average limit), so the distance to
        # [limit] depends only on the two extremes
        values = sorted({-G.max_mean(-g), G.max_mean(g)})
        value_sets.append(tuple(values))
        diameters.append(values[-1] - values[0])
        dists.append(hausdorff_distance(values, [limit]))
    return SweepResult(eps_grid, tuple(value_sets), tuple(diameters), tuple(dists), limit)


def pinning_potential(space: ShiftSpace, c: Cycle) -> ScalarPotential:
    """A potential whose unique maximizing measure is the empirical measure
    of the given primitive cycle: 0 on the cycle's windows, -1 elsewhere."""
    memory = 2 if c.period == 1 else c.period
    on_cycle = set(c.windows(memory))
    table = {
        w: Fraction(0) if w in on_cycle else Fraction(-1)
        for w in admissible_words(space, memory)
    }
    return ScalarPotential(space, memory, table)


def _rational_noise(rng: np.random.Generator, words, scale: Fraction) -> dict:
    return {
        w: scale * Fraction(int(rng.integers(-(2**30), 2**30 + 1)), 2**30)
        for w in words
    }


def _sensitivity(space: ShiftSpace, A: MatrixCocycle) -> float:
    """max over memory-words of ||A_w|| + ||A_w^-1||."""
    return max(op_norm(A.matrix(w)) + op_norm(A.inverse_matrix(w))
               for w in admissible_words(space, A.memory))


def _scaled_perturbation(
    space: ShiftSpace,
    A: MatrixCocycle,
    rng: np.random.Generator,
    delta: float,
    rational: bool,
    sens: float,
) -> tuple[ScalarPotential, MatrixCocycle]:
    """Draw a scalar perturbation eta with cocycle distance at most delta;
    `sens` is `_sensitivity(space, A)`."""
    words = admissible_words(space, A.memory)
    if rational:
        scale = Fraction(delta).limit_denominator(10**9) / Fraction(max(1, math.ceil(2 * sens)))
        table = _rational_noise(rng, words, scale)
    else:
        scale = delta / (2.0 * sens)
        table = {w: scale * float(rng.uniform(-1.0, 1.0)) for w in words}
    eta = ScalarPotential(space, A.memory, table)
    B = gamma_apply(eta, A)
    while cocycle_distance(B, A) >= delta:
        eta = eta.scale(Fraction(1, 2) if rational else 0.5)
        B = gamma_apply(eta, A)
    return eta, B


def uniqueness_probe(
    space: ShiftSpace,
    A: MatrixCocycle,
    n_samples: int,
    delta: float,
    seed: int,
    n_max: int = 10,
    p_max: int = 8,
    slack: float = 1e-6,
) -> float:
    """Fraction of random scalar perturbations within distance delta whose
    maximizing set is a singleton (exactly for d = 1, at resolution for
    matrix cocycles).  Seed-deterministic."""
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be >= 1")
    if delta <= 0:
        raise InvalidArgumentError("delta must be positive")
    rng = np.random.default_rng(seed)
    exact = A.is_additive and A.additive_potential().is_rational
    sens = _sensitivity(space, A)
    hits = 0
    for _ in range(n_samples):
        eta, B = _scaled_perturbation(space, A, rng, delta, exact, sens)
        if exact:
            f_tot = A.additive_potential() + eta
            _, unique = maximizing_cycles(space, f_tot, p_max)
        else:
            report = matrix_candidates(space, B, n_max=n_max, p_max=p_max, slack=slack)
            unique = report.unique_at_resolution
        hits += bool(unique)
    return hits / n_samples


@dataclass(frozen=True)
class StabilityResult:
    """Certified perturbation radius preserving a strict restricted argmax."""

    delta: float
    gap: float
    argmax_index: int
    trials: int
    trials_invariant: int


def stability_radius(
    measures: Sequence[PeriodicMeasure],
    A: MatrixCocycle,
    trials: int,
    seed: int,
) -> StabilityResult:
    """Radius delta such that every perturbation within delta keeps the same
    restricted argmax, derived from a per-step log-norm Lipschitz bound and
    verified empirically on `trials` random perturbations."""
    if not measures or any(not isinstance(mu, PeriodicMeasure) for mu in measures):
        raise ValidationError("the family must consist of periodic measures")
    space = measures[0].space
    exact = A.is_additive and A.additive_potential().is_rational
    cycles = [mu.cycle for mu in measures]
    values = cycle_exponent(A, cycles)
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=True)
    best = order[0]
    if len(values) > 1:
        if values[order[1]] == values[best]:
            raise NoGapError("restricted argmax is not a certified singleton")
        gap = float(values[best] - values[order[1]])
    else:
        gap = math.inf
    sens = _sensitivity(space, A)
    delta = min(gap / (2.0 * A.d * math.e * sens), 1.0 / (2.0 * sens))
    rng = np.random.default_rng(seed)
    ok = 0
    for _ in range(trials):
        eta, B = _scaled_perturbation(space, A, rng, delta, exact, sens)
        new_values = cycle_exponent(B, cycles)
        new_best = max(range(len(new_values)), key=lambda i: (new_values[i], -i))
        ok += new_best == best
    return StabilityResult(delta=delta, gap=gap, argmax_index=best,
                           trials=trials, trials_invariant=ok)


# ---------------------------------------------------------------------------
# identity-map grid systems


@dataclass(frozen=True)
class IdentitySystem:
    """A finite grid of fixed points; every point mass is ergodic."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValidationError("identity system needs at least 2 grid points")

    @property
    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)


def identity_system(values: Sequence[float | Fraction]) -> IdentitySystem:
    return IdentitySystem(tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
class FlattenResult:
    flattened: tuple[Fraction, ...]
    distance: Fraction
    argmax_count: int
    band_holds: bool


def flatten_top(sys: IdentitySystem, n: int) -> FlattenResult:
    """Clamp the top (and bottom) 2^-n band of the range, producing a nearby
    function whose maximum is attained at every grid point of the band.

    Exact: distance <= sup_norm / 2^n always holds in rational arithmetic.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    nf = sys.sup_norm
    level = Fraction(2**n - 1, 2**n) * nf
    g = tuple(
        level if v >= level else (-level if v <= -level else v)
        for v in sys.values
    )
    distance = max(abs(a - b) for a, b in zip(g, sys.values))
    top = max(g)
    argmax_count = sum(1 for v in g if v == top)
    band_holds = sum(1 for v in sys.values if v >= level) >= 2
    return FlattenResult(g, distance, argmax_count, band_holds)

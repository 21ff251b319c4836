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

from . import _graph
from .cocycle import (
    MatrixCocycle,
    Scalar,
    ScalarPotential,
    _op_norms,
    gamma_apply,
)
from .errors import InvalidArgumentError, NoGapError, ShapeMismatchError, ValidationError
from .measures import PeriodicMeasure, hausdorff_distance
from .optimize import (
    _cycle_rows,
    _means,
    critical_graph,
    cycle_exponent,
    matrix_candidates,
    maximizing_cycles,
    relative_beta,
)
from .shift import Cycle, ShiftSpace, _word_index, admissible_words

_TRIAL_BLOCK = 1024  # most stability trials scored as one array


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
    if not eps_grid or not all(e > 0 for e in eps_grid):
        raise ValidationError("epsilon grid must be positive")
    if any(a <= b for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValidationError("epsilon grid must be strictly decreasing")
    limit = relative_beta(space, f, gamma)
    value_sets: list[tuple[Scalar, ...]] = []
    diameters: list[Scalar] = []
    dists: list[Scalar] = []
    g = gamma.lift(max(f.memory, gamma.memory))
    neg = -g
    for eps in eps_grid:
        G = critical_graph(space, f + gamma.scale(eps))
        # every maximizer of f + eps * gamma has gamma-average >= limit
        # (compare it with a maximizer of f of gamma-average limit), so the
        # distance to [limit] depends only on the two extremes
        values = sorted({-G.max_mean(neg), G.max_mean(g)})
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


def _step_norms(A: MatrixCocycle) -> np.ndarray:
    """||A_w|| and ||A_w^-1|| over the rows w of A's step table: (2, E)."""
    table = A._step_table
    return np.stack([table.norms, _op_norms(table.inverses)])


def _distance(eta: Sequence[Scalar], norms: np.ndarray) -> float:
    """`cocycle_distance(gamma_apply(eta, A), A)` for `norms = _step_norms(A)`:
    B_w - A_w = expm1(eta_w) A_w and B_w^-1 - A_w^-1 = expm1(-eta_w) A_w^-1."""
    x = np.array(eta, dtype=float)
    return float((np.abs(np.expm1(x)) * norms[0] + np.abs(np.expm1(-x)) * norms[1]).max())


def _scaled_perturbation(
    rng: np.random.Generator,
    delta: float,
    rational: bool,
    norms: np.ndarray,
) -> list[Scalar]:
    """Draw a scalar perturbation eta of A's memory with cocycle distance
    below delta from A, for `norms = _step_norms(A)`: its values at the rows
    of A's word index, in order."""
    count = norms.shape[1]
    sens = float(norms.sum(axis=0).max())
    if rational:
        # a delta too small for the denominator limit keeps its exact value
        size = Fraction(delta).limit_denominator(10**9) or Fraction(delta)
        scale = size / Fraction(max(1, math.ceil(2 * sens)))
        eta = [scale * Fraction(n, 2**30)
               for n in rng.integers(-(2**30), 2**30 + 1, count).tolist()]
    else:
        eta = (delta / (2.0 * sens) * rng.uniform(-1.0, 1.0, count)).tolist()
    while _distance(eta, norms) >= delta:
        eta = [(Fraction(1, 2) if rational else 0.5) * v for v in eta]
    return eta


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
    if not 0 < delta < math.inf:
        raise InvalidArgumentError("delta must be positive and finite")
    if seed < 0:
        raise InvalidArgumentError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    f = A.additive_potential() if A.is_additive else None
    exact = f is not None and f.is_rational
    norms = _step_norms(A)
    words = _word_index(space, A.memory).words
    hits = 0
    for _ in range(n_samples):
        values = _scaled_perturbation(rng, delta, exact, norms)
        eta = ScalarPotential(space, A.memory, dict(zip(words, values)))
        if exact:
            _, unique = maximizing_cycles(space, f + eta, p_max)
        else:
            unique = matrix_candidates(space, gamma_apply(eta, A), n_max=n_max, p_max=p_max,
                                       slack=slack).unique_at_resolution
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
    if trials < 0 or seed < 0:
        raise ValidationError("trials and seed must be >= 0")
    space = measures[0].space
    if space != A.space:
        raise ShapeMismatchError("the measures and the cocycle live on different shift spaces")
    exact = A.is_additive and A.additive_potential().is_rational
    values = cycle_exponent(A, [mu.cycle for mu in measures])
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=True)
    best = order[0]
    if len(values) > 1:
        if values[order[1]] == values[best]:
            raise NoGapError("restricted argmax is not a certified singleton")
        gap = float(values[best] - values[order[1]])
    else:
        gap = math.inf
    norms = _step_norms(A)
    sens = float(norms.sum(axis=0).max())
    delta = min(gap / (2.0 * A.d * math.e * sens), 1.0 / (2.0 * sens))
    rng = np.random.default_rng(seed)
    index = _word_index(space, A.memory)
    groups = _cycle_rows(index, [mu.cycle for mu in measures])
    ok = 0
    for lo in range(0, trials, _TRIAL_BLOCK):
        etas = [_scaled_perturbation(rng, delta, exact, norms)
                for _ in range(min(_TRIAL_BLOCK, trials - lo))]
        W, L = _graph._weights([v for eta in etas for v in eta], len(index.nodes))
        # exp(eta) commutes with every step: exponents shift by eta-averages
        new_values = _means(W.reshape(len(etas), -1), L, groups, len(values))
        new_values += np.array(values, dtype=new_values.dtype)
        # ties go to the least index, as in `best`
        ok += int(np.count_nonzero(new_values.argmax(axis=1) == best))
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
    g = tuple(max(-level, min(level, v)) for v in sys.values)
    distance = max(abs(a - b) for a, b in zip(g, sys.values))
    top = max(g)
    argmax_count = sum(1 for v in g if v == top)
    band_holds = sum(1 for v in sys.values if v >= level) >= 2
    return FlattenResult(g, distance, argmax_count, band_holds)

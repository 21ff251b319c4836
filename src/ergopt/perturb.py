"""Perturbation experiments around maximizing measures.

Scalar perturbations exp(eps * gamma) select, among the maximizers of the
unperturbed system, those with maximal gamma-average; the sweep watches
that selection converge.  Also here: the cycle-pinning potential that
makes a chosen periodic measure the unique maximizer, a randomized
uniqueness probe, a certified stability radius for finite measure
families, and the top-flattening construction on identity systems.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from . import _graph
from .cocycle import MatrixCocycle, Scalar, ScalarPotential, _check_space, _op_norms
from .errors import InvalidArgumentError, NoGapError, ValidationError
from .measures import PeriodicMeasure, hausdorff_distance
from .optimize import (
    DEFAULT_GAP_TOL,
    _check_bracket_args,
    _cycle_rows,
    _means,
    _upper_ends,
    critical_graph,
    cycle_exponent,
    matrix_candidates,
    maximizing_cycles,
)
from .shift import Cycle, ShiftSpace, _word_index

_TRIAL_BLOCK = 1024  # most stability trials scored as one array


@dataclass(frozen=True)
class SweepResult:
    """Per-epsilon selection of the perturbed maximizers: `value_sets[i]`
    holds the distinct values among the least and the greatest
    gamma-average over them, so one value or two.  On the exact route
    `breakpoints` holds each eps in (0, max grid] where beta(eps) bends and
    `threshold` the first of them, None when there is none; both are None
    on the float route."""

    epsilons: tuple[Scalar, ...]
    value_sets: tuple[tuple[Scalar, ...], ...]
    diameters: tuple[Scalar, ...]
    hausdorff: tuple[Scalar, ...]
    limit: Scalar
    breakpoints: tuple[Fraction, ...] | None = None
    threshold: Fraction | None = None


def perturbation_sweep(
    space: ShiftSpace,
    f: ScalarPotential,
    gamma: ScalarPotential,
    eps_grid: Sequence[Scalar],
) -> SweepResult:
    """For each eps, the least and greatest gamma-average over maximizers of
    f + eps * gamma, with their diameter and distance to the limiting
    singleton.

    beta(eps) = max over cycles c of (f_c + eps gamma_c) is convex and
    piecewise linear, and the two values at eps are its left and right
    slopes there, read off the critical graph of f + eps * gamma.  Exact
    (rational) when f, gamma and the grid are rational: then the graphs at
    eps = 0, at the largest eps and at the breakpoints in between
    (Eisner-Severance) give every grid point.  Float inputs evaluate every
    grid point instead: their tight edges are tight only to a tolerance.
    """
    eps_grid = tuple(eps_grid)
    if not eps_grid or not all(e > 0 for e in eps_grid):
        raise ValidationError("epsilon grid must be positive")
    if any(a <= b for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValidationError("epsilon grid must be strictly decreasing")
    m = max(f.memory, gamma.memory)
    f, g = f.lift(m), gamma.lift(m)
    neg = -g
    G = critical_graph(space, f)
    limit = G.max_mean(g)
    exact = f.is_rational and g.is_rational and all(isinstance(e, Rational) for e in eps_grid)

    def evaluate(eps: Scalar) -> tuple[Scalar, Scalar, Scalar]:
        """beta(eps) and its left and right slopes at eps."""
        G = critical_graph(space, f + g.scale(eps))
        return G.beta, -G.max_mean(neg), G.max_mean(g)

    points = {0: (G.beta, None, limit)}
    if exact:
        _breakpoint_path(evaluate, points, Fraction(eps_grid[0]))
    else:
        points.update((eps, evaluate(eps)) for eps in eps_grid)
    evaluated = sorted(points)
    breakpoints = tuple(e for e in evaluated[1:] if points[e][1] != points[e][2]) if exact else None
    threshold = breakpoints[0] if breakpoints else None
    value_sets: list[tuple[Scalar, ...]] = []
    diameters: list[Scalar] = []
    dists: list[Scalar] = []
    for eps in eps_grid:
        # beta is affine from the last evaluated point up to eps
        at = evaluated[bisect.bisect_right(evaluated, eps) - 1]
        _, left, right = points[at]
        values = sorted({left, right}) if at == eps else [right]
        value_sets.append(tuple(values))
        diameters.append(values[-1] - values[0])
        # every maximizer of f + eps * gamma has gamma-average >= limit
        # (compare it with a maximizer of f of gamma-average limit), so the
        # distance to [limit] depends only on the two extremes
        dists.append(hausdorff_distance(values, [limit]))
    return SweepResult(eps_grid, tuple(value_sets), tuple(diameters), tuple(dists), limit,
                       breakpoints, threshold)


def _breakpoint_path(evaluate, points: dict, top: Fraction) -> None:
    """Add to `points` (eps -> `evaluate(eps)`, holding eps = 0 with no left
    slope) top and every eps where Eisner-Severance evaluates in between:
    every breakpoint of beta in (0, top] is among them."""
    points[top] = evaluate(top)
    todo = [(0, top)]
    while todo:
        a, c = todo.pop()
        (beta_a, _, right), (beta_c, left, _) = points[a], points[c]
        if right == left:  # convex: beta is affine on [a, c]
            continue
        # the supporting lines at a and at c meet inside (a, c); beta lies
        # on them there only when x is the one breakpoint of (a, c)
        x = (beta_c - beta_a + a * right - c * left) / (right - left)
        points[x] = evaluate(x)
        if points[x][0] > beta_a + (x - a) * right:
            todo += [(a, x), (x, c)]


def pinning_potential(space: ShiftSpace, c: Cycle) -> ScalarPotential:
    """A potential whose unique maximizing measure is the empirical measure
    of the given primitive cycle: 0 on the cycle's windows, -1 elsewhere."""
    memory = 2 if c.period == 1 else c.period
    index = _word_index(space, memory)
    row = np.full(len(index.words), -1)
    row[_cycle_rows(index, [c])[0]] = 0
    return ScalarPotential._of(space, memory, row, 1)


def _step_norms(A: MatrixCocycle) -> np.ndarray:
    """||A_w|| and ||A_w^-1|| over the rows w of A's step table: (2, E)."""
    table = A._step_table
    return np.stack([table.norms, _op_norms(table.inverses)])


def _distance(eta, norms: np.ndarray) -> np.ndarray:
    """`cocycle_distance(gamma_apply(eta_s, A), A)` for each row eta_s of
    eta and `norms = _step_norms(A)`: B_w - A_w = expm1(eta_w) A_w and
    B_w^-1 - A_w^-1 = expm1(-eta_w) A_w^-1.  An overflow reads as inf."""
    x = np.asarray(eta, dtype=float)
    with np.errstate(over="ignore"):
        return (np.abs(np.expm1(x)) * norms[0] + np.abs(np.expm1(-x)) * norms[1]).max(axis=-1)


def _perturbations(rng: np.random.Generator, delta: float, exact: bool, norms: np.ndarray,
                   count: int) -> np.ndarray:
    """`count` scalar perturbations from one draw, a row each over the rows
    of A's word index for `norms = _step_norms(A)`, `Fraction`s when exact;
    rows at cocycle distance delta or more from A are halved until none is."""
    sens = float(norms.sum(axis=0).max())
    shape = (count, norms.shape[1])
    if exact:
        # a delta too small for the denominator limit keeps its exact value
        size = Fraction(delta).limit_denominator(10**9) or Fraction(delta)
        scale = size / Fraction(max(1, math.ceil(2 * sens)) * 2**30)
        eta = rng.integers(-(2**30), 2**30 + 1, shape).astype(object) * scale
    else:
        eta = delta / (2.0 * sens) * rng.uniform(-1.0, 1.0, shape)
    far = _distance(eta, norms) >= delta
    while far.any():
        eta[far] *= Fraction(1, 2) if exact else 0.5
        far[far] = _distance(eta[far], norms) >= delta
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
    _check_space(space, A)
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be >= 1")
    if not 0 < delta < math.inf:
        raise InvalidArgumentError("delta must be positive and finite")
    if seed < 0:
        raise InvalidArgumentError("seed must be >= 0")
    _check_bracket_args(n_max, p_max, DEFAULT_GAP_TOL, slack)
    rng = np.random.default_rng(seed)
    f = A.additive_potential() if A.is_additive else None
    exact = f is not None and f.is_rational
    norms = _step_norms(A)
    eta = _perturbations(rng, delta, exact, norms, n_samples)
    if exact:
        # every row of eta over one L, each added to f's integer row
        W, L = _graph._weights(eta.ravel().tolist(), len(_word_index(space, A.memory).nodes))
        unique = [maximizing_cycles(space, f + ScalarPotential._of(space, A.memory, w, L), p_max)[1]
                  for w in W.reshape(eta.shape)]
    else:
        unique = _matrix_verdicts(space, A, eta, n_max, p_max, slack)
    return int(np.count_nonzero(unique)) / n_samples


def _matrix_verdicts(space: ShiftSpace, A: MatrixCocycle, eta: np.ndarray, n_max: int,
                     p_max: int, slack: float) -> np.ndarray:
    """`matrix_candidates(space, gamma_apply(eta_s, A), n_max, p_max,
    slack).unique_at_resolution` for each row eta_s of eta (S, E), to
    rounding, without building a cocycle: e^{eta_s} commutes with every
    step, so a cycle's exponent moves by the cycle's eta_s-mean and a
    word's log norm by its eta_s-sum.

    A sample's lower end L_s = max_c of its cycle exponents lies within
    h = max |eta| of A's, so only the cycles within slack + 2h of A's lower
    end can reach L_s - slack: A's own candidates at that slack, whose
    exponents its report holds.  The upper ends come from the depth loop of
    A's own bracket (`_upper_ends`), one shared search per run of depths,
    each sample's the least U_n it ran.  For d = 1 both ends are the Karp
    maximum of the shifted potential, as in `matrix_candidates`."""
    index = _word_index(space, A.memory)
    # the margin covers the rounding of the eta-means
    wide = slack + 2.0 * float(np.abs(eta).max()) + 1e-9
    # A's upper end plays no part here, so its bracket stops at depth 1
    report = matrix_candidates(space, A, n_max=1, p_max=p_max, slack=wide)
    exponents = np.array(report.exponents) + _means(eta, None, _cycle_rows(index, report.candidates))
    if A.is_additive:
        w = A.additive_potential().row[index.rows]
        lowers = uppers = np.array([
            _graph.max_cycle_mean(len(index.nodes), index.tails, index.heads,
                                  w + row[index.rows], None) for row in eta])
    else:
        lowers = exponents.max(axis=1)
        uppers = np.nanmin(_upper_ends(A, lowers, n_max, eta=eta), axis=0)
    candidates = np.count_nonzero(exponents >= (lowers - slack)[:, None], axis=1)
    return (candidates == 1) & (uppers - lowers <= slack)


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
    for mu in measures:
        _check_space(mu.space, A)
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
    index = _word_index(A.space, A.memory)
    layout = _cycle_rows(index, [mu.cycle for mu in measures])
    ok = 0
    for lo in range(0, trials, _TRIAL_BLOCK):
        etas = _perturbations(rng, delta, exact, norms, min(_TRIAL_BLOCK, trials - lo))
        W, L = _graph._weights(etas.ravel().tolist(), len(index.nodes))
        # exp(eta) commutes with every step: exponents shift by eta-averages
        new_values = _means(W.reshape(len(etas), -1), L, layout)
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

"""Invariant measures on a subshift: integration, exponents, metrics.

Three concrete measure families are supported: empirical measures of
periodic orbits (ergodic, exact arithmetic), stationary Markov measures,
and finite orbit averages of eventually periodic points (the push-forward
average used to approximate invariant limits).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .cocycle import MatrixCocycle, Scalar, ScalarPotential, _op_norms, cocycle_log_product
from .errors import BudgetExceededError, EmptySetError, ShapeMismatchError, ValidationError
from .optimize import cycle_exponent
from .shift import Cycle, ShiftSpace, Word, admissible_words

_ROW_TOL = 1e-12
_FIX_TOL = 1e-10


@dataclass(frozen=True)
class PeriodicMeasure:
    """Uniform empirical measure on a periodic orbit."""

    space: ShiftSpace
    cycle: Cycle

    def cylinder_mass(self, w: Sequence[int]) -> Fraction:
        p = self.cycle.period
        hits = sum(1 for i in range(p) if self.cycle.window(i, len(w)) == tuple(w))
        return Fraction(hits, p)

    def integrate(self, g: ScalarPotential) -> Scalar:
        p = self.cycle.period
        total = sum(g.value(w) for w in self.cycle.windows(g.memory))
        return Fraction(total) / p if isinstance(total, Rational) else total / p


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov measure compatible with the transition relation."""

    space: ShiftSpace
    stochastic: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...]

    def __post_init__(self):
        k = self.space.k
        P = np.array(self.stochastic)
        pi = np.array(self.stationary)
        if P.shape != (k, k) or pi.shape != (k,):
            raise ShapeMismatchError("Markov data must match the alphabet size")
        if not np.max(np.abs(P.sum(axis=1) - 1.0)) <= _ROW_TOL:
            raise ValidationError("stochastic rows must sum to 1")
        if not np.max(np.abs(pi @ P - pi)) <= _FIX_TOL:
            raise ValidationError("stationary vector is not a left fixed point")
        bad = np.argwhere((P > 0) & ~np.array(self.space.allowed))
        if len(bad):
            raise ValidationError(f"transition {bad[0][0]}->{bad[0][1]} is not admissible")

    def cylinder_mass(self, w: Sequence[int]) -> float:
        if not self.space.is_admissible(w):
            return 0.0
        mass = self.stationary[w[0]]
        for a, b in zip(w, w[1:]):
            mass *= self.stochastic[a][b]
        return float(mass)

    def integrate(self, g: ScalarPotential) -> float:
        return float(sum(
            self.cylinder_mass(w) * float(g.value(w))
            for w in admissible_words(self.space, g.memory)
        ))


@dataclass(frozen=True)
class OrbitAverageMeasure:
    """(1/n) sum of point masses along the first n shifts of an eventually
    periodic point preamble * cycle^infinity."""

    space: ShiftSpace
    preamble: Word
    cycle: Cycle
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("orbit average length must be >= 1")
        full = self.preamble + self.cycle.word
        if self.preamble and not self.space.is_admissible(full):
            raise ValidationError("preamble does not splice admissibly into the cycle")

    def _window(self, start: int, length: int) -> Word:
        pre, c = self.preamble, self.cycle
        return tuple(pre[j] if j < len(pre) else c.word[(j - len(pre)) % c.period]
                     for j in range(start, start + length))

    def cylinder_mass(self, w: Sequence[int]) -> Fraction:
        hits = sum(1 for i in range(self.n) if self._window(i, len(w)) == tuple(w))
        return Fraction(hits, self.n)

    def integrate(self, g: ScalarPotential) -> Scalar:
        total = sum(g.value(self._window(i, g.memory)) for i in range(self.n))
        return Fraction(total) / self.n if isinstance(total, Rational) else total / self.n


MeasureSpec = PeriodicMeasure | MarkovMeasure | OrbitAverageMeasure


def periodic_measure(space: ShiftSpace, cycle: Cycle) -> PeriodicMeasure:
    return PeriodicMeasure(space, cycle)


def markov_measure(
    space: ShiftSpace,
    stochastic: Sequence[Sequence[float]],
    stationary: Sequence[float] | None = None,
) -> MarkovMeasure:
    P = np.array(stochastic, dtype=float)
    if P.shape != (space.k, space.k):
        raise ShapeMismatchError("Markov data must match the alphabet size")
    if stationary is None:
        stationary = _stationary_vector(P)
    return MarkovMeasure(
        space,
        tuple(tuple(float(x) for x in row) for row in P),
        tuple(float(x) for x in stationary),
    )


def _stationary_vector(P: np.ndarray) -> np.ndarray:
    """Left fixed probability vector, by a deterministic linear solve."""
    k = P.shape[0]
    A = np.vstack([P.T - np.eye(k), np.ones((1, k))])
    b = np.concatenate([np.zeros(k), [1.0]])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return sol


def cesaro_push(space: ShiftSpace, preamble: Sequence[int], cycle: Cycle, n: int) -> OrbitAverageMeasure:
    """The averaged push-forward (1/n) sum of shifts of a point mass at
    preamble * cycle^infinity.  Converges to the cycle's empirical measure."""
    return OrbitAverageMeasure(space, tuple(preamble), cycle, n)


def integrate(mu: MeasureSpec, g: ScalarPotential) -> Scalar:
    if mu.space != g.space:
        raise ShapeMismatchError("measure and potential live on different shift spaces")
    return mu.integrate(g)


# ---------------------------------------------------------------------------
# per-measure exponents and restricted optimization


def exponent_of_measure(
    space: ShiftSpace,
    A: MatrixCocycle,
    mu: MeasureSpec,
    n_max: int = 12,
    word_budget: int = 1_000_000,
) -> tuple[float, float]:
    """Enclosure of the top exponent of A for mu.

    Periodic measures give the exact point value.  Markov measures give a
    true enclosure of the subadditive limit: each averaged log norm
    over-estimates it (subadditivity), each averaged negative log norm of
    the inverse under-estimates it (superadditivity, via the bottom
    singular value).  Both sides are exact for additive (d = 1) cocycles.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if isinstance(mu, PeriodicMeasure):
        val = float(cycle_exponent(A, mu.cycle))
        return (val, val)
    if isinstance(mu, MarkovMeasure):
        return _markov_exponent(space, A, mu, n_max, word_budget)
    raise ValidationError("orbit averages are not invariant; no asymptotic exponent")


def _markov_exponent(space, A, mu, n_max, word_budget):
    lower = -math.inf
    upper = math.inf
    m = A.memory
    # the admissible words of the current length by last letter, counted in
    # Python ints, so that a depth over the budget builds none of its words
    ends = [1] * space.k
    for n in range(1, n_max + 1):
        length = n + m - 1
        for _ in range(length - 1 if n == 1 else 1):
            ends = [sum(c for c, row in zip(ends, space.allowed) if row[b]) for b in range(space.k)]
        if sum(ends) > word_budget:
            raise BudgetExceededError(f"{sum(ends)} words at depth {n} exceed the budget")
        words = admissible_words(space, length)
        charged = [(w, mass) for w in words if (mass := mu.cylinder_mass(w)) > 0]
        logscale, P = cocycle_log_product(A, [w for w, _ in charged])
        fwd, bwd = _op_norms(P).tolist(), _op_norms(np.linalg.inv(P)).tolist()
        up_total = lo_total = 0.0
        for (_, mass), ls, f, b in zip(charged, logscale.tolist(), fwd, bwd):
            up_total += mass * (ls + math.log(f))
            lo_total += mass * (-ls + math.log(b))
        upper = min(upper, up_total / n)
        lower = max(lower, -lo_total / n)
    # rounding can push the two sides past each other by ~1 ulp in the
    # additive case where they agree exactly
    return min(lower, upper), upper


@dataclass(frozen=True)
class RestrictedBeta:
    """Restricted maximum over a finite family of measures."""

    interval: tuple[float, float]
    argmax: tuple[int, ...]
    certified_singleton: bool
    enclosures: tuple[tuple[float, float], ...]


def restricted_beta(
    measures: Sequence[MeasureSpec],
    A: MatrixCocycle,
    n_max: int = 12,
) -> RestrictedBeta:
    """Maximum exponent over a finite family, with a certified argmax set.

    An index is in the argmax set when its enclosure's upper end reaches the
    best lower end; the singleton flag is set when one enclosure strictly
    dominates all others.
    """
    if not measures:
        raise EmptySetError("the measure family must be nonempty")
    space = measures[0].space
    encl = tuple(exponent_of_measure(space, A, mu, n_max=n_max) for mu in measures)
    best_lo = max(lo for lo, _ in encl)
    best_hi = max(hi for _, hi in encl)
    argmax = tuple(i for i, (lo, hi) in enumerate(encl) if hi >= best_lo)
    certified = len(argmax) == 1
    return RestrictedBeta((best_lo, best_hi), argmax, certified, encl)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class TestBasis:
    """Indicator functions of admissible cylinders, ordered by
    (length, lexicographic).  Each has sup norm 1; the family separates
    measures on the subshift."""

    space: ShiftSpace

    def cylinders(self, count: int) -> list[Word]:
        words = (w for n in itertools.count(1) for w in admissible_words(self.space, n))
        return list(itertools.islice(words, count))


def weakstar_distance(
    mu1: MeasureSpec,
    mu2: MeasureSpec,
    i_max: int,
) -> tuple[float, float]:
    """Truncated weak* metric: sum over the first i_max cylinder indicators
    of |mass difference| / 2^i.  Second value bounds the truncation error."""
    if i_max < 1:
        raise ValidationError("i_max must be >= 1")
    if mu1.space != mu2.space:
        raise ShapeMismatchError("measures live on different shift spaces")
    basis = TestBasis(mu1.space).cylinders(i_max)
    total = 0.0
    for i, w in enumerate(basis, start=1):
        total += abs(float(mu1.cylinder_mass(w)) - float(mu2.cylinder_mass(w))) / 2**i
    return total, 2.0 * 2.0 ** (-i_max)


def hausdorff_distance(C: Sequence[Scalar], D: Sequence[Scalar]) -> Scalar:
    """Sum of the two one-sided deviations between nonempty finite real sets."""
    if not C or not D:
        raise EmptySetError("Hausdorff distance needs nonempty sets")
    fwd = max(min(abs(a - b) for b in D) for a in C)
    bwd = max(min(abs(c - d) for d in C) for c in D)
    return fwd + bwd

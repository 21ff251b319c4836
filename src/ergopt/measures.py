"""Invariant measures on a subshift: integration, exponents, metrics.

Three concrete measure families are supported: empirical measures of
periodic orbits (ergodic, exact arithmetic), stationary Markov measures,
and finite orbit averages of eventually periodic points (the push-forward
average used to approximate invariant limits).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Real
from typing import Sequence

import numpy as np

from .cocycle import (MatrixCocycle, Scalar, ScalarPotential, _by_end, _check_space, _grow,
                      _op_norms, cocycle_log_product)
from .errors import BudgetExceededError, EmptySetError, ShapeMismatchError, ValidationError
from .irregular import _symbols
from .optimize import cycle_exponent
from .shift import Cycle, ShiftSpace, Word, _word_counts, admissible_words

_ROW_TOL = 1e-12
_FIX_TOL = 1e-10


class _OrbitMeasure:
    """(1/n) sum of point masses along the first n shifts of the point
    preamble * cycle^infinity, whose letters `irregular._symbols` reads."""

    def cylinder_mass(self, w: Sequence[int]) -> Fraction:
        return Fraction(_window_counts(self.preamble, self.cycle, self.n, len(w))[tuple(w)], self.n)

    def integrate(self, g: ScalarPotential) -> Scalar:
        return g.birkhoff_sum(_symbols((self.preamble, self.cycle), self.n + g.memory - 1)) / self.n


@lru_cache(maxsize=256)
def _window_counts(preamble: Word, cycle: Cycle, n: int, length: int) -> Counter:
    """How many of the first n shifts of preamble * cycle^infinity start
    with each word of `length` letters, counted once for all the cylinders
    of that length; row by row, so the memory grows with the distinct words."""
    letters = _symbols((preamble, cycle), n + length - 1)
    windows = np.lib.stride_tricks.sliding_window_view(letters, length)
    return Counter(tuple(row.tolist()) for row in windows)


@dataclass(frozen=True)
class PeriodicMeasure(_OrbitMeasure):
    """Uniform empirical measure on a periodic orbit: the orbit average of
    the point with no preamble over one period."""

    space: ShiftSpace
    cycle: Cycle
    preamble = ()

    @property
    def n(self) -> int:
        return self.cycle.period


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov measure compatible with the transition relation.
    The stochastic matrix is checked before the stationary vector, which is
    solved for when None; both are stored as tuples of floats."""

    space: ShiftSpace
    stochastic: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...] | None = None

    def __post_init__(self):
        k = self.space.k
        P = _masses(self.stochastic, (k, k), "stochastic")
        if not np.max(np.abs(P.sum(axis=1) - 1.0)) <= _ROW_TOL:
            raise ValidationError("stochastic rows must sum to 1")
        bad = np.argwhere((P > 0) & ~self.space._relation)
        if len(bad):
            raise ValidationError(f"transition {bad[0][0]}->{bad[0][1]} is not admissible")
        pi = _masses(_stationary_vector(P) if self.stationary is None else self.stationary,
                     (k,), "stationary")
        if not abs(pi.sum() - 1.0) <= _ROW_TOL:
            raise ValidationError("stationary masses must sum to 1")
        if not np.max(np.abs(pi @ P - pi)) <= _FIX_TOL:
            raise ValidationError("stationary vector is not a left fixed point")
        object.__setattr__(self, "stochastic", tuple(map(tuple, P.tolist())))
        object.__setattr__(self, "stationary", tuple(pi.tolist()))

    def cylinder_mass(self, w: Sequence[int]) -> float:
        if not self.space.is_admissible(w):
            return 0.0
        mass = self.stationary[w[0]] if len(w) else 1.0
        for a, b in zip(w, w[1:]):
            mass *= self.stochastic[a][b]
        return float(mass)

    def integrate(self, g: ScalarPotential) -> float:
        return float(sum(
            self.cylinder_mass(w) * float(g.value(w))
            for w in admissible_words(self.space, g.memory)
        ))


def _masses(x, shape: tuple[int, ...], what: str) -> np.ndarray:
    """x as a float array of the alphabet's shape.  Ragged nesting or
    another shape is refused, and so are entries that are not real numbers
    (a string, a boolean), not finite, or below -_ROW_TOL; none is clipped,
    so rounding inside the tolerance stays as it is."""
    try:
        x = np.array(x, dtype=object)
    except ValueError:  # nesting too ragged for even an object array
        raise ShapeMismatchError("Markov data must match the alphabet size") from None
    # a ragged array that numpy does stack holds sequences as entries
    if x.shape != shape or any(np.ndim(v) for v in x.flat):
        raise ShapeMismatchError("Markov data must match the alphabet size")
    if not all(isinstance(v, Real) and not isinstance(v, bool) for v in x.flat):
        raise ValidationError(f"{what} entries must be real numbers")
    x = x.astype(float)
    if not np.isfinite(x).all():
        raise ValidationError(f"{what} entries must be finite")
    if (x < -_ROW_TOL).any():
        raise ValidationError(f"{what} entries must be nonnegative")
    return x


@dataclass(frozen=True)
class OrbitAverageMeasure(_OrbitMeasure):
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


MeasureSpec = PeriodicMeasure | MarkovMeasure | OrbitAverageMeasure


def periodic_measure(space: ShiftSpace, cycle: Cycle) -> PeriodicMeasure:
    return PeriodicMeasure(space, cycle)


def markov_measure(
    space: ShiftSpace,
    stochastic: Sequence[Sequence[float]],
    stationary: Sequence[float] | None = None,
) -> MarkovMeasure:
    return MarkovMeasure(space, stochastic, stationary)


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
    A measure on another shift space than A's is refused.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    _check_space(mu.space, A)
    if isinstance(mu, PeriodicMeasure):
        val = float(cycle_exponent(A, mu.cycle))
        return (val, val)
    if isinstance(mu, MarkovMeasure):
        return _markov_exponent(A, mu, n_max, word_budget)
    raise ValidationError("orbit averages are not invariant; no asymptotic exponent")


def _markov_exponent(A, mu, n_max, word_budget):
    lower = -math.inf
    upper = math.inf
    space, m, table = A.space, A.memory, A._step_table
    stochastic = np.array(mu.stochastic)
    # the last letter of each node: a child adds the transition from its
    # parent's end node to its own
    last = np.array(table.index.nodes)[:, -1]
    # the admissible words of each depth's length n + m - 1, counted, so that
    # a depth over the budget builds none of its words
    counts = itertools.islice(_word_counts(space), m - 1, None)
    for n, count in zip(range(1, n_max + 1), counts):
        if count > word_budget:
            raise BudgetExceededError(f"{count} words at depth {n} exceed the budget")
        if n == 1:
            # the memory-words by end node, with their cylinder masses
            first, states = _by_end(table.index)
            letters = np.array(table.index.words)[first]
            masses = np.array([mu.cylinder_mass(w) for w in letters.tolist()])
            logscale, P = cocycle_log_product(A, letters)
        else:
            # each charged word of the depth before, one step longer
            grown = _grow(table, states, logscale, P)
            parent = grown.parent
            masses = masses.take(parent) * stochastic[last[states.take(parent)], last[grown.states]]
            states, logscale, P = grown.states, grown.logscale, grown.P
        charged = np.flatnonzero(masses > 0)
        states, logscale, masses, P = (x.take(charged, axis=0) for x in (states, logscale, masses, P))
        try:
            inverses = np.linalg.inv(P)
        except np.linalg.LinAlgError:
            raise ValidationError(f"a depth-{n} product rounds to a singular matrix in "
                                  "float64, so its inverse is lost") from None
        fwd, bwd = np.log(_op_norms(P)), np.log(_op_norms(inverses))
        upper = min(upper, math.fsum((masses * (logscale + fwd)).tolist()) / n)
        lower = max(lower, -math.fsum((masses * (bwd - logscale)).tolist()) / n)
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
    encl = tuple(exponent_of_measure(A, mu, n_max=n_max) for mu in measures)
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
    # 2.0 ** -i is 0.0 from i = 1075 on, so no later term adds anything
    basis = TestBasis(mu1.space).cylinders(min(i_max, 1074))
    total = 0.0
    for i, w in enumerate(basis, start=1):
        total += abs(float(mu1.cylinder_mass(w)) - float(mu2.cylinder_mass(w))) * 2.0 ** -i
    return total, 2.0 * 2.0 ** (-i_max)


def hausdorff_distance(C: Sequence[Scalar], D: Sequence[Scalar]) -> Scalar:
    """Sum of the two one-sided deviations between nonempty finite real sets."""
    if not C or not D:
        raise EmptySetError("Hausdorff distance needs nonempty sets")
    fwd = max(min(abs(a - b) for b in D) for a in C)
    bwd = max(min(abs(c - d) for d in C) for c in D)
    return fwd + bwd

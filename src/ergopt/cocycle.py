"""Locally constant potentials and matrix cocycles on a subshift.

A cocycle stores one invertible d x d matrix per admissible memory-m word,
together with an optional scalar log-weight potential applied
multiplicatively as exp(weight).  Keeping the weight separate from the
matrix table makes scalar perturbations exactly invertible and keeps the
additive (d = 1) case exactly solvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

import numpy as np

from . import _graph
from .errors import InadmissibleWordError, ShapeMismatchError, ValidationError
from .shift import ShiftSpace, Word, _word_index, _WordIndex, admissible_words, word_to_str

Scalar = Fraction | float
# least |det| / (product of the row norms) of an accepted matrix; the ratio
# is 1 for orthogonal rows and 0 for singular matrices (Hadamard)
_DET_TOL = 1e-12


@dataclass(frozen=True)
class ScalarPotential:
    """A function of the first `memory` symbols of a point."""

    space: ShiftSpace
    memory: int
    table: Mapping[Word, Scalar]

    def __post_init__(self):
        if self.table.keys() != _word_index(self.space, self.memory).row_of.keys():
            raise ValidationError("potential table must cover exactly the admissible memory-words")
        for w, v in self.table.items():  # `type` first: cheaper than the ABC check
            if not (type(v) is Fraction or isinstance(v, Rational) or math.isfinite(v)):
                raise ValidationError(f"non-finite value at {word_to_str(w)}")

    @cached_property
    def _weights(self) -> tuple[np.ndarray, int | None]:
        """The values at the rows of the word index, as the graph kernels
        take them (`_graph._weights`), built on first use; read-only."""
        index = _word_index(self.space, self.memory)
        w, L = _graph._weights([self.table[u] for u in index.words], len(index.nodes))
        w.flags.writeable = False
        return w, L

    @property
    def is_rational(self) -> bool:
        return all(isinstance(v, Rational) for v in self.table.values())

    def value(self, w: Sequence[int]) -> Scalar:
        """Value on the cylinder of w (only the first `memory` symbols matter)."""
        key = tuple(w[: self.memory])
        if key not in self.table:
            raise InadmissibleWordError(word_to_str(w))
        return self.table[key]

    def birkhoff_sum(self, w: Sequence[int]) -> Scalar:
        """Sum over the n = len(w) - memory + 1 windows of w."""
        m = self.memory
        n = len(w) - m + 1
        if n < 1:
            raise InadmissibleWordError("word shorter than the potential memory")
        return sum(self.value(w[j : j + m]) for j in range(n))

    def lift(self, memory: int) -> "ScalarPotential":
        if memory < self.memory:
            raise ValidationError("cannot lower potential memory")
        if memory == self.memory:
            return self
        words = _word_index(self.space, memory).words
        return ScalarPotential(self.space, memory, {w: self.table[w[: self.memory]] for w in words})

    def __add__(self, other: "ScalarPotential") -> "ScalarPotential":
        if other.space != self.space:
            raise ShapeMismatchError("potentials live on different shift spaces")
        m = max(self.memory, other.memory)
        a, b = self.lift(m), other.lift(m)
        return ScalarPotential(self.space, m, {w: a.table[w] + b.table[w] for w in a.table})

    def __neg__(self) -> "ScalarPotential":
        return ScalarPotential(self.space, self.memory, {w: -v for w, v in self.table.items()})

    def scale(self, c: Scalar) -> "ScalarPotential":
        return ScalarPotential(self.space, self.memory, {w: c * v for w, v in self.table.items()})

    @property
    def sup_norm(self) -> Scalar:
        return max(abs(v) for v in self.table.values())


def _well_conditioned(mat: np.ndarray) -> bool:
    """|det| above _DET_TOL times the product of the row norms.  The matrix
    is divided by its largest entry first: the ratio does not depend on
    scale, and neither side can overflow."""
    big = float(np.abs(mat).max())
    if big == 0.0:
        return False
    mat = mat / big
    row_norms = np.sqrt((mat * mat).sum(axis=1))
    return abs(float(np.linalg.det(mat))) > _DET_TOL * math.prod(row_norms.tolist())


def _exp(s: Scalar) -> float:
    """math.exp(s) in float64, inf past its range."""
    try:
        return math.exp(s)
    except OverflowError:
        return math.inf


def constant_potential(space: ShiftSpace, value: Scalar, memory: int = 1) -> ScalarPotential:
    return ScalarPotential(space, memory, {w: value for w in admissible_words(space, memory)})


@dataclass(frozen=True)
class MatrixCocycle:
    """Memory-m map from admissible words to GL_d matrices.

    The effective matrix at word w is exp(weight(w)) * table[w]; `weight`
    is None for plain cocycles.
    """

    space: ShiftSpace
    d: int
    memory: int
    table: Mapping[Word, np.ndarray]
    weight: ScalarPotential | None = field(default=None)

    def __post_init__(self):
        if self.table.keys() != _word_index(self.space, self.memory).row_of.keys():
            raise ValidationError("cocycle table must cover exactly the admissible memory-words")
        for w, mat in self.table.items():
            if mat.shape != (self.d, self.d):
                raise ShapeMismatchError(f"matrix at {word_to_str(w)} has shape {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"non-finite entries at {word_to_str(w)}")
            if not _well_conditioned(mat):
                raise ValidationError(f"matrix at {word_to_str(w)} is numerically singular")
        if self.weight is not None and self.weight.memory != self.memory:
            raise ShapeMismatchError("weight memory must match cocycle memory")

    def matrix(self, w: Sequence[int]) -> np.ndarray:
        """Effective single-step matrix on the cylinder of w: a read-only row
        of the step table."""
        return self._step_table.steps[self._row(w)]

    def inverse_matrix(self, w: Sequence[int]) -> np.ndarray:
        return self._step_table.inverses[self._row(w)]

    def _row(self, w: Sequence[int]) -> int:
        row = self._step_table.index.row_of.get(tuple(w[: self.memory]))
        if row is None:
            raise InadmissibleWordError(word_to_str(w))
        return row

    @cached_property
    def _step_table(self) -> "_StepTable":
        """The step table, built on first use and kept for the cocycle's life:
        exp(+-weight(w)) * table[w]^(+-1) at each memory-word w.  A weight
        under which a step or its inverse is not finite in float64 is
        refused."""
        index = _word_index(self.space, self.memory)
        steps = np.stack([self.table[w] for w in index.words])
        inverses = np.linalg.inv(steps)
        if self.weight is not None:
            weights = [self.weight.table[w] for w in index.words]
            up, down = (np.array([_exp(sign * s) for s in weights])[:, None, None]
                        for sign in (1, -1))
            with np.errstate(over="ignore", invalid="ignore"):
                steps, inverses = up * steps, down * inverses
            bad = ~(np.isfinite(steps) & np.isfinite(inverses)).all(axis=(1, 2))
            if bad.any():
                word = index.words[int(bad.argmax())]
                raise ValidationError(f"the weight at {word_to_str(word)} overflows float64")
        return _StepTable(index=index, steps=steps, inverses=inverses, norms=_op_norms(steps))

    def lift(self, memory: int) -> "MatrixCocycle":
        if memory < self.memory:
            raise ValidationError("cannot lower cocycle memory")
        if memory == self.memory:
            return self
        table = {w: self.table[w[: self.memory]] for w in _word_index(self.space, memory).words}
        weight = self.weight.lift(memory) if self.weight is not None else None
        return MatrixCocycle(self.space, self.d, memory, table, weight)

    @property
    def is_additive(self) -> bool:
        """True when log-norms add exactly along products (d = 1)."""
        return self.d == 1

    def additive_potential(self) -> ScalarPotential:
        """The potential log|a_w| of a one-dimensional cocycle.

        Exact (rational) when the matrix part is identically 1 and the
        weight is rational; float otherwise.
        """
        if self.d != 1:
            raise ShapeMismatchError("additive potential requires d = 1")
        table: dict[Word, Scalar] = {}
        for w, mat in self.table.items():
            s = self.weight.value(w) if self.weight is not None else 0
            a = float(mat[0, 0])
            table[w] = s if a == 1.0 else float(s) + math.log(abs(a))
        return ScalarPotential(self.space, self.memory, table)


@dataclass(frozen=True)
class _StepTable:
    """A cocycle's step matrices, stacked once per cocycle; the arrays are
    read-only.  Row i is row i of the word index of the cocycle's space
    and memory, which also holds the word graph."""

    index: _WordIndex
    steps: np.ndarray  # (E, d, d): the effective step at each memory-word
    inverses: np.ndarray  # (E, d, d): their inverses
    norms: np.ndarray  # (E,): op norms of the steps

    def __post_init__(self):
        for value in (self.steps, self.inverses, self.norms):
            value.flags.writeable = False


def cocycle_product(A: MatrixCocycle, w: Sequence[int]) -> np.ndarray:
    """The n-step product over w (n = len(w) - m + 1), first factor rightmost."""
    logscale, P = cocycle_log_product(A, w)
    return math.exp(logscale) * P


def cocycle_log_product(A: MatrixCocycle, w: Sequence):
    """Product as (log_scale, matrix) with per-step renormalization.

    A sequence of words of one length gives (log scales (N,), products
    (N, d, d)), one per word in order; `[]` is the empty list of words,
    `()` the empty word.
    """
    batch = np.ndim(w[0]) > 0 if len(w) else isinstance(w, list)
    words = [tuple(x) for x in w] if batch else [tuple(w)]
    if len({len(x) for x in words}) > 1:
        raise ValidationError("the words of a list must have one length")
    if not words:
        return np.zeros(0), np.zeros((0, A.d, A.d))
    if len(words[0]) < A.memory:
        raise InadmissibleWordError("word shorter than the cocycle memory")
    letters = np.array(words, dtype=np.intp)
    windows = np.lib.stride_tricks.sliding_window_view(letters, A.memory, axis=1)
    # `_step_rows` refuses bad letters and windows; one lookup checks each 2-word
    rows = _step_rows(A._step_table.index, windows)
    allowed = np.array(A.space.allowed)[letters[:, :-1], letters[:, 1:]].all(axis=1)
    if not allowed.all():
        raise InadmissibleWordError(word_to_str(words[int(allowed.argmin())]))
    logscale, P = _row_products(A, rows)
    return (logscale, P) if batch else (float(logscale[0]), P[0])


# window for the largest entry of a running product
_WINDOW_LO, _WINDOW_HI = 1e-100, 1e100


def _renormalise_rows(P: np.ndarray, logscale: np.ndarray) -> None:
    """Move the largest entry of each running product in the stack P of
    shape (N, d, d) back into the window when it has left, in place,
    adding the log of the divisor to the log scales of shape (N,)."""
    nrm = np.abs(P).reshape(len(P), -1).max(axis=1)
    if nrm.max() <= _WINDOW_HI and nrm.min() >= _WINDOW_LO:
        return
    out = (nrm > _WINDOW_HI) | ((0.0 < nrm) & (nrm < _WINDOW_LO))
    P[out] /= nrm[out, None, None]
    logscale[out] += np.log(nrm[out])


def _row_products(A: MatrixCocycle, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products of A's steps along each row of the (C, p) array R of step
    rows, first step rightmost, renormalised after every step: (log scales
    (C,), products (C, d, d)).  The products are new arrays."""
    steps = A._step_table.steps
    P = steps[R[:, 0]]
    logscale = np.zeros(len(R))
    _renormalise_rows(P, logscale)
    for j in range(1, R.shape[1]):
        P = steps[R[:, j]] @ P
        _renormalise_rows(P, logscale)
    return logscale, P


def _step_rows(index: _WordIndex, windows: np.ndarray) -> np.ndarray:
    """The row of the word index for each memory-word along the last axis
    of the integer array `windows`: shape (...) for windows of shape
    (..., m).  Words are found by their codes (`_WordIndex.powers`)."""
    k = index.space.k
    if windows.min() < 0 or windows.max() >= k:
        raise InadmissibleWordError(f"letters outside the alphabet of size {k}")
    codes = windows @ index.powers
    rows = np.searchsorted(index.codes, codes)
    found = index.codes[np.minimum(rows, len(index.codes) - 1)] == codes
    if not found.all():
        raise InadmissibleWordError(word_to_str(windows[~found][0].tolist()))
    return rows


def _op_norms(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack (N, d, d); for
    d = 1 the modulus, which keeps the scalar layer off LAPACK, and for
    d = 2 the closed form (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2
    of [[a, b], [c, d]], on the halved entries so that no sum overflows."""
    if M.shape[1:] == (1, 1):
        return np.abs(M[:, 0, 0])
    if M.shape[1:] == (2, 2):
        h = 0.5 * M
        a, b, c, d = h[:, 0, 0], h[:, 0, 1], h[:, 1, 0], h[:, 1, 1]
        return np.hypot(a + d, b - c) + np.hypot(a - d, b + c)
    return np.linalg.svd(M, compute_uv=False)[:, 0]


def op_norm(M: np.ndarray) -> float:
    """Largest singular value (spectral norm)."""
    return float(_op_norms(np.asarray(M, dtype=float)[None])[0])


def spectral_radius(M: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue modulus: a float for one matrix, an array of one
    value per matrix for a stack of shape (N, d, d)."""
    M = np.asarray(M, dtype=float)
    rho = np.abs(np.linalg.eigvals(M)).max(axis=-1)
    return float(rho) if M.ndim == 2 else rho


def cocycle_distance(A: MatrixCocycle, B: MatrixCocycle) -> float:
    """max over cylinders of ||A_w - B_w|| + ||A_w^-1 - B_w^-1||."""
    if A.space != B.space or A.d != B.d:
        raise ShapeMismatchError("cocycles must share the shift space and dimension")
    m = max(A.memory, B.memory)
    a, b = A.lift(m)._step_table, B.lift(m)._step_table
    return float((_op_norms(a.steps - b.steps) + _op_norms(a.inverses - b.inverses)).max())


def gamma_apply(f: ScalarPotential, A: MatrixCocycle) -> MatrixCocycle:
    """Scalar perturbation w -> exp(f(w)) * A_w, an exactly invertible map."""
    if f.space != A.space:
        raise ShapeMismatchError("potential and cocycle live on different shift spaces")
    m = max(f.memory, A.memory)
    f, A = f.lift(m), A.lift(m)
    weight = f if A.weight is None else A.weight + f
    return MatrixCocycle(A.space, A.d, m, A.table, weight)


def cocycles_equal(A: MatrixCocycle, B: MatrixCocycle) -> bool:
    """Exact equality of the effective matrices at every cylinder."""
    if A.space != B.space or A.d != B.d:
        return False
    m = max(A.memory, B.memory)
    return np.array_equal(A.lift(m)._step_table.steps, B.lift(m)._step_table.steps)


def from_potential(f: ScalarPotential, d: int = 1) -> MatrixCocycle:
    """The diagonal cocycle w -> exp(f(w)) * I_d."""
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    eye = np.eye(d)
    table = {w: eye for w in admissible_words(f.space, f.memory)}
    return MatrixCocycle(f.space, d, f.memory, table, f)


def identity_cocycle(space: ShiftSpace, d: int = 1, memory: int = 1) -> MatrixCocycle:
    eye = np.eye(d)
    table = {w: eye for w in admissible_words(space, memory)}
    return MatrixCocycle(space, d, memory, table)

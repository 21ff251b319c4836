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
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

import numpy as np

from .errors import InadmissibleWordError, ShapeMismatchError, ValidationError
from .shift import ShiftSpace, Word, admissible_words, word_to_str

Scalar = Fraction | float
_DET_TOL = 1e-12


@dataclass(frozen=True)
class ScalarPotential:
    """A function of the first `memory` symbols of a point."""

    space: ShiftSpace
    memory: int
    table: Mapping[Word, Scalar]

    def __post_init__(self):
        words = set(admissible_words(self.space, self.memory))
        if set(self.table) != words:
            raise ValidationError("potential table must cover exactly the admissible memory-words")

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
        table = {w: self.table[w[: self.memory]] for w in admissible_words(self.space, memory)}
        return ScalarPotential(self.space, memory, table)

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
        words = set(admissible_words(self.space, self.memory))
        if set(self.table) != words:
            raise ValidationError("cocycle table must cover exactly the admissible memory-words")
        for w, mat in self.table.items():
            if mat.shape != (self.d, self.d):
                raise ShapeMismatchError(f"matrix at {word_to_str(w)} has shape {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"non-finite entries at {word_to_str(w)}")
            if abs(np.linalg.det(mat)) <= _DET_TOL:
                raise ValidationError(f"matrix at {word_to_str(w)} is numerically singular")
        if self.weight is not None and self.weight.memory != self.memory:
            raise ShapeMismatchError("weight memory must match cocycle memory")

    def log_weight(self, w: Sequence[int]) -> float:
        return float(self.weight.value(w)) if self.weight is not None else 0.0

    def matrix(self, w: Sequence[int]) -> np.ndarray:
        """Effective single-step matrix on the cylinder of w."""
        key = tuple(w[: self.memory])
        if key not in self.table:
            raise InadmissibleWordError(word_to_str(w))
        mat = self.table[key]
        s = self.log_weight(key)
        return mat if s == 0.0 else math.exp(s) * mat

    def inverse_matrix(self, w: Sequence[int]) -> np.ndarray:
        key = tuple(w[: self.memory])
        if key not in self.table:
            raise InadmissibleWordError(word_to_str(w))
        inv = np.linalg.inv(self.table[key])
        s = self.log_weight(key)
        return inv if s == 0.0 else math.exp(-s) * inv

    def step_log_norm(self, w: Sequence[int]) -> float:
        """log of the spectral norm of the effective step matrix."""
        key = tuple(w[: self.memory])
        return self.log_weight(key) + math.log(op_norm(self.table[key]))

    def lift(self, memory: int) -> "MatrixCocycle":
        if memory < self.memory:
            raise ValidationError("cannot lower cocycle memory")
        if memory == self.memory:
            return self
        table = {w: self.table[w[: self.memory]] for w in admissible_words(self.space, memory)}
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
            if a == 1.0:
                table[w] = s
            else:
                table[w] = float(s) + math.log(abs(a))
        return ScalarPotential(self.space, self.memory, table)


def cocycle_product(A: MatrixCocycle, w: Sequence[int]) -> np.ndarray:
    """The n-step product over w (n = len(w) - m + 1), first factor rightmost."""
    logscale, P = cocycle_log_product(A, w)
    return math.exp(logscale) * P


def cocycle_log_product(A: MatrixCocycle, w: Sequence[int]) -> tuple[float, np.ndarray]:
    """Product as (log_scale, matrix) with per-step renormalization."""
    m = A.memory
    w = tuple(w)
    if len(w) < m:
        raise InadmissibleWordError("word shorter than the cocycle memory")
    if not A.space.is_admissible(w):
        raise InadmissibleWordError(word_to_str(w))
    P, logscale = _renormalise(A.matrix(w[0:m]), 0.0)
    for j in range(1, len(w) - m + 1):
        P, logscale = _renormalise(A.matrix(w[j : j + m]) @ P, logscale)
    return logscale, P


def _renormalise(P: np.ndarray, logscale: float) -> tuple[np.ndarray, float]:
    """Running product (P, logscale) with P's largest entry moved back into
    [1e-100, 1e100] when it has left; P itself is never modified."""
    nrm = float(np.max(np.abs(P)))
    if nrm > 1e100 or (0.0 < nrm < 1e-100):
        return P / nrm, logscale + math.log(nrm)
    return P, logscale


def op_norm(M: np.ndarray) -> float:
    """Largest singular value (spectral norm)."""
    M = np.asarray(M, dtype=float)
    if M.shape == (1, 1):
        return abs(float(M[0, 0]))
    return float(np.linalg.norm(M, 2))


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)))))


def cocycle_distance(A: MatrixCocycle, B: MatrixCocycle) -> float:
    """max over cylinders of ||A_w - B_w|| + ||A_w^-1 - B_w^-1||."""
    if A.space != B.space or A.d != B.d:
        raise ShapeMismatchError("cocycles must share the shift space and dimension")
    m = max(A.memory, B.memory)
    A, B = A.lift(m), B.lift(m)
    best = 0.0
    for w in A.table:
        fwd = op_norm(A.matrix(w) - B.matrix(w))
        bwd = op_norm(A.inverse_matrix(w) - B.inverse_matrix(w))
        best = max(best, fwd + bwd)
    return best


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
    A, B = A.lift(m), B.lift(m)
    return all(np.array_equal(A.matrix(w), B.matrix(w)) for w in A.table)


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

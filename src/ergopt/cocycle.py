"""Locally constant potentials and matrix cocycles on a subshift.

A cocycle stores one invertible d x d matrix per admissible memory-m word,
together with an optional scalar log-weight potential applied
multiplicatively as exp(weight).  Keeping the weight separate from the
matrix table makes scalar perturbations exactly invertible and keeps the
additive (d = 1) case exactly solvable.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

import numpy as np

from . import _graph
from .errors import InadmissibleWordError, ShapeMismatchError, ValidationError
from .shift import (ShiftSpace, Word, _word_counts, _word_index, _WordIndex, admissible_words,
                    word_to_str)

Scalar = Fraction | float
# least |det| / (product of the row norms) of an accepted matrix; the ratio
# is 1 for orthogonal rows and 0 for singular matrices (Hadamard)
_DET_TOL = 1e-12


@dataclass(frozen=True, init=False, eq=False)
class ScalarPotential:
    """A function of the first `memory` symbols of a point, held as its
    read-only row over the word index as `_graph._weights` makes it:
    integers over L, in the dtype `_graph._int_dtype` picks, for a rational
    table; float64, with L None, otherwise.  The constructor takes the table."""

    space: ShiftSpace
    memory: int
    row: np.ndarray = field(repr=False)
    L: int | None

    def __new__(cls, space: ShiftSpace, memory: int, table: Mapping[Word, Scalar]):
        index = _check_table(space, memory, table, "potential")
        return cls._of(space, memory, *_graph._weights([table[w] for w in index.words],
                                                       len(index.nodes)))

    @classmethod
    def _of(cls, space: ShiftSpace, memory: int, row: np.ndarray, L: int | None):
        """The potential of a row; a float row is refused unless it is finite and
        (n + 1)^2 max |row| < _FLOAT_SUMS on its n nodes, `_graph._int_dtype`'s bound."""
        index = _word_index(space, memory)
        if L is None and not np.isfinite(row).all():
            word = index.words[int(np.isfinite(row).argmin())]
            raise ValidationError(f"non-finite value at {word_to_str(word)}")
        if L is None and (len(index.nodes) + 1) ** 2 * float(np.abs(row).max()) >= _graph._FLOAT_SUMS:
            raise ValidationError("float weights this large can overflow float64 in Karp's sums")
        row.flags.writeable = False
        self = object.__new__(cls)
        self.__dict__.update(space=space, memory=memory, row=row, L=L)
        return self

    def __reduce__(self):
        return ScalarPotential._of, (self.space, self.memory, self.row, self.L)

    def _scalar(self, x) -> Scalar:
        return float(x) if self.L is None else Fraction(int(x), self.L)

    @property
    def table(self) -> dict[Word, Scalar]:
        words = _word_index(self.space, self.memory).words
        return dict(zip(words, map(self._scalar, self.row.tolist())))

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarPotential) and (self.space, self.memory, self.table) == (
            other.space, other.memory, other.table)

    @property
    def is_rational(self) -> bool:
        return self.L is not None

    def value(self, w: Sequence[int]) -> Scalar:
        """Value on the cylinder of w (only the first `memory` symbols matter)."""
        row = _word_index(self.space, self.memory).row_of.get(tuple(w[: self.memory]))
        if row is None:
            raise InadmissibleWordError(word_to_str(w))
        return self._scalar(self.row[row])

    def birkhoff_sum(self, w: Sequence[int]) -> Scalar:
        """Sum over the n = len(w) - memory + 1 windows of w."""
        if len(w) < self.memory:
            raise InadmissibleWordError("word shorter than the potential memory")
        rows = _step_rows(_word_index(self.space, self.memory), np.array(w, dtype=np.intp))
        return self._scalar(sum(self.row[rows].tolist()))

    def lift(self, memory: int) -> "ScalarPotential":
        if memory < self.memory:
            raise ValidationError("cannot lower potential memory")
        if memory == self.memory:
            return self
        prefixes = np.array(_word_index(self.space, memory).words, dtype=np.intp)[:, :self.memory]
        rows = _step_rows(_word_index(self.space, self.memory), prefixes)[:, 0]
        return _combination(self.space, memory, [(self.row[rows], self.L, 1)])

    def __add__(self, other: "ScalarPotential") -> "ScalarPotential":
        if other.space != self.space:
            raise ShapeMismatchError("potentials live on different shift spaces")
        m = max(self.memory, other.memory)
        a, b = self.lift(m), other.lift(m)
        return _combination(self.space, m, [(a.row, a.L, 1), (b.row, b.L, 1)])

    def __neg__(self) -> "ScalarPotential":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "ScalarPotential":
        return _combination(self.space, self.memory, [(self.row, self.L, c)])

    @property
    def sup_norm(self) -> Scalar:
        return self._scalar(np.abs(self.row).max())


def _combination(space: ShiftSpace, memory: int, terms: list) -> ScalarPotential:
    """The sum of c row / L over the (row, L, c) terms on (space, memory): in
    float64 unless every L and c is rational, else in integers over the lcm
    D of the L c.denominator, in the dtype `_int_dtype` picks from the bound
    of the sum and of each coefficient, as a row of zeros bounds nothing."""
    if any(L is None or not isinstance(c, Rational) for _, L, c in terms):
        with np.errstate(over="ignore", invalid="ignore"):
            row = np.add.reduce([_graph._floats([c]) * _as_floats(row, L) for row, L, c in terms])
        return ScalarPotential._of(space, memory, row, None)
    D = math.lcm(*(L * Fraction(c).denominator for _, L, c in terms))
    rows = [(row, Fraction(c).numerator * D // (L * Fraction(c).denominator))
            for row, L, c in terms]
    big = max(sum(int(np.abs(row).max()) * abs(a) for row, a in rows), *(abs(a) for _, a in rows))
    dtype = _graph._int_dtype(len(_word_index(space, memory).nodes), big)
    return ScalarPotential._of(space, memory, sum(row.astype(dtype) * a for row, a in rows), D)


def _as_floats(row: np.ndarray, L: int | None) -> np.ndarray:
    """A row in float64, each exact n / L rounded once, as float(Fraction) rounds it."""
    return row if L is None else _graph._floats(n / L for n in row.tolist())


def _check_table(space: ShiftSpace, memory: int, table: Mapping, what: str) -> _WordIndex:
    """The word index of (space, memory), when the table's keys are its
    words.  A key of another length, or a table smaller than the count of
    the words of some length <= memory, is refused first, so a small table
    is refused at any memory without listing a word."""
    if (any(not isinstance(w, tuple) or len(w) != memory for w in table)
            or any(n > len(table) for _, n in zip(range(memory), _word_counts(space)))
            or table.keys() != (index := _word_index(space, memory)).row_of.keys()):
        raise ValidationError(f"{what} table must cover exactly the admissible memory-words")
    return index


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
        if self.d < 1:
            raise ValidationError("dimension must be >= 1")
        _check_table(self.space, self.memory, self.table, "cocycle")
        for w, mat in self.table.items():
            if mat.shape != (self.d, self.d):
                raise ShapeMismatchError(f"matrix at {word_to_str(w)} has shape {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"non-finite entries at {word_to_str(w)}")
            if not _well_conditioned(mat):
                raise ValidationError(f"matrix at {word_to_str(w)} is numerically singular")
        if self.weight is not None:
            if self.weight.memory != self.memory:
                raise ShapeMismatchError("weight memory must match cocycle memory")
            _as_floats(self.weight.row, self.weight.L)  # a weight past float64 is refused

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
            weights = _as_floats(self.weight.row, self.weight.L).tolist()
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
        a = np.array([self.table[w] for w in _word_index(self.space, self.memory).words]).ravel()
        f = self.weight or constant_potential(self.space, 0, self.memory)
        if (a == 1).all():
            return f
        # math.log, as numpy's log may differ from it in the last bit
        s, logs = _as_floats(f.row, f.L), np.array(list(map(math.log, np.abs(a).tolist())))
        return ScalarPotential._of(self.space, self.memory, np.where(a == 1, s, s + logs), None)


@dataclass(frozen=True)
class _StepTable:
    """A cocycle's step matrices, stacked once per cocycle; the arrays are
    read-only.  Row i is row i of the word index of the cocycle's space
    and memory, which also holds the word graph."""

    index: _WordIndex
    steps: np.ndarray  # (E, d, d): the effective step at each memory-word
    inverses: np.ndarray  # (E, d, d): their inverses
    norms: np.ndarray  # (E,): op norms of the steps
    # depth k -> N_k, the largest log norm of an admissible k-step product, as
    # the last `upper_bound` through depth k found it: NaN when its words
    # passed the budget first
    maxima: dict[int, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for value in (self.steps, self.inverses, self.norms):
            value.flags.writeable = False

    @cached_property
    def tree(self) -> "_WordTree":
        """The word tree of the steps, built on first use and grown by every
        search that reaches past it, for the table's life."""
        return _WordTree(self)


# most words a word tree holds over all its depths: four blocks of the U_n
# search, about 1.2 MB of 2 x 2 products with their bounds and links
_TREE_ROWS = 1 << 14


class _Level:
    """Words of one depth of a word tree, in the order they were grown: the
    node each ends at, its log scale and renormalised product, its log
    Frobenius norm (the bound a search prunes by), the position of its
    parent in the level it was grown from (none at depth 1) and the step
    row that extends it.  A level the tree holds also marks the words whose
    children it holds."""

    def __init__(self, states, logscale, P, parent, step):
        self.states, self.logscale, self.P = states, logscale, P
        self.parent, self.step = parent, step
        self.bound = _log_frobenius(logscale, P)
        self._capacity = len(states)

    def extend(self, other: "_Level", room: int) -> None:
        """Append the words of `other`, keeping held positions valid.  The arrays
        view buffers; a full one gives way to one of twice the words but at most
        `room` past those held, so each word is copied a bounded number of times."""
        n, m = len(self.states), len(other.states)
        if n + m > self._capacity:
            self._capacity = min(2 * (n + m), n + room)
            self._buffers = {}
            for name in ("states", "logscale", "P", "bound", "parent", "step", "expanded"):
                held = getattr(self, name)
                self._buffers[name] = np.empty((self._capacity,) + held.shape[1:], held.dtype)
                self._buffers[name][:n] = held
        for name, buffer in self._buffers.items():
            buffer[n:n + m] = getattr(other, name)
            setattr(self, name, buffer[:n + m])


def _log_frobenius(logscale: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Log Frobenius norms of the products e^logscale P: a cheap overbound
    of their log spectral norms, which keeps pruning sound."""
    return logscale + 0.5 * np.log(np.einsum("nij,nij->n", P, P))


class _WordTree:
    """A step table's word tree: levels[k - 1] holds the depth-k words grown
    so far.  Depth 1 is every memory-word, sorted by end node; a deeper
    word is its parent times one step, renormalised, made by `_grow` in the
    same operations whichever search grows it.  So a search reads the
    products that earlier ones grew, and grows only the words no search
    reached before it.  No growth takes the words held over all depths
    past _TREE_ROWS (depth 1 is always held); the rest are grown into
    levels of one search alone."""

    def __init__(self, table: _StepTable):
        # a proxy, so that the table and its tree form no reference cycle
        self.table = weakref.proxy(table)
        first, states = _by_end(table.index)
        P = table.steps[first]
        logscale = np.zeros(len(first))
        _renormalise_rows(P, logscale)
        self.levels: list[_Level] = []
        self.size = 0
        self._hold(1, _Level(states, logscale, P, None, first))

    def _hold(self, k: int, level: _Level) -> None:
        """Store the words of `level` at depth k, a new depth or the next."""
        level.expanded = np.zeros(len(level.states), dtype=bool)
        if len(self.levels) < k:
            self.levels.append(level)
        else:
            self.levels[k - 1].extend(level, _TREE_ROWS - self.size)
        self.size += len(level.states)

    def children(self, k: int, level: _Level,
                 pos: np.ndarray) -> list[tuple[_Level, np.ndarray, np.ndarray]]:
        """The children of the depth-k words of `level` at the ascending
        positions `pos`, as (level, ascending positions in it, the index in
        `pos` of each one's parent) triples.  A level the tree holds gives
        the children it holds, after growing into it those of the words no
        search expanded, while the tree has room; the words left are grown
        into a level of their own, whose parents are positions in `level`
        too.  That level comes last, so a depth-first search pops it first
        and frees it soonest."""
        held = k <= len(self.levels) and self.levels[k - 1] is level
        rest = np.flatnonzero(~level.expanded[pos]) if held else np.arange(len(pos))
        out = []
        if len(rest):
            rest = rest[np.argsort(level.states[pos[rest]], kind="stable")]
            words = pos[rest]
            grown = _grow(self.table, level.states[words], level.logscale[words],
                          level.P.take(words, axis=0))
            parent = rest[grown.parent]
            grown.parent = pos[parent]
            if held and self.size + len(grown.states) <= _TREE_ROWS:
                self._hold(k + 1, grown)
                level.expanded[words] = True
            else:
                out.append((grown, np.arange(len(grown.states)), parent))
        if held and len(self.levels) > k:
            slot = np.full(len(level.states), -1)
            slot[pos] = np.arange(len(pos))
            parent = slot[self.levels[k].parent]
            at = np.flatnonzero(parent >= 0)
            out.insert(0, (self.levels[k], at, parent[at]))
        return out


def _by_end(index: _WordIndex) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the index's words sorted by the node each word ends at,
    the head of the edges that read it (some edge reads every word: each
    letter lies on a cycle), and those nodes."""
    ends = np.empty(len(index.words), dtype=np.intp)
    ends[index.rows] = index.heads
    first = np.argsort(ends, kind="stable")
    return first, ends[first]


def _grow(table: _StepTable, states: np.ndarray, logscale: np.ndarray, P: np.ndarray) -> _Level:
    """One growth step of a word tree: the products P (N >= 1, d, d) with log
    scales (N,) of words sorted by their end node `states`, each extended
    by the step of every edge out of its node, renormalised, as a level
    still sorted by node (the edges are sorted by head), whose parents are
    indices in the words grown."""
    starts = states.searchsorted(np.arange(len(table.index.nodes) + 1)).tolist()
    heads, parents, rows, child_P = [], [], [], []
    for v, u, r in table.index.edge_list:
        lo, hi = starts[u], starts[u + 1]
        if lo < hi:
            heads.append(v)
            parents.append(np.arange(lo, hi))
            rows.append(r)
            child_P.append(table.steps[r] @ P[lo:hi])
    sizes = [len(p) for p in parents]
    parent, P = np.concatenate(parents), np.concatenate(child_P)
    logscale = logscale[parent]
    _renormalise_rows(P, logscale)
    return _Level(np.repeat(heads, sizes), logscale, P, parent, np.repeat(rows, sizes))


def cocycle_product(A: MatrixCocycle, w: Sequence[int]) -> np.ndarray:
    """The n-step product over w (n = len(w) - m + 1), first factor rightmost.
    A product past the range of float64 is refused; `cocycle_log_product`
    gives it as (log scale, matrix)."""
    logscale, P = cocycle_log_product(A, w)
    # in two halves: e^logscale alone can overflow where the product does not
    half = _exp(logscale / 2)
    with np.errstate(over="ignore", invalid="ignore"):
        M = half * P * half
    if not np.isfinite(M).all():
        raise ValidationError(f"the product over {len(w)} letters overflows float64: "
                              f"its log scale is {logscale:.6g}")
    return M


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
    rows = _step_rows(A._step_table.index, np.array(words, dtype=np.intp))
    logscale, P = _prefix_products(A._step_table.steps, rows, np.full(len(words), rows.shape[1]))
    return (logscale, P) if batch else (float(logscale[0]), P[0])


# window for the largest entry of a running product
_WINDOW_LO, _WINDOW_HI = 1e-100, 1e100
_ones = lru_cache(maxsize=16)(np.ones)  # a ones vector per length, made once


def _renormalise_rows(P: np.ndarray, logscale: np.ndarray) -> None:
    """Move the largest entry of each running product in the stack P of
    shape (N, d, d) back into the window when it has left, in place,
    adding the log of the divisor to the log scales of shape (N,).  A row's
    entry sum, one matvec, lies in [max, 2 d^2 max] after rounding, so only
    a row whose sum is outside [2 d^2 lo, hi] can have left."""
    k = P.shape[1] * P.shape[2]
    flat = np.abs(P).reshape(-1, k)
    s = flat @ _ones(k)
    rows = ((s > _WINDOW_HI) | (s < 2 * k * _WINDOW_LO)).nonzero()[0]
    if len(rows):
        nrm = flat[rows].max(axis=1)
        out = (nrm > _WINDOW_HI) | ((0.0 < nrm) & (nrm < _WINDOW_LO))
        with np.errstate(invalid="ignore"):  # an infinite row becomes NaN, silently
            P[rows[out]] /= nrm[out, None, None]
        logscale[rows[out]] += np.log(nrm[out])


def _prefix_products(steps: np.ndarray, R: np.ndarray,
                     per: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products of the steps along each row of the (C, p) array R of step
    rows up to its length per (the row holds -1 past it), first step
    rightmost and renormalised after every step: (log scales (C,), new
    products (C, d, d)).  Each distinct prefix of the rows, a node of their
    trie, is multiplied once, from its parent's product."""
    # sorted, rows that share a prefix are adjacent: a node starts at each
    # row and depth within its length where it leaves the row before it
    order = np.lexsort(R.T[::-1])
    S = R[order]
    new = S >= 0
    new[1:] &= np.logical_or.accumulate(S[1:] != S[:-1], axis=1)
    # each row's node at each depth, the nodes numbered depth by depth
    node = new.T.cumsum().reshape(new.shape[::-1]) - 1
    at, rows = new.T.nonzero()
    parent, step = node[at - 1, rows], S[rows, at]
    end = node[per - 1, order.argsort(kind="stable")]  # where each row ends
    P, logscale = np.empty((len(step),) + steps.shape[1:]), np.zeros(len(step))
    lo = 0
    for hi in (node[:, -1] + 1).tolist():
        if lo:
            np.matmul(steps.take(step[lo:hi], axis=0), P.take(parent[lo:hi], axis=0), out=P[lo:hi])
            logscale[lo:hi] = logscale.take(parent[lo:hi])
        else:
            P[:hi] = steps.take(step[:hi], axis=0)
        _renormalise_rows(P[lo:hi], logscale[lo:hi])
        lo = hi
    return logscale.take(end), P.take(end, axis=0)


def _step_rows(index: _WordIndex, letters: np.ndarray) -> np.ndarray:
    """The rows of the word index for the L - m + 1 memory-words along the
    last axis of the integer array `letters` of shape (..., L), L >= m:
    shape (..., L - m + 1).  A letter outside the alphabet, or a forbidden
    2-word, which is named, is refused.  Every window of what is left is an
    indexed word, found by its code (`_WordIndex.powers`)."""
    k = index.space.k
    if letters.min() < 0 or letters.max() >= k:
        raise InadmissibleWordError(f"letters outside the alphabet of size {k}")
    ok = index.space._relation[letters[..., :-1], letters[..., 1:]]
    if not ok.all():
        *at, j = np.unravel_index(ok.argmin(), ok.shape)
        pair = letters[tuple(at)][j:j + 2].tolist()
        raise InadmissibleWordError(f"forbidden 2-word {word_to_str(pair)}")
    windows = np.lib.stride_tricks.sliding_window_view(letters, index.memory, axis=-1)
    return index.codes.searchsorted(windows @ index.powers)


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


def _check_space(space: ShiftSpace, A: MatrixCocycle) -> None:
    """Refuse a shift space other than the cocycle's."""
    if space != A.space:
        raise ShapeMismatchError("the shift space differs from the cocycle's")


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
    return MatrixCocycle(f.space, d, f.memory, _identity_table(f.space, d, f.memory), f)


def identity_cocycle(space: ShiftSpace, d: int = 1, memory: int = 1) -> MatrixCocycle:
    return MatrixCocycle(space, d, memory, _identity_table(space, d, memory))


def _identity_table(space: ShiftSpace, d: int, memory: int) -> dict:
    eye = np.eye(max(d, 0))  # MatrixCocycle, not np.eye, refuses a d < 1
    return {w: eye for w in admissible_words(space, memory)}

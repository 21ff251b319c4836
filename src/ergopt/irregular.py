"""Lyapunov-irregular points by block interleaving of two periodic orbits.

Alternating ever-longer blocks of two cycles with distinct exponents makes
the finite-time exponent series oscillate between weighted mixtures of the
two values; the series and its tail oscillation are the diagnostics.
Divergence is evidenced at finite depth, never proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .cocycle import MatrixCocycle, _check_space, _op_norms, _renormalise_rows, _step_rows
from .errors import EqualExponentsError, TooShortError, ValidationError
from .optimize import cycle_exponent
from .shift import Cycle, ShiftSpace, Word, connect

MAX_SERIES_LENGTH = 10**6
_SCAN_ROWS = 1 << 14  # most prefix products one chunk of the series holds


@dataclass(frozen=True)
class BlockSchedule:
    """Alternating blocks of two cycles with ratio-r length growth.

    Block j has length ceil(r * total length before it); connectors splice
    consecutive blocks admissibly.
    """

    cycles: tuple[Cycle, Cycle]
    connectors: tuple[Word, Word]  # c1->c2 and c2->c1 splices, endpoints included
    lengths: tuple[int, ...]
    ratio: float
    depth: int

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValidationError("block lengths must be strictly increasing")

    @cached_property
    def _layout(self) -> tuple[tuple[Word, Word, int, int], ...]:
        """Per block: the connector interior before it (none before the
        first), its cycle's word, its copies, and the 1-based step at which
        the block ends."""
        layout, end = [], 0
        for j, L in enumerate(self.lengths):
            glue = self.connectors[1 - j % 2][1:-1] if j else ()
            word = self.cycles[j % 2].word
            copies = -(-L // len(word))
            end += len(glue) + copies * len(word)
            layout.append((glue, word, copies, end))
        return tuple(layout)

    def symbols(self) -> Iterator[int]:
        for glue, word, copies, _ in self._layout:
            yield from glue
            for _ in range(copies):
                yield from word

    def block_end_indices(self) -> list[int]:
        """The 1-based step at which each block ends, before the next glue."""
        return [end for *_, end in self._layout]

    @property
    def total_length(self) -> int:
        return self._layout[-1][3]


def build_irregular_point(
    space: ShiftSpace,
    A: MatrixCocycle,
    c1: Cycle,
    c2: Cycle,
    r: float = 3.0,
    J: int = 8,
) -> BlockSchedule:
    """Schedule alternating c1 and c2 blocks with ratio-r growth.

    Requires the two periodic exponents to differ; along block boundaries
    the finite-time exponents oscillate between values separated by about
    (r - 1)/(r + 1) of the exponent gap.
    """
    _check_space(space, A)
    if J < 2:
        raise ValidationError("need at least two blocks")
    e1, e2 = map(float, cycle_exponent(A, (c1, c2)))
    if e1 == e2:
        raise EqualExponentsError("the two cycles have equal exponents")
    conn12 = connect(space, c1.word[-1], c2.word[0])
    conn21 = connect(space, c2.word[-1], c1.word[0])
    lengths = [c1.period]
    for _ in range(1, J):
        try:
            lengths.append(math.ceil(r * sum(lengths)))
        except (OverflowError, ValueError):  # past float64, or a NaN ratio
            raise ValidationError("block lengths must be finite") from None
    return BlockSchedule(
        cycles=(c1, c2),
        connectors=(conn12, conn21),
        lengths=tuple(lengths),
        ratio=r,
        depth=J,
    )


def _layout(x) -> tuple[tuple[Word, Word, int, int], ...]:
    """The blocks of x: a BlockSchedule's, or a (preamble, Cycle) point's
    one, the preamble as glue.  Past its last block x repeats its word."""
    if isinstance(x, BlockSchedule):
        return x._layout
    preamble, cycle = x
    return ((tuple(preamble), cycle.word, 1, len(preamble) + cycle.period),)


def _symbols(x, count: int) -> np.ndarray:
    """The first `count` symbols of x, one np.tile per block (`_layout`)."""
    pieces = []
    for glue, word, copies, end in _layout(x):
        pieces += [glue, np.tile(word, min(copies, count // len(word) + 1))]
        if end >= count:
            break
    pieces.append(np.tile(word, max(0, count - end) // len(word) + 1))  # past the last block
    return np.concatenate([np.asarray(p, dtype=np.intp) for p in pieces])[:count]


def finite_time_exponents(
    space: ShiftSpace,
    A: MatrixCocycle,
    x,
    N: int,
) -> np.ndarray:
    """The series (1/n) log norm of the n-step product along x, n = 1..N.

    x is either (preamble, Cycle) or a BlockSchedule; a point with a
    forbidden 2-word is refused.  The prefix products P_n = M_n ... M_1 go
    piece by piece (`_runs`), each copies of a word of p <= _SCAN_ROWS
    steps, through one kernel (`_run_chunk`) in chunks of _SCAN_ROWS // p
    copies: a run of at least two copies by doubling, about one product a
    step, and the steps between runs as single copies, about three.  Each
    chunk continues from the last product of the one before, so the values
    stay exact to within rounding at any N."""
    _check_space(space, A)
    if N < 1 or N > MAX_SERIES_LENGTH:
        raise ValidationError(f"N must be in [1, {MAX_SERIES_LENGTH}]")
    steps = A._step_table.steps
    rows = _step_rows(A._step_table.index, _symbols(x, N + A.memory - 1))
    out = np.empty(N)
    carry = [np.zeros(1), np.zeros(1), np.eye(A.d)[None]]
    for start, stop, p in _runs(x, rows):
        word = _scanned(steps, rows[start:start + p])
        powers, size = [[a[-1:] for a in word]], _SCAN_ROWS // p * p
        for lo in range(start, stop, size):
            carry = _run_chunk(word, powers, carry, lo, min(size, stop - lo), out)
    return out


def _runs(x, rows: np.ndarray) -> list[tuple[int, int, int]]:
    """The steps of x as pieces (start, stop, p), each copies of a word of
    p <= _SCAN_ROWS steps: runs of at least two copies, and between them
    single copies (stop - start == p) of at most _SCAN_ROWS steps.  A run
    is read off a block of x (`_layout`), the last one continued past its
    end, and its extent is confirmed on the step rows as rows[t] ==
    rows[t - p], so the windows of memory m >= 2 that straddle its end
    fall between runs."""
    N = len(rows)
    words = [(end - copies * len(word), len(word)) for _, word, copies, end in _layout(x)]

    def singles(lo, hi):  # the steps lo .. hi as single copies
        return [(a, min(a + _SCAN_ROWS, hi), min(_SCAN_ROWS, hi - a))
                for a in range(lo, hi, _SCAN_ROWS)]

    pieces, pos = [], 0
    for (s, p), (e, _) in zip(words, words[1:] + [(N, 0)]):
        e, t = min(e, N), s
        if p <= _SCAN_ROWS and e - s >= 2 * p:
            same = rows[s + p:e] == rows[s:e - p]
            t = e if same.all() else s + p + int(same.argmin())
        if t - s >= 2 * p:
            pieces += singles(pos, s) + [(s, t, p)]
            pos = t
    return pieces + singles(pos, N)


def _join(later, earlier):
    """The products later @ earlier of two stacks [hi, lo, P], broadcast
    along their leading axes and renormalised, the log scales hi + lo added
    as compensated pairs (Knuth's TwoSum)."""
    P = later[2] @ earlier[2]
    g = np.zeros(P.shape[:-2])
    _renormalise_rows(P.reshape(-1, *P.shape[-2:]), g.reshape(-1))
    hi, lo = later[0], later[1] + earlier[1]
    for x in (earlier[0], g):  # hi + x rounded, and its rounding error into lo
        s = hi + x
        t = s - hi
        hi, lo = s, lo + ((hi - (s - t)) + (x - t))
    return [hi, lo, P]


def _prefix(stack) -> None:
    """Replace the stack [hi, lo, P] by its prefix products, first factor
    rightmost, in place: join neighbouring pairs, scan the pairs, then
    join each even position to the pair product before it (Blelloch)."""
    n = len(stack[2])
    if n > 1:
        pairs = _join([a[1::2] for a in stack], [a[:n - 1:2] for a in stack])
        _prefix(pairs)
        evens = _join([a[2::2] for a in stack], [b[:(n - 1) // 2] for b in pairs])
        for a, b, c in zip(stack, pairs, evens):
            a[1::2], a[2::2] = b, c


def _scanned(steps: np.ndarray, rows: np.ndarray):
    """The stack [hi, lo, P] of the n + 1 products of the n renormalised
    steps `rows`, the identity first, scanned by `_prefix`: about 2n
    products in about 2 log2 n batched calls, each value rounded about
    once at its own size."""
    n, d = len(rows), steps.shape[1]
    stack = [np.zeros(n + 1), np.zeros(n + 1), np.concatenate([np.eye(d)[None], steps[rows]])]
    _renormalise_rows(stack[2][1:], stack[0][1:])
    _prefix(stack)
    return stack


def _values(stack) -> np.ndarray:
    """log norm of each product of the stack [hi, lo, P], any leading shape."""
    hi, lo, P = stack
    return (lo + np.log(_op_norms(P.reshape(-1, *P.shape[-2:])).reshape(hi.shape))) + hi


def _run_chunk(word, powers, carry, start: int, n: int, out: np.ndarray):
    """Write the series at steps start + 1 .. start + n into out, where the
    n steps repeat a word of p steps whose products W_0 = I, W_1 .. W_p
    are the stack `word`, continuing from the carry Q of the first start
    steps; return the carry of the first start + n steps.

    With C = W_p the product after jp + i of the steps is W_i C^j Q.  The
    Y_j = C^j Q, j <= J = n // p, come by doubling, Y[h:2h] = C^h Y[0:h],
    one join per doubling; `powers` holds C, C^2, C^4, ..., and a join
    that needs C^2h next forms it as C^h C^h along with its h products.
    Position p of copy j is Y_{j+1}; positions 0 < i < p of every copy
    are one batched join of W_i with Y_j.  About n + p log2 n products in
    about log2 J batched calls."""
    p = len(word[2]) - 1
    J, r = divmod(n, p)
    Y = [np.empty((J + 1,) + a.shape[1:]) for a in carry]
    for a, c in zip(Y, carry):
        a[0] = c[0]
    h = 1
    while h <= J:
        m, k = min(h, J + 1 - h), h.bit_length() - 1
        square = len(powers) == k + 1 and 2 * h <= J  # so m == h
        if square:  # C^h rides in the free slot Y[h]
            for a, c in zip(Y, powers[k]):
                a[h] = c[0]
        new = _join(powers[k], [a[:m + square] for a in Y])
        for a, b in zip(Y, new):
            a[h:h + m] = b[:m]
        if square:
            powers.append([b[m:] for b in new])
        h *= 2
    values = np.empty((J + (r > 0), p))
    values[:J, -1] = _values([a[1:] for a in Y])
    carry = [a[J:] for a in Y]
    if p > 1:
        inner = _join([a[None, 1:p] for a in word], [a[:len(values), None] for a in Y])
        values[:, :-1] = _values(inner)
        if r:
            carry = [a[J, r - 1:r] for a in inner]
    out[start:start + n] = values.reshape(-1)[:n] / np.arange(start + 1, start + n + 1)
    return carry


def oscillation(series: Sequence[float]) -> tuple[float, float, float]:
    """(min, max, gap) of the exponent series over its final half."""
    if len(series) < 100:
        raise TooShortError("series must have at least 100 entries")
    tail = np.asarray(series)[len(series) // 2 :]
    lo = float(np.min(tail))
    hi = float(np.max(tail))
    return lo, hi, hi - lo


def block_oscillation(
    series: Sequence[float],
    schedule: BlockSchedule,
) -> tuple[float, float, float]:
    """(min, max, gap) of the series at the last four block-end steps it
    reaches, or all of them when fewer.

    Block boundaries are where the finite-time exponents approach their
    extreme mixtures, so this is the tail liminf/limsup estimate.
    """
    ends = [i for i in schedule.block_end_indices() if i <= len(series)]
    if len(ends) < 2:
        raise TooShortError("series too short to cover two block boundaries")
    vals = [series[i - 1] for i in ends[-4:]]
    lo, hi = min(vals), max(vals)
    return float(lo), float(hi), float(hi - lo)

"""Lyapunov-irregular points by block interleaving of two periodic orbits.

Alternating ever-longer blocks of two cycles with distinct exponents makes
the finite-time exponent series oscillate between weighted mixtures of the
two values; the series and its tail oscillation are the diagnostics.
Divergence is evidenced at finite depth, never proven.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .cocycle import MatrixCocycle, _op_norms, _renormalise_rows, _step_rows
from .errors import EqualExponentsError, TooShortError, ValidationError
from .optimize import cycle_exponent
from .shift import Cycle, ShiftSpace, Word, connect, iter_point

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
    def _layout(self) -> tuple[tuple[Word, int, Word, int], ...]:
        """Per block: its cycle's word, the repeats of it, the connector
        interior that follows (none after the last block), and the 1-based
        step index at which the block ends, before that connector."""
        layout, pos = [], 0
        for j, L in enumerate(self.lengths):
            word = self.cycles[j % 2].word
            reps = -(-L // len(word))
            conn = self.connectors[j % 2][1:-1] if j + 1 < len(self.lengths) else ()
            layout.append((word, reps, conn, pos + reps * len(word)))
            pos = layout[-1][3] + len(conn)
        return tuple(layout)

    def symbols(self) -> Iterator[int]:
        for word, reps, conn, _ in self._layout:
            for _ in range(reps):
                yield from word
            yield from conn

    def block_end_indices(self) -> list[int]:
        """1-based step indices at which each block ends, before the
        connector that follows it."""
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


def _symbol_stream(x) -> Iterator[int]:
    if isinstance(x, BlockSchedule):
        # pad with the last block's cycle if the schedule runs out
        return itertools.chain(x.symbols(), itertools.cycle(x._layout[-1][0]))
    preamble, c = x
    return iter_point(preamble, c)


def finite_time_exponents(
    space: ShiftSpace,
    A: MatrixCocycle,
    x,
    N: int,
) -> np.ndarray:
    """The series (1/n) log norm of the n-step product along x, n = 1..N.

    x is either (preamble, Cycle) or a BlockSchedule.  The prefix products
    P_n = M_n ... M_1 come from a two-level scan over chunks of at most
    _SCAN_ROWS steps, each chunk continuing from the last product of the one
    before; products are renormalised after every step, accumulating their
    log scales, so the values stay exact to within rounding at any N.
    """
    if N < 1 or N > MAX_SERIES_LENGTH:
        raise ValidationError(f"N must be in [1, {MAX_SERIES_LENGTH}]")
    count = N + A.memory - 1
    symbols = np.fromiter(itertools.islice(_symbol_stream(x), count), dtype=np.intp, count=count)
    windows = np.lib.stride_tricks.sliding_window_view(symbols, A.memory)
    out = np.empty(N)
    carry = (0.0, 0.0, np.eye(A.d))
    for lo in range(0, N, _SCAN_ROWS):
        rows = _step_rows(A._step_table.index, windows[lo:lo + _SCAN_ROWS])
        carry = _scan_chunk(A._step_table.steps, rows, carry, lo, out)
    return out


def _running_sums(total: float, comp: float, terms: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The running sums of `terms` after total + comp as two arrays hi and
    lo, compensated (Neumaier): hi + lo is each sum to within about one
    rounding of its own size, however many terms came before."""
    hi, lo = [], []
    for x in terms:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
        hi.append(total)
        lo.append(comp)
    return np.array(hi), np.array(lo)


def _scan_chunk(steps: np.ndarray, rows: np.ndarray, carry, start: int, out: np.ndarray):
    """Write the series at steps start + 1 .. start + n of the n step rows
    `rows` into out, continuing from carry = (hi, lo, product) of the first
    start steps, whose log scale is hi + lo; return the carry of the first
    start + n steps.

    The n steps are cut into b = isqrt(n) blocks of s = ceil(n / b), the
    last one padded by repeating its final step.  One batched product per
    position scans all blocks at once, a sequential scan of the b block
    totals gives the product before each block, and one more batched
    product joins the two: about 2n products in 2s + b numpy steps.  The
    log scales before each block, which grow with n, are summed
    compensated and added last, so each value is rounded about once at
    its own size.
    """
    n, d = len(rows), steps.shape[1]
    b = math.isqrt(n)
    s = -(-n // b)
    # Q[j, i] and L[j, i]: the product of steps i s .. i s + j of the chunk
    Q = steps[np.pad(rows, (0, b * s - n), mode="edge").reshape(b, s).T.reshape(-1)]
    L = np.zeros(len(Q))
    _renormalise_rows(Q, L)
    Q, L = Q.reshape(s, b, d, d), L.reshape(s, b)
    for j in range(1, s):
        Q[j] = Q[j] @ Q[j - 1]
        L[j] += L[j - 1]
        _renormalise_rows(Q[j], L[j])
    # C[i]: the product of every step before block i, with log scale
    # hi[i] + lo[i]; g[i] is the log scale of C[i] over C[i - 1]
    C = np.empty((b, d, d))
    C[0] = carry[2]
    g = np.zeros(b)
    g[1:] = L[-1, :-1]
    for i in range(1, b):
        C[i] = Q[-1, i - 1] @ C[i - 1]
        _renormalise_rows(C[i:i + 1], g[i:i + 1])
    hi, lo = _running_sums(carry[0], carry[1], g.tolist())
    P = (Q @ C).reshape(-1, d, d)
    small = (L + lo).reshape(-1)
    _renormalise_rows(P, small)
    # back from (position, block) to step order
    values = ((small + np.log(_op_norms(P))).reshape(s, b) + hi).T.reshape(-1)[:n]
    out[start:start + n] = values / np.arange(start + 1, start + n + 1)
    last = (n - 1) % s * b + (n - 1) // s
    return hi[last % b], small[last], P[last]


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
    last_blocks: int = 4,
) -> tuple[float, float, float]:
    """(min, max, gap) of the series sampled at block-end steps.

    Block boundaries are where the finite-time exponents approach their
    extreme mixtures, so this is the tail liminf/limsup estimate.
    """
    ends = [i for i in schedule.block_end_indices() if i <= len(series)]
    if len(ends) < 2:
        raise TooShortError("series too short to cover two block boundaries")
    picked = ends[-last_blocks:]
    vals = [series[i - 1] for i in picked]
    lo, hi = min(vals), max(vals)
    return float(lo), float(hi), float(hi - lo)

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

    def symbols(self) -> Iterator[int]:
        for j, L in enumerate(self.lengths):
            c = self.cycles[j % 2]
            reps = -(-L // c.period)
            for _ in range(reps):
                yield from c.word
            if j + 1 < len(self.lengths):
                conn = self.connectors[j % 2]
                yield from conn[1:-1]

    def block_end_indices(self) -> list[int]:
        """1-based step indices at which each block (plus its connector) ends."""
        out = []
        pos = 0
        for j, L in enumerate(self.lengths):
            c = self.cycles[j % 2]
            reps = -(-L // c.period)
            pos += reps * c.period
            out.append(pos)
            if j + 1 < len(self.lengths):
                pos += len(self.connectors[j % 2]) - 2
        return out

    @property
    def total_length(self) -> int:
        return self.block_end_indices()[-1]


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
        lengths.append(math.ceil(r * sum(lengths)))
    return BlockSchedule(
        cycles=(c1, c2),
        connectors=(conn12, conn21),
        lengths=tuple(lengths),
        ratio=r,
        depth=J,
    )


def _symbol_stream(x) -> Iterator[int]:
    if isinstance(x, BlockSchedule):
        # pad with the final cycle if the schedule runs out
        final = x.cycles[(len(x.lengths) - 1) % 2]
        return itertools.chain(x.symbols(), itertools.cycle(final.word))
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
    P_n = M_n ... M_1 come from a log-depth scan over chunks of at most
    _SCAN_ROWS steps, each chunk continuing from the last product of the one
    before; rows are renormalised after every round, accumulating their log
    scales, so the values stay exact to within rounding at any N.
    """
    if N < 1 or N > MAX_SERIES_LENGTH:
        raise ValidationError(f"N must be in [1, {MAX_SERIES_LENGTH}]")
    count = N + A.memory - 1
    symbols = np.fromiter(itertools.islice(_symbol_stream(x), count), dtype=np.intp, count=count)
    windows = np.lib.stride_tricks.sliding_window_view(symbols, A.memory)
    out = np.empty(N)
    carry = None
    for lo in range(0, N, _SCAN_ROWS):
        P = A._step_table.steps[_step_rows(A, windows[lo:lo + _SCAN_ROWS])]
        logscale = np.zeros(len(P))
        _renormalise_rows(P, logscale)
        if carry is not None:
            P[0] = P[0] @ carry[1]
            logscale[0] += carry[0]
        # Hillis-Steele: after the round with shift s, row i holds the
        # product of the last min(2s, i + 1) steps up to step lo + i
        s = 1
        while s < len(P):
            P[s:] = P[s:] @ P[:-s]
            logscale[s:] = logscale[s:] + logscale[:-s]
            _renormalise_rows(P, logscale)
            s *= 2
        n = np.arange(lo + 1, lo + len(P) + 1)
        out[lo:lo + len(P)] = (logscale + np.log(_op_norms(P))) / n
        carry = (logscale[-1], P[-1])
    return out


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

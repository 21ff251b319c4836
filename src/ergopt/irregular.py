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

from .cocycle import MatrixCocycle, _renormalise, op_norm
from .errors import EqualExponentsError, TooShortError, ValidationError
from .optimize import cycle_exponent
from .shift import Cycle, ShiftSpace, Word, connect

MAX_SERIES_LENGTH = 10**6


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
    e1 = float(cycle_exponent(A, c1))
    e2 = float(cycle_exponent(A, c2))
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
    return itertools.chain(preamble, itertools.cycle(c.word))


def finite_time_exponents(
    space: ShiftSpace,
    A: MatrixCocycle,
    x,
    N: int,
) -> np.ndarray:
    """The series (1/n) log norm of the n-step product along x, n = 1..N.

    x is either (preamble, Cycle) or a BlockSchedule.  One matrix multiply
    per step, renormalizing and accumulating the log scale so the values
    stay exact to within rounding at any N.
    """
    if N < 1 or N > MAX_SERIES_LENGTH:
        raise ValidationError(f"N must be in [1, {MAX_SERIES_LENGTH}]")
    m = A.memory
    it = _symbol_stream(x)
    window: list[int] = []
    for _ in range(m):
        window.append(next(it))
    out = np.empty(N)
    logscale = 0.0
    P = A.matrix(tuple(window))
    out[0] = logscale + math.log(op_norm(P))
    for n in range(2, N + 1):
        window.pop(0)
        window.append(next(it))
        P, logscale = _renormalise(A.matrix(tuple(window)) @ P, logscale)
        out[n - 1] = (logscale + math.log(op_norm(P))) / n
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

"""Finite symbolic dynamics: subshifts of finite type, words, cycles.

Points of the shift space are never materialized as infinite sequences;
everything is expressed through finite words, primitive cycles and block
schedules.  All values are immutable and all operations pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    EmptyAlphabetError,
    InadmissibleWordError,
    NoCycleError,
    UnreachableError,
)

Word = tuple[int, ...]


def word_to_str(w: Sequence[int]) -> str:
    """Render a word; single digits are concatenated, larger letters comma-joined."""
    if all(a < 10 for a in w):
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


def str_to_word(s: str) -> Word:
    if "," in s:
        return tuple(int(t) for t in s.split(","))
    return tuple(int(c) for c in s)


@dataclass(frozen=True)
class ShiftSpace:
    """A one-sided subshift of finite type on the alphabet {0, ..., k-1}.

    ``allowed[a][b]`` means the two-letter word ``ab`` is admissible.
    """

    k: int
    allowed: tuple[tuple[bool, ...], ...]

    @property
    def is_full(self) -> bool:
        return all(all(row) for row in self.allowed)

    def is_admissible(self, w: Sequence[int]) -> bool:
        if any(a < 0 or a >= self.k for a in w):
            return False
        return all(self.allowed[a][b] for a, b in zip(w, w[1:]))

    def is_cyclically_admissible(self, w: Sequence[int]) -> bool:
        return self.is_admissible(w) and bool(self.allowed[w[-1]][w[0]])

    def successors(self, a: int) -> list[int]:
        return [b for b in range(self.k) if self.allowed[a][b]]


def point_distance(x: Sequence[int], y: Sequence[int]) -> float:
    """2^(-i) where i is the first index of disagreement of the two prefixes.

    Returns 0.0 when the compared prefixes agree everywhere.
    """
    n = min(len(x), len(y))
    for i in range(n):
        if x[i] != y[i]:
            return 2.0 ** (-i)
    return 0.0


def new_shift(k: int, allowed: Sequence[Sequence[bool]] | None = None) -> ShiftSpace:
    """Validated construction; ``allowed=None`` gives the full shift."""
    if k < 1:
        raise EmptyAlphabetError(f"alphabet size must be >= 1, got {k}")
    if allowed is None:
        rows = tuple(tuple(True for _ in range(k)) for _ in range(k))
    else:
        if len(allowed) != k or any(len(r) != k for r in allowed):
            raise NoCycleError(f"transition relation must be {k}x{k}")
        rows = tuple(tuple(bool(b) for b in r) for r in allowed)
    space = ShiftSpace(k, rows)
    bad = [a for a in range(k) if not _on_cycle(space, a)]
    if bad:
        raise NoCycleError(f"letters {bad} lie on no admissible cycle")
    return space


def _on_cycle(space: ShiftSpace, a: int) -> bool:
    # letter lies on a cycle iff some path a -> a of length >= 1 exists
    seen = set()
    frontier = deque(space.successors(a))
    while frontier:
        b = frontier.popleft()
        if b == a:
            return True
        if b in seen:
            continue
        seen.add(b)
        frontier.extend(space.successors(b))
    return False


def admissible_words(space: ShiftSpace, n: int) -> list[Word]:
    """All admissible words of length n, in lexicographic order."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    words: list[Word] = [(a,) for a in range(space.k)]
    for _ in range(n - 1):
        words = [w + (b,) for w in words for b in space.successors(w[-1])]
    return words


@dataclass(frozen=True)
class Cycle:
    """A primitive admissible cycle, stored in its lexicographically
    least rotation."""

    word: Word

    @property
    def period(self) -> int:
        return len(self.word)

    def window(self, start: int, length: int) -> Word:
        """Length-`length` window of the periodic sequence, from `start`."""
        p = self.period
        return tuple(self.word[(start + j) % p] for j in range(length))

    def windows(self, length: int) -> list[Word]:
        """The ``period`` windows of the given length around the cycle."""
        return [self.window(i, length) for i in range(self.period)]

    def __str__(self) -> str:
        return word_to_str(self.word)


def canonical_rotation(w: Sequence[int]) -> Word:
    t = tuple(w)
    return min(t[i:] + t[:i] for i in range(len(t)))


def is_primitive(w: Sequence[int]) -> bool:
    p = len(w)
    for q in range(1, p):
        if p % q == 0 and tuple(w) == tuple(w[i % q] for i in range(p)):
            return False
    return True


def make_cycle(space: ShiftSpace, w: Sequence[int]) -> Cycle:
    if not space.is_cyclically_admissible(w):
        raise InadmissibleWordError(
            f"word {word_to_str(w)} is not cyclically admissible")
    if not is_primitive(w):
        raise ValueError(f"word {word_to_str(w)} is not primitive")
    return Cycle(canonical_rotation(w))


def enumerate_cycles(space: ShiftSpace, p_max: int) -> list[Cycle]:
    """All primitive cycles of period <= p_max, canonical, ordered by
    (period, word).

    The canonical primitive cycles are exactly the Lyndon words.  They are
    read off a depth-first walk of the prenecklaces of length <= p_max
    (Fredricksen-Kessler-Maiorana), which visits words of equal length in
    lexicographic order; a prefix containing a forbidden 2-word is never
    extended (Ruskey-Sawada).
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    allowed = space.allowed
    by_period: list[list[Cycle]] = [[] for _ in range(p_max + 1)]
    # (prenecklace w, length p of its longest Lyndon prefix); w is a Lyndon
    # word exactly when p == len(w)
    stack: list[tuple[Word, int]] = [((a,), 1) for a in reversed(range(space.k))]
    while stack:
        w, p = stack.pop()
        t = len(w)
        if p == t and allowed[w[-1]][w[0]]:
            by_period[t].append(Cycle(w))
        if t == p_max:
            continue
        # a prenecklace extends by w[t - p] (same p) or any larger letter
        # (a Lyndon word of length t + 1); push in reverse to pop in order
        row = allowed[w[-1]]
        low = w[t - p]
        stack.extend((w + (b,), p if b == low else t + 1)
                     for b in range(space.k - 1, low - 1, -1) if row[b])
    return [c for cycles in by_period for c in cycles]


def connect(space: ShiftSpace, a: int, b: int) -> Word:
    """Shortest admissible word from letter a to letter b (both included,
    at least one shift step); ties broken lexicographically."""
    # level-order BFS expanding letters in increasing order: the first path
    # reaching b is the lexicographically least among shortest ones
    frontier: deque[Word] = deque([(a,)])
    visited: set[int] = set()
    while frontier:
        path = frontier.popleft()
        for c in space.successors(path[-1]):
            if c == b:
                return path + (c,)
            if c not in visited:
                visited.add(c)
                frontier.append(path + (c,))
    raise UnreachableError(f"no admissible path from {a} to {b}")


def iter_point(preamble: Sequence[int], cycle: Cycle) -> Iterator[int]:
    """Symbols of the eventually periodic point preamble * cycle^infinity."""
    yield from preamble
    while True:
        yield from cycle.word

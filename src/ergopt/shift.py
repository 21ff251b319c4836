"""Finite symbolic dynamics: subshifts of finite type, words, cycles.

Points of the shift space are never materialized as infinite sequences;
everything is expressed through finite words, primitive cycles and block
schedules.  All values are immutable and all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    EmptyAlphabetError,
    InadmissibleWordError,
    NoCycleError,
    ParseError,
    UnreachableError,
    ValidationError,
)

Word = tuple[int, ...]


def word_to_str(w: Sequence[int]) -> str:
    """Render a word: letters below 10 are concatenated, other words are
    comma-joined, and a one-letter word ends in a comma ("10,"), so that
    `str_to_word` reads every rendering back."""
    if all(a < 10 for a in w):
        return "".join(map(str, w))
    return ",".join(map(str, w)) + "," * (len(w) == 1)


def str_to_word(s: str) -> Word:
    """The word a `word_to_str` rendering names; a ParseError otherwise."""
    try:
        return tuple(map(int, s.removesuffix(",").split(",") if "," in s else s))
    except ValueError:
        raise ParseError(f"bad word {s!r}") from None


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

    def successors(self, a: int) -> tuple[int, ...]:
        return self._successors[a]

    @cached_property
    def _successors(self) -> tuple[tuple[int, ...], ...]:
        """The letters that may follow each letter, ascending; built once."""
        return tuple(tuple(compress(range(self.k), row)) for row in self.allowed)


def point_distance(x: Sequence[int], y: Sequence[int]) -> float:
    """2^(-i) where i is the first index of disagreement of the two prefixes.

    Returns 0.0 when the compared prefixes agree everywhere.
    """
    return next((2.0 ** (-i) for i, (a, b) in enumerate(zip(x, y)) if a != b), 0.0)


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
    """Whether some path a -> a of length >= 1 exists."""
    try:
        connect(space, a, a)
    except UnreachableError:
        return False
    return True


def admissible_words(space: ShiftSpace, n: int) -> list[Word]:
    """All admissible words of length n, in lexicographic order."""
    if n < 1:
        raise ValidationError("word length must be >= 1")
    words: list[Word] = [(a,) for a in range(space.k)]
    for _ in range(n - 1):
        words = [w + (b,) for w in words for b in space.successors(w[-1])]
    return words


@dataclass(frozen=True)
class _WordIndex:
    """The admissible memory-words of one (space, memory) in lexicographic
    order, which number the rows of step tables and weight rows, and their
    word graph.  The arrays are read-only.

    The graph's nodes are the admissible (memory-1)-words, single letters
    for memory 1.  Each admissible word e of length max(memory, 2) is the
    edge e[:-1] -> e[1:], read at the row of the memory-word it ends with:
    e itself for memory m >= 2, the letter b of ab for memory 1.  So each
    word ends at the head of every edge that reads it."""

    space: ShiftSpace
    memory: int
    words: tuple[Word, ...]
    row_of: dict[Word, int]
    powers: np.ndarray  # k^(m-1), ..., k, 1: `windows @ powers` codes words
    codes: np.ndarray  # of the words, ascending
    nodes: tuple[Word, ...]  # of the word graph, in lexicographic order
    # per edge, sorted by head: head and tail node, and the row it is read at
    heads: np.ndarray
    tails: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        for value in (self.powers, self.codes, self.heads, self.tails, self.rows):
            value.flags.writeable = False


@lru_cache(maxsize=64)
def _word_index(space: ShiftSpace, memory: int) -> _WordIndex:
    """The word index of (space, memory), built once while it is cached."""
    words = admissible_words(space, memory)
    row_of = {w: i for i, w in enumerate(words)}
    k, s = space.k, max(memory - 1, 1)
    nodes = admissible_words(space, s)
    node_of = {u: i for i, u in enumerate(nodes)}
    edges = sorted((node_of[e[1:]], node_of[e[:-1]], row_of[e[-memory:]])
                   for e in admissible_words(space, s + 1))
    powers = np.array([k**i for i in reversed(range(memory))],
                      dtype=np.int64 if k**memory < 2**63 else object)
    return _WordIndex(space, memory, tuple(words), row_of, powers, np.array(words) @ powers,
                      tuple(nodes), *np.array(edges, dtype=np.intp).reshape(-1, 3).T)


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
    return not any(p % q == 0 and tuple(w) == tuple(w[i % q] for i in range(p))
                   for q in range(1, p))


def make_cycle(space: ShiftSpace, w: Sequence[int]) -> Cycle:
    if not space.is_cyclically_admissible(w):
        raise InadmissibleWordError(
            f"word {word_to_str(w)} is not cyclically admissible")
    if not is_primitive(w):
        raise ValidationError(f"word {word_to_str(w)} is not primitive")
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
        raise ValidationError("p_max must be >= 1")
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
    # reaching b is the lexicographically least among shortest ones.  Each
    # letter keeps the letter it was first reached from.
    successors = space._successors
    parent = {a: a}
    frontier = [a]
    for u in frontier:  # grows while it is walked: a FIFO queue
        for c in successors[u]:
            if c == b:
                path = [c, u]
                while path[-1] != a:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            if c not in parent:
                parent[c] = u
                frontier.append(c)
    raise UnreachableError(f"no admissible path from {a} to {b}")


def iter_point(preamble: Sequence[int], cycle: Cycle) -> Iterator[int]:
    """Symbols of the eventually periodic point preamble * cycle^infinity."""
    yield from preamble
    while True:
        yield from cycle.word

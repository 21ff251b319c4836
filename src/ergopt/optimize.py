"""Two-sided bracketing of the maximum ergodic average of a cocycle.

Upper bounds come from maxima of log norms over admissible words at a
fixed depth; lower bounds from spectral radii of products along periodic
orbits.  The additive case (d = 1, Birkhoff averages) is solved exactly as
a maximum cycle mean on the word transition graph, with rational
arithmetic whenever the inputs are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from . import _graph
from .cocycle import (
    MatrixCocycle,
    ScalarPotential,
    Scalar,
    _renormalise_rows,
    _step_rows,
    spectral_radius,
)
from .errors import BudgetExceededError, ValidationError
from .shift import Cycle, ShiftSpace, Word, admissible_words, enumerate_cycles

DEFAULT_N_MAX = 24
DEFAULT_P_MAX = 12
DEFAULT_WORD_BUDGET = 10_000_000
_BLOCK_ROWS = 4096  # most running products the U_n search holds in one block
NORM_TAG = "spectral-2"

Node = Word


def build_word_graph(space: ShiftSpace, memory: int):
    """Transition graph of memory-words.

    Nodes are admissible (memory-1)-words (single letters when memory = 1);
    each edge spans one memory-word, returned in the edge map.
    """
    s = max(memory - 1, 1)
    nodes = admissible_words(space, s)
    edges: dict[tuple[Node, Node], Word] = {}
    for u in nodes:
        for b in space.successors(u[-1]):
            v = u[1:] + (b,) if memory >= 2 else (b,)
            word = u + (b,) if memory >= 2 else u
            edges[(u, v)] = word
    return nodes, edges


def _as_weight(v: Scalar) -> Scalar:
    return Fraction(v) if isinstance(v, Rational) else v


def _word_graph_beta(space: ShiftSpace, f: ScalarPotential):
    """Word graph of f's memory (nodes, edge words), its edge weights under
    f, and their maximum cycle mean."""
    nodes, edge_words = build_word_graph(space, f.memory)
    weights = {e: _as_weight(f.table[w]) for e, w in edge_words.items()}
    beta = _graph.max_cycle_mean(nodes, weights)
    if beta is None:
        raise ValidationError("word graph has no cycle")
    return nodes, edge_words, weights, beta


def karp_beta(space: ShiftSpace, f: ScalarPotential) -> Scalar:
    """Exact maximum ergodic average of a locally constant potential."""
    return _word_graph_beta(space, f)[-1]


@dataclass(frozen=True)
class CriticalGraph:
    """Support of all maximizing measures of a potential.

    Every cycle of the graph has mean weight exactly `beta`, and every
    mean-beta cycle of the full word graph lies inside it.
    """

    beta: Scalar
    memory: int
    edges: frozenset[tuple[Node, Node]]
    edge_words: dict[tuple[Node, Node], Word]
    components: tuple[frozenset[Node], ...]

    @property
    def nodes(self) -> frozenset[Node]:
        return frozenset(u for u, _ in self.edges) | frozenset(v for _, v in self.edges)

    def contains_cycle(self, c: Cycle) -> bool:
        s = max(self.memory - 1, 1)
        p = c.period
        for i in range(p):
            u = c.window(i, s)
            v = c.window(i + 1, s)
            if (u, v) not in self.edges:
                return False
        return True

    def is_single_cycle(self) -> bool:
        """True iff the graph is exactly one primitive cycle."""
        # strongly connected with as many edges as nodes: every node has
        # exactly one edge out and one in
        return len(self.components) == 1 and len(self.edges) == len(self.nodes)

    def cycles(self, p_max: int) -> list[Cycle]:
        """Primitive cycles of period <= p_max lying in the graph, in
        (period, word) order.

        `enumerate_cycles` walks the graph as a shift whose letters are its
        nodes in lexicographic order.  Node sequences then compare as the
        symbol words they spell, so Lyndon words of nodes give canonical
        cycles, in order.
        """
        nodes = sorted(self.nodes)
        index = {v: i for i, v in enumerate(nodes)}
        allowed = [[False] * len(nodes) for _ in nodes]
        for u, v in self.edges:
            allowed[index[u]][index[v]] = True
        node_shift = ShiftSpace(len(nodes), tuple(map(tuple, allowed)))
        return [Cycle(tuple(nodes[i][0] for i in c.word))
                for c in enumerate_cycles(node_shift, p_max)]

    def max_mean(self, g: ScalarPotential) -> Scalar:
        """Greatest mean of g over the cycles of the graph; g has the
        graph's memory."""
        weights = {e: _as_weight(g.table[w]) for e, w in self.edge_words.items()}
        val = _graph.max_cycle_mean(sorted(self.nodes), weights)
        if val is None:
            raise ValidationError("critical graph has no cycle")
        return val


def critical_graph(space: ShiftSpace, f: ScalarPotential) -> CriticalGraph:
    nodes, edge_words, weights, beta = _word_graph_beta(space, f)
    tol = 0 if isinstance(beta, Rational) else 1e-9
    edges = frozenset(_graph.critical_subgraph(nodes, weights, beta, tol))
    used = {u for u, _ in edges} | {v for _, v in edges}
    comps = tuple(
        frozenset(c) for c in _graph.strongly_connected_components(used, edges) if c
    )
    return CriticalGraph(
        beta=beta,
        memory=f.memory,
        edges=edges,
        edge_words={e: w for e, w in edge_words.items() if e in edges},
        components=comps,
    )


def maximizing_cycles(space: ShiftSpace, f: ScalarPotential, p_max: int) -> tuple[list[Cycle], bool]:
    """All primitive cycles supported on the critical graph, up to p_max.

    The uniqueness verdict (critical graph is a single primitive cycle) is
    exact and independent of p_max.
    """
    G = critical_graph(space, f)
    return G.cycles(p_max), G.is_single_cycle()


def relative_beta(space: ShiftSpace, f: ScalarPotential, gamma: ScalarPotential) -> Scalar:
    """max of the gamma-average over the maximizing measures of f.

    Exact: the maximum cycle mean of gamma restricted to the critical graph
    of f.
    """
    m = max(f.memory, gamma.memory)
    return critical_graph(space, f.lift(m)).max_mean(gamma.lift(m))


# ---------------------------------------------------------------------------
# periodic-orbit lower bounds


def cycle_exponent(A: MatrixCocycle, c: Cycle | Sequence[Cycle]) -> Scalar | list[Scalar]:
    """Exact exponent of the periodic measure of c, or the exponents of a
    sequence of cycles, in order.

    (1/p) log spectral radius of the product around the cycle; the mean of
    the additive potential (rational when possible) for d = 1.  Cycles of
    equal period share one stacked product and one spectral-radius call.
    """
    if isinstance(c, Cycle):
        return _exponents(A, [c])[0]
    return _exponents(A, list(c))


def _exponents(A: MatrixCocycle, cycles: list[Cycle]) -> list[Scalar]:
    """`cycle_exponent` of each cycle, in order."""
    if not cycles:
        return []
    if A.is_additive:
        pot = A.additive_potential()
        out: list[Scalar] = []
        for c in cycles:
            total = sum(pot.value(w) for w in c.windows(pot.memory))
            out.append(Fraction(total) / c.period if isinstance(total, Rational)
                       else total / c.period)
        return out
    m = A.memory
    by_period: dict[int, list[int]] = {}
    for i, c in enumerate(cycles):
        by_period.setdefault(c.period, []).append(i)
    # the memory-word at each step of each cycle, (C, p, m) per period
    windows = [np.array([cycles[i].word for i in which])
               [:, (np.arange(p)[:, None] + np.arange(m)) % p]
               for p, which in by_period.items()]
    steps, rows = _step_rows(A, np.concatenate([w.reshape(-1, m) for w in windows]))
    values = [0.0] * len(cycles)
    start = 0
    for p, which in by_period.items():
        R = rows[start:start + len(which) * p].reshape(len(which), p)
        start += len(which) * p
        # the running products around each cycle, first step rightmost
        P = steps[R[:, 0]]
        logscale = np.zeros(len(which))
        _renormalise_rows(P, logscale)
        for j in range(1, p):
            P = steps[R[:, j]] @ P
            _renormalise_rows(P, logscale)
        rho = spectral_radius(P)
        for i, ls, r in zip(which, logscale.tolist(), rho.tolist()):
            values[i] = (ls + math.log(r)) / p
    return values


def _cycle_exponents(space: ShiftSpace, A: MatrixCocycle, p_max: int) -> list[tuple[Cycle, float]]:
    """Every primitive cycle of period <= p_max with its exponent, in
    (period, word) order."""
    cycles = enumerate_cycles(space, p_max)
    return [(c, float(val)) for c, val in zip(cycles, cycle_exponent(A, cycles))]


def _lower_series(exponents: list[tuple[Cycle, float]]) -> tuple[list[tuple[int, float]], Cycle]:
    """Best exponent up to each period present, and the cycle attaining
    the overall best.

    Ties broken by (shorter period, lexicographically least canonical word).
    """
    series: list[tuple[int, float]] = []
    best = -math.inf
    witness: Cycle | None = None
    for c, val in exponents:
        if val > best:
            best, witness = val, c
        if series and series[-1][0] == c.period:
            series[-1] = (c.period, best)
        else:
            series.append((c.period, best))
    if witness is None:
        raise ValidationError("no admissible cycle up to p_max")
    return series, witness


def lower_bound_cycles(space: ShiftSpace, A: MatrixCocycle, p_max: int) -> tuple[float, Cycle]:
    """Best periodic-orbit exponent over primitive cycles of period <= p_max.

    Ties broken by (shorter period, lexicographically least canonical word).
    """
    if p_max < 1:
        raise ValidationError("p_max must be >= 1")
    series, witness = _lower_series(_cycle_exponents(space, A, p_max))
    return series[-1][1], witness


# ---------------------------------------------------------------------------
# word-depth upper bounds


def upper_bound(
    space: ShiftSpace,
    A: MatrixCocycle,
    n: int,
    budget: int = DEFAULT_WORD_BUDGET,
    lower_hint: float | None = None,
) -> float:
    """U_n: exact max over admissible depth-n products of (1/n) log norm.

    Depth-first branch-and-bound over blocks of at most _BLOCK_ROWS
    running products.  Pruning only discards words whose submultiplicative
    upper bound lies below n * lower_hint (less a rounding margin), a
    certified lower bound on the depth-n maximum, so the returned maximum
    is exact and schedule-independent.  `budget` caps the number of words
    (tree nodes) visited over all depths.
    """
    if n < 1:
        raise ValidationError("depth must be >= 1")
    m = A.memory
    nodes, edge_words = build_word_graph(space, m)
    index = {u: i for i, u in enumerate(nodes)}
    step = {w: A.matrix(w) for w in admissible_words(space, m)}
    # (target, source, step matrix) per edge, sorted by target so that
    # children come out sorted by state; with memory 1 the step is the
    # target letter's
    edges = sorted(
        ((index[v], index[u], step[w if m >= 2 else v])
         for (u, v), w in edge_words.items()),
        key=lambda e: e[:2],
    )
    first = sorted((index[w[-max(m - 1, 1):]], w) for w in step)
    P = np.stack([step[w] for _, w in first])
    prune_floor = None
    if lower_hint is not None:
        prune_floor = n * lower_hint - 1e-9 * max(1, n)
        # largest one-step log norm, for the pruning bound
        max_step = float(np.log(np.linalg.svd(P, compute_uv=False)[:, 0]).max())
    logscale = np.zeros(len(first))
    _renormalise_rows(P, logscale)
    # blocks (depth, states, log scales, products), each sorted by state
    stack = [(1, np.array([i for i, _ in first]), logscale, P)]
    state_range = np.arange(len(nodes) + 1)
    best = -math.inf
    count = 0
    while stack:
        k, states, logscale, P = stack.pop()
        count += len(states)
        if count > budget:
            raise BudgetExceededError(f"word budget {budget} exhausted at depth {n}")
        if k == n:
            sigma = np.linalg.svd(P, compute_uv=False)[:, 0]
            best = max(best, float(np.max(logscale + np.log(sigma))))
            continue
        if prune_floor is not None:
            # cheap norm overbound (Frobenius) keeps pruning sound
            frob = 0.5 * np.log(np.einsum("nij,nij->n", P, P))
            keep = logscale + frob >= prune_floor - (n - k) * max_step
            if not keep.all():
                states, logscale, P = states[keep], logscale[keep], P[keep]
        starts = np.searchsorted(states, state_range).tolist()
        targets, sizes, child_ls, child_P = [], [], [], []
        for v, u, M in edges:
            lo, hi = starts[u], starts[u + 1]
            if lo < hi:
                targets.append(v)
                sizes.append(hi - lo)
                child_ls.append(logscale[lo:hi])
                child_P.append(M @ P[lo:hi])
        if not targets:
            continue
        states = np.repeat(targets, sizes)
        logscale = np.concatenate(child_ls)
        P = np.concatenate(child_P)
        _renormalise_rows(P, logscale)
        for lo in range(0, len(states), _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            stack.append((k + 1, states[lo:hi], logscale[lo:hi], P[lo:hi]))
    return best / n


# ---------------------------------------------------------------------------
# the bracket


@dataclass(frozen=True)
class BetaBracket:
    """Certified interval around the maximum ergodic average."""

    lower: float
    upper: float
    n_used: int
    p_used: int
    witness: Cycle
    norm_tag: str = NORM_TAG
    exact: Fraction | None = None
    upper_series: tuple[tuple[int, float], ...] = ()
    lower_series: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValidationError(f"bracket inverted: [{self.lower}, {self.upper}]")

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _additive_bracket(space: ShiftSpace, A: MatrixCocycle) -> BetaBracket:
    pot = A.additive_potential()
    G = critical_graph(space, pot)
    beta = G.beta
    val = float(beta)
    nodes, _ = build_word_graph(space, pot.memory)
    size = len(nodes)
    # the shortest critical cycle, lexicographically least among those
    witness = next(cs[0] for p in range(1, size + 1) if (cs := G.cycles(p)))
    return BetaBracket(
        lower=val,
        upper=val,
        n_used=size,
        p_used=size,
        witness=witness,
        exact=beta if isinstance(beta, Rational) else None,
        upper_series=((size, val),),
        lower_series=((size, val),),
    )


def beta_bracket(
    space: ShiftSpace,
    A: MatrixCocycle,
    n_max: int = DEFAULT_N_MAX,
    p_max: int = DEFAULT_P_MAX,
    gap_tol: float = 1e-9,
    budget: int = DEFAULT_WORD_BUDGET,
) -> BetaBracket:
    """Two-sided bracket [L, U] of the maximum ergodic average.

    Lower bound: best periodic-orbit exponent up to period p_max.  Upper
    bound: min over n <= n_max of the exact depth-n word maximum, with
    branch pruning against the certified lower bound.  Stops early once the
    gap is at most gap_tol.  d = 1 collapses to the exact additive solution.
    """
    _check_bracket_args(n_max, p_max, gap_tol)
    if A.is_additive:
        return _additive_bracket(space, A)
    return _matrix_bracket(space, A, _cycle_exponents(space, A, p_max),
                           n_max, p_max, gap_tol, budget)


def _check_bracket_args(n_max: int, p_max: int, gap_tol: float) -> None:
    if n_max < 1 or p_max < 1:
        raise ValidationError("n_max and p_max must be >= 1")
    if gap_tol <= 0:
        raise ValidationError("gap_tol must be positive")


def _matrix_bracket(space: ShiftSpace, A: MatrixCocycle, exponents: list[tuple[Cycle, float]],
                    n_max: int, p_max: int, gap_tol: float, budget: int) -> BetaBracket:
    """The bracket of `beta_bracket` for d >= 2, from the cycle exponents
    up to p_max."""
    lower_series, witness = _lower_series(exponents)
    best_l = lower_series[-1][1]
    upper_series: list[tuple[int, float]] = []
    best_u = math.inf
    n_used = 1
    for n in range(1, n_max + 1):
        u_n = upper_bound(space, A, n, budget=budget, lower_hint=best_l)
        upper_series.append((n, u_n))
        if u_n < best_u:
            best_u, n_used = u_n, n
        if best_u - best_l <= gap_tol:
            break
    return BetaBracket(
        lower=best_l,
        upper=best_u,
        n_used=n_used,
        p_used=p_max,
        witness=witness,
        upper_series=tuple(upper_series),
        lower_series=tuple(lower_series),
    )


@dataclass(frozen=True)
class OptReport:
    """Bracket plus the periodic orbits that could support maximizing
    measures at the achieved resolution."""

    bracket: BetaBracket
    candidates: tuple[Cycle, ...]
    unique_at_resolution: bool
    slack: float


def matrix_candidates(
    space: ShiftSpace,
    A: MatrixCocycle,
    n_max: int = DEFAULT_N_MAX,
    p_max: int = DEFAULT_P_MAX,
    slack: float = 1e-6,
    gap_tol: float = 1e-9,
    budget: int = DEFAULT_WORD_BUDGET,
) -> OptReport:
    """Candidate optimal cycles: exponent >= lower - slack.

    `unique_at_resolution` is a finite-search verdict, not an exact
    uniqueness statement for matrix cocycles.
    """
    if slack < 0:
        raise ValidationError("slack must be >= 0")
    _check_bracket_args(n_max, p_max, gap_tol)
    exponents = _cycle_exponents(space, A, p_max)
    if A.is_additive:
        bracket = _additive_bracket(space, A)
    else:
        bracket = _matrix_bracket(space, A, exponents, n_max, p_max, gap_tol, budget)
    cands = tuple(c for c, val in exponents if val >= bracket.lower - slack)
    unique = len(cands) == 1 and bracket.gap <= slack
    return OptReport(bracket=bracket, candidates=cands, unique_at_resolution=unique, slack=slack)

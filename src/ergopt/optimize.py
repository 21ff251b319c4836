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

import numpy as np

from . import _graph
from .cocycle import (
    MatrixCocycle,
    ScalarPotential,
    Scalar,
    _renormalise,
    cocycle_log_product,
    op_norm,
    spectral_radius,
)
from .errors import BudgetExceededError, ValidationError
from .shift import Cycle, ShiftSpace, Word, admissible_words, enumerate_cycles

DEFAULT_N_MAX = 24
DEFAULT_P_MAX = 12
DEFAULT_WORD_BUDGET = 10_000_000
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


def karp_beta(space: ShiftSpace, f: ScalarPotential) -> Scalar:
    """Exact maximum ergodic average of a locally constant potential."""
    nodes, edges = build_word_graph(space, f.memory)
    weights = {e: _as_weight(f.table[w]) for e, w in edges.items()}
    beta = _graph.max_cycle_mean(nodes, weights)
    if beta is None:
        raise ValidationError("word graph has no cycle")
    return beta


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
        nodes = self.nodes
        if not nodes or len(self.edges) != len(nodes):
            return False
        outdeg: dict[Node, int] = {v: 0 for v in nodes}
        indeg: dict[Node, int] = {v: 0 for v in nodes}
        for u, v in self.edges:
            outdeg[u] += 1
            indeg[v] += 1
        if any(outdeg[v] != 1 or indeg[v] != 1 for v in nodes):
            return False
        comps = _graph.strongly_connected_components(nodes, self.edges)
        return len(comps) == 1

    def cycles(self, p_max: int | None = None) -> list[Cycle]:
        """Simple cycles of the graph as symbol cycles, (period, word) order."""
        space_cycles = []
        for node_cycle in _graph.simple_cycles(self.nodes, self.edges):
            if p_max is not None and len(node_cycle) > p_max:
                continue
            word = tuple(n[0] for n in node_cycle)
            space_cycles.append(Cycle(min(word[i:] + word[:i] for i in range(len(word)))))
        return sorted(set(space_cycles), key=lambda c: (c.period, c.word))


def critical_graph(space: ShiftSpace, f: ScalarPotential) -> CriticalGraph:
    nodes, edge_words = build_word_graph(space, f.memory)
    weights = {e: _as_weight(f.table[w]) for e, w in edge_words.items()}
    beta = _graph.max_cycle_mean(nodes, weights)
    if beta is None:
        raise ValidationError("word graph has no cycle")
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
    cycles = [c for c in enumerate_cycles(space, p_max) if G.contains_cycle(c)]
    return cycles, G.is_single_cycle()


def relative_beta(space: ShiftSpace, f: ScalarPotential, gamma: ScalarPotential) -> Scalar:
    """max of the gamma-average over the maximizing measures of f.

    Exact: the maximum cycle mean of gamma restricted to the critical graph
    of f.
    """
    m = max(f.memory, gamma.memory)
    f2, g2 = f.lift(m), gamma.lift(m)
    G = critical_graph(space, f2)
    weights = {e: _as_weight(g2.table[w]) for e, w in G.edge_words.items()}
    val = _graph.max_cycle_mean(sorted(G.nodes), weights)
    if val is None:
        raise ValidationError("critical graph has no cycle")
    return val


# ---------------------------------------------------------------------------
# periodic-orbit lower bounds


def cycle_exponent(A: MatrixCocycle, c: Cycle) -> Scalar:
    """Exact exponent of the periodic measure of c.

    (1/p) log spectral radius of the product around the cycle; the mean of
    the additive potential (rational when possible) for d = 1.
    """
    p = c.period
    if A.is_additive:
        pot = A.additive_potential()
        total = sum(pot.value(w) for w in c.windows(pot.memory))
        return Fraction(total) / p if isinstance(total, Rational) else total / p
    logscale, P = cocycle_log_product(A, c.window(0, p + A.memory - 1))
    return (logscale + math.log(spectral_radius(P))) / p


def _cycle_exponents(space: ShiftSpace, A: MatrixCocycle, p_max: int) -> list[tuple[Cycle, float]]:
    """Every primitive cycle of period <= p_max with its exponent, in
    (period, word) order."""
    return [(c, float(cycle_exponent(A, c))) for c in enumerate_cycles(space, p_max)]


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


def _max_step_log_norm(A: MatrixCocycle) -> float:
    return max(A.step_log_norm(w) for w in admissible_words(A.space, A.memory))


def _dfs_max(A: MatrixCocycle, items, n: int, prune_floor: float, max_step: float, budget: int):
    """Exact depth-n maximum of log norm over word extensions of `items`.

    Pruning only discards branches whose submultiplicative upper bound lies
    below `prune_floor`, a certified lower bound on the depth-n maximum, so
    the returned maximum is exact and schedule-independent.
    """
    space, m = A.space, A.memory
    best = -math.inf
    count = 0
    stack = list(items)
    while stack:
        state, steps, logscale, P = stack.pop()
        count += 1
        if count > budget:
            raise BudgetExceededError(f"word budget {budget} exhausted at depth {n}")
        if steps == n:
            val = logscale + math.log(op_norm(P))
            if val > best:
                best = val
            continue
        # cheap norm overbound (Frobenius) keeps pruning sound
        bound = logscale + 0.5 * math.log(float(np.sum(P * P))) + (n - steps) * max_step
        if bound < prune_floor:
            continue
        for b in space.successors(state[-1]):
            w = state + (b,) if m >= 2 else (b,)
            Q, ls = _renormalise(A.matrix(w) @ P, logscale)
            stack.append((w[-max(m - 1, 1):], steps + 1, ls, Q))
    return best


def upper_bound(
    space: ShiftSpace,
    A: MatrixCocycle,
    n: int,
    budget: int = DEFAULT_WORD_BUDGET,
    lower_hint: float | None = None,
) -> float:
    """U_n: exact max over admissible depth-n products of (1/n) log norm."""
    if n < 1:
        raise ValidationError("depth must be >= 1")
    m = A.memory
    max_step = _max_step_log_norm(A)
    prune_floor = -math.inf if lower_hint is None else n * lower_hint - 1e-9 * max(1, n)
    items = [
        (w[-max(m - 1, 1):], 1, 0.0, A.matrix(w))
        for w in admissible_words(space, m)
    ]
    return _dfs_max(A, items, n, prune_floor, max_step, budget) / n


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
    witness = G.cycles()[0]
    nodes, _ = build_word_graph(space, pot.memory)
    size = len(nodes)
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

"""Two-sided bracketing of the maximum ergodic average of a cocycle.

Upper bounds come from maxima of log norms over admissible words at a
fixed depth; lower bounds from spectral radii of products along periodic
orbits.  The additive case (d = 1, Birkhoff averages) is solved exactly as
a maximum cycle mean on the word transition graph, with rational
arithmetic whenever the inputs are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Sequence

import numpy as np

from . import _graph
from .cocycle import (
    MatrixCocycle,
    ScalarPotential,
    Scalar,
    _op_norms,
    _renormalise_rows,
    _row_products,
    _step_rows,
    spectral_radius,
)
from .errors import BudgetExceededError, ShapeMismatchError, ValidationError
from .shift import Cycle, ShiftSpace, Word, _word_index, _WordIndex, connect, enumerate_cycles

DEFAULT_N_MAX = 24
DEFAULT_P_MAX = 12
DEFAULT_WORD_BUDGET = 10_000_000
_BLOCK_ROWS = 4096  # most running products the U_n search holds in one block
NORM_TAG = "spectral-2"

Node = Word


def _edge_weights(index: _WordIndex, f: ScalarPotential) -> tuple[np.ndarray, int | None]:
    """f's weights on the index's edges; f lives on the index's space and memory."""
    if f.space != index.space or f.memory != index.memory:
        raise ShapeMismatchError("the potential's space or memory differs from the word graph's")
    w, L = f._weights
    return w[index.rows], L


def karp_beta(space: ShiftSpace, f: ScalarPotential) -> Scalar:
    """Exact maximum ergodic average of a locally constant potential."""
    index = _word_index(space, f.memory)
    beta = _graph.max_cycle_mean(len(index.nodes), index.tails, index.heads,
                                 *_edge_weights(index, f))
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
    components: tuple[frozenset[Node], ...]
    # the potential's word graph, and the positions of `edges` in its arrays
    index: _WordIndex = field(repr=False, compare=False)
    edge_ids: np.ndarray = field(repr=False, compare=False)

    @property
    def nodes(self) -> frozenset[Node]:
        return frozenset(self.index.nodes[i] for i in self._numbering[0].tolist())

    def contains_cycle(self, c: Cycle) -> bool:
        s = max(self.memory - 1, 1)
        return all((c.window(i, s), c.window(i + 1, s)) in self.edges for i in range(c.period))

    def is_single_cycle(self) -> bool:
        """True iff the graph is exactly one primitive cycle."""
        # strongly connected with as many edges as nodes: every node has
        # exactly one edge out and one in
        return len(self.components) == 1 and len(self.edge_ids) == len(self._numbering[0])

    @cached_property
    def _numbering(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph's one node numbering: the word-graph ids of the nodes its
        edges touch, ascending (so lexicographic), and each edge's tail and
        head as positions in that list, where the edges stay sorted by head."""
        tails, heads = self.index.tails[self.edge_ids], self.index.heads[self.edge_ids]
        used = np.zeros(len(self.index.nodes), dtype=bool)
        used[tails] = used[heads] = True
        label = np.cumsum(used) - 1
        return np.flatnonzero(used), label[tails], label[heads]

    @cached_property
    def _node_shift(self) -> tuple[list[Node], ShiftSpace]:
        """The graph as a shift whose letters are its nodes in lexicographic
        order.  Node sequences then compare as the symbol words they spell."""
        ids, tails, heads = self._numbering
        allowed = np.zeros((len(ids), len(ids)), dtype=bool)
        allowed[tails, heads] = True
        return ([self.index.nodes[i] for i in ids.tolist()],
                ShiftSpace(len(ids), tuple(map(tuple, allowed.tolist()))))

    def cycles(self, p_max: int) -> list[Cycle]:
        """Primitive cycles of period <= p_max lying in the graph, in
        (period, word) order: Lyndon words of the node shift give canonical
        cycles, in order."""
        nodes, node_shift = self._node_shift
        return [Cycle(tuple(nodes[i][0] for i in c.word))
                for c in enumerate_cycles(node_shift, p_max)]

    def shortest_cycle(self) -> Cycle:
        """The shortest cycle of the graph, lexicographically least among
        those: the first shortest `connect(node_shift, s, s)` over the nodes
        s in order.  A closed walk of girth length is a simple cycle, and
        starts at its least node.  O(V (V + E)) by one BFS per node."""
        nodes, node_shift = self._node_shift
        walk = min((connect(node_shift, s, s) for s in range(len(nodes))), key=len)
        return Cycle(tuple(nodes[i][0] for i in walk[:-1]))

    def max_mean(self, g: ScalarPotential) -> Scalar:
        """Greatest mean of g over the cycles of the graph; g lives on the
        graph's space and memory."""
        w, L = _edge_weights(self.index, g)
        # Karp on the graph's own nodes, not on every node of the word graph
        ids, tails, heads = self._numbering
        return _graph.max_cycle_mean(len(ids), tails, heads, w[self.edge_ids], L)


def critical_graph(space: ShiftSpace, f: ScalarPotential) -> CriticalGraph:
    index = _word_index(space, f.memory)
    beta, keep, comp_of = _graph.critical_subgraph(len(index.nodes), index.tails, index.heads,
                                                   *_edge_weights(index, f))
    if beta is None:
        raise ValidationError("word graph has no cycle")
    nodes, tails, heads = index.nodes, index.tails[keep], index.heads[keep]
    # the components of the tight graph that hold a critical edge
    labels = comp_of[tails]
    return CriticalGraph(
        beta=beta,
        memory=f.memory,
        edges=frozenset((nodes[u], nodes[v]) for u, v in zip(tails.tolist(), heads.tolist())),
        components=tuple(frozenset(nodes[u] for u in tails[labels == c].tolist())
                         for c in sorted(set(labels.tolist()))),
        index=index,
        edge_ids=keep,
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


def _cycle_rows(index: _WordIndex, cycles: Sequence[Cycle]) -> list[tuple[list[int], np.ndarray]]:
    """The cycles grouped by period: their positions in `cycles`, and the
    (C, p) array of the index rows of their memory-words, step by step."""
    by_period: dict[int, list[int]] = {}
    for i, c in enumerate(cycles):
        by_period.setdefault(c.period, []).append(i)
    if not by_period:
        return []
    # the windows of every period, looked up in one call
    windows = [np.array([cycles[i].word for i in which])
               [:, (np.arange(p)[:, None] + np.arange(index.memory)) % p].reshape(-1, index.memory)
               for p, which in by_period.items()]
    rows = _step_rows(index, np.concatenate(windows))
    ends = np.cumsum([len(w) for w in windows])
    return [(which, R.reshape(len(which), p))
            for (p, which), R in zip(by_period.items(), np.split(rows, ends[:-1]))]


def _means(w: np.ndarray, L: int | None, groups: list, count: int) -> np.ndarray:
    """The mean of each weight row along the last axis of w, scaled by L
    as `ScalarPotential._weights` scales them, over each of `count` cycles
    grouped by `_cycle_rows`: shape (..., count), exact Fractions for
    integer weights, floats summed in step order otherwise."""
    out = np.empty(w.shape[:-1] + (count,), dtype=float if L is None else object)
    w = w if L is None else w.astype(object)  # Python ints: exact sums of any length
    for which, R in groups:
        p = R.shape[1]
        total = w[..., R[:, 0]]
        for j in range(1, p):
            total += w[..., R[:, j]]
        out[..., which] = total / p if L is None else np.frompyfunc(Fraction, 2, 1)(total, L * p)
    return out


def _exponents(A: MatrixCocycle, cycles: list[Cycle]) -> list[Scalar]:
    """`cycle_exponent` of each cycle, in order."""
    groups = _cycle_rows(_word_index(A.space, A.memory), cycles)
    if A.is_additive:
        return _means(*A.additive_potential()._weights, groups, len(cycles)).tolist()
    values = [0.0] * len(cycles)
    for which, R in groups:
        logscale, P = _row_products(A, R)
        for i, ls, r in zip(which, logscale.tolist(), spectral_radius(P).tolist()):
            values[i] = (ls + math.log(r)) / R.shape[1]
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
    lower_hint: float = -math.inf,
    maxima: Sequence[float] = (),
) -> float:
    """U_n: exact max over admissible depth-n products of (1/n) log norm.

    Depth-first branch-and-bound over blocks of at most _BLOCK_ROWS
    running products.  Pruning only discards words whose submultiplicative
    upper bound lies below n * lower_hint (less a rounding margin), a
    certified lower bound on the depth-n maximum, so the returned maximum
    is exact and schedule-independent; the default hint -inf prunes
    nothing.  A depth-k prefix is dropped when its log Frobenius norm plus
    the look-ahead min((n - k) * max_step, N_{n-k}) lies below that floor:
    ||A_w|| <= ||A_tail|| * ||A_prefix||_F, and the tail is itself an
    admissible (n - k)-step path, whose log norm is at most (n - k) times
    the largest one-step log norm max_step, and at most N_{n-k}.
    `maxima[j - 1]`, when given, must bound N_j, the largest log norm of an
    admissible j-step product (j * U_j).  A NaN or +inf hint is refused,
    and so is a search whose maximum ends below the floor: the hint or
    `maxima` were no bounds.  `budget` caps the number of words (tree
    nodes) visited over all depths.
    """
    if n < 1:
        raise ValidationError("depth must be >= 1")
    if math.isnan(lower_hint) or lower_hint == math.inf:
        raise ValidationError(f"lower_hint must be a lower bound, got {lower_hint}")
    table = A._step_table
    index = table.index
    steps = table.steps
    # (target, source, step row) per edge, sorted by target, so that children
    # come out sorted by state
    edges = list(zip(index.heads.tolist(), index.tails.tolist(), index.rows.tolist()))
    # depth 1: each word, sorted by the node it ends at, the head of the edges
    # that read it (some edge reads every word: each letter lies on a cycle)
    ends = np.empty(len(index.words), dtype=np.intp)
    ends[index.rows] = index.heads
    first = np.argsort(ends, kind="stable")
    P = steps[first]
    prune_floor = n * lower_hint - 1e-9 * max(1, n)
    # reach[j]: the largest log norm a j-step tail can add
    max_step = float(np.log(table.norms).max())
    reach = [j * max_step for j in range(n)]
    for j, top in enumerate(maxima[:n - 1], 1):
        reach[j] = min(reach[j], top)
    logscale = np.zeros(len(first))
    _renormalise_rows(P, logscale)
    # blocks (depth, states, log scales, products), each sorted by state
    stack = [(1, ends[first], logscale, P)]
    state_range = np.arange(len(index.nodes) + 1)
    best = -math.inf
    count = 0
    while stack:
        k, states, logscale, P = stack.pop()
        count += len(states)
        if count > budget:
            raise BudgetExceededError(f"word budget {budget} exhausted at depth {n}")
        if k == n:
            best = max(best, float(np.max(logscale + np.log(_op_norms(P)))))
            continue
        # cheap norm overbound (Frobenius) keeps pruning sound
        frob = 0.5 * np.log(np.einsum("nij,nij->n", P, P))
        keep = logscale + frob >= prune_floor - reach[n - k]
        if not keep.all():
            states, logscale, P = states[keep], logscale[keep], P[keep]
        starts = np.searchsorted(states, state_range).tolist()
        targets, sizes, child_ls, child_P = [], [], [], []
        for v, u, r in edges:
            lo, hi = starts[u], starts[u + 1]
            if lo < hi:
                targets.append(v)
                sizes.append(hi - lo)
                child_ls.append(logscale[lo:hi])
                child_P.append(steps[r] @ P[lo:hi])
        if not targets:
            continue
        states = np.repeat(targets, sizes)
        logscale = np.concatenate(child_ls)
        P = np.concatenate(child_P)
        _renormalise_rows(P, logscale)
        for lo in range(0, len(states), _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            stack.append((k + 1, states[lo:hi], logscale[lo:hi], P[lo:hi]))
    if best < prune_floor:
        raise ValidationError(f"depth-{n} maximum {best / n} lies below the lower "
                              f"hint {lower_hint}: the hint or maxima are not bounds")
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
    G = critical_graph(space, A.additive_potential())
    val, size = float(G.beta), len(G.index.nodes)
    return BetaBracket(
        lower=val, upper=val,
        n_used=size,
        p_used=size,
        witness=G.shortest_cycle(),
        exact=G.beta if isinstance(G.beta, Rational) else None,
        upper_series=((size, val),), lower_series=((size, val),),
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
    if not gap_tol > 0:
        raise ValidationError("gap_tol must be positive")


def _matrix_bracket(space: ShiftSpace, A: MatrixCocycle, exponents: list[tuple[Cycle, float]],
                    n_max: int, p_max: int, gap_tol: float, budget: int) -> BetaBracket:
    """The bracket of `beta_bracket` for d >= 2, from the cycle exponents
    up to p_max."""
    lower_series, witness = _lower_series(exponents)
    best_l = lower_series[-1][1]
    upper_series: list[tuple[int, float]] = []
    # maxima[j - 1] = N_j = j * U_j, padded for rounding: the tail bounds of
    # every deeper search
    maxima: list[float] = []
    best_u = math.inf
    n_used = 1
    for n in range(1, n_max + 1):
        u_n = upper_bound(space, A, n, budget=budget, lower_hint=best_l, maxima=maxima)
        upper_series.append((n, u_n))
        top = n * u_n
        maxima.append(top + 1e-12 * max(1.0, abs(top)))
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
    if not slack >= 0:
        raise ValidationError("slack must be >= 0")
    _check_bracket_args(n_max, p_max, gap_tol)
    exponents = _cycle_exponents(space, A, p_max)
    bracket = (_additive_bracket(space, A) if A.is_additive
               else _matrix_bracket(space, A, exponents, n_max, p_max, gap_tol, budget))
    cands = tuple(c for c, val in exponents if val >= bracket.lower - slack)
    unique = len(cands) == 1 and bracket.gap <= slack
    return OptReport(bracket=bracket, candidates=cands, unique_at_resolution=unique, slack=slack)

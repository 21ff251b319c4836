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
from itertools import chain
from numbers import Rational
from typing import Sequence

import numpy as np

from . import _graph
from .cocycle import (
    MatrixCocycle,
    ScalarPotential,
    Scalar,
    _check_space,
    _op_norms,
    _StepTable,
    _prefix_products,
    _step_rows,
    spectral_radius,
)
from .errors import BudgetExceededError, ShapeMismatchError, ValidationError
from .shift import Cycle, ShiftSpace, Word, _word_index, _WordIndex, connect, enumerate_cycles

DEFAULT_N_MAX = 24
DEFAULT_P_MAX = 12
DEFAULT_WORD_BUDGET = 10_000_000
DEFAULT_GAP_TOL = 1e-9
_BLOCK_ROWS = 4096  # most running products the U_n search holds in one block
NORM_TAG = "spectral-2"

Node = Word


def _edge_weights(index: _WordIndex, f: ScalarPotential) -> tuple[np.ndarray, int | None]:
    """f's weights on the index's edges; f lives on the index's space and memory."""
    if f.space != index.space or f.memory != index.memory:
        raise ShapeMismatchError("the potential's space or memory differs from the word graph's")
    return f.row[index.rows], f.L


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
        memory=index.memory,
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
    the additive potential (rational when possible) for d = 1.  The cycles
    share the products of their common prefixes of steps, and one
    spectral-radius call takes all of their products.
    """
    cycles = [c] if isinstance(c, Cycle) else list(c)
    if not cycles:
        return []
    layout = _cycle_rows(_word_index(A.space, A.memory), cycles)
    if A.is_additive:
        f = A.additive_potential()
        values = _means(f.row, f.L, layout).tolist()
    else:
        logscale, P = _prefix_products(A._step_table.steps, *layout)
        radii = spectral_radius(P)
        if not radii.all():
            # the steps are invertible: rounding took the radius to 0
            bad = cycles[int(radii.argmin())]
            raise ValidationError(f"the product around cycle {bad} rounds to a nilpotent "
                                  "matrix in float64, so its spectral radius is lost")
        values = [(ls + math.log(r)) / p
                  for ls, r, p in zip(logscale.tolist(), radii.tolist(), layout[1].tolist())]
    return values[0] if isinstance(c, Cycle) else values


def _cycle_rows(index: _WordIndex, cycles: Sequence[Cycle]) -> tuple[np.ndarray, np.ndarray]:
    """The step-row layout of one or more cycles: the (C, p) array, p their
    longest period, whose row c holds the index rows of cycle c's
    memory-words step by step and then -1, and the periods (C,)."""
    words = [c.word for c in cycles]
    periods = list(map(len, words))
    if not min(periods):
        raise ValidationError("a cycle needs a nonempty word")
    per, width = np.array(periods), max(periods)
    letters = np.fromiter(chain.from_iterable(words), dtype=np.intp, count=sum(periods))
    # each cycle's letters wrapped round to width + m, so that `_step_rows`
    # also reads the wrap of the longest
    start = np.cumsum(per) - per
    wrapped = letters[np.arange(width + index.memory) % per[:, None] + start[:, None]]
    rows = _step_rows(index, wrapped)[:, :width]
    rows[np.arange(width) >= per[:, None]] = -1
    return rows, per


def _means(w: np.ndarray, L: int | None, layout: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The mean of each weight row along the last axis of w, scaled by L
    as `ScalarPotential.row` is scaled, over each cycle of a
    `_cycle_rows` layout: shape (..., C), exact Fractions for integer
    weights, floats summed in step order otherwise, refused when a sum
    could leave float64."""
    R, per = layout
    if L is None and R.shape[1] * float(np.abs(w).max(initial=0.0)) >= _graph._FLOAT_SUMS:
        raise ValidationError(f"float weights this large can overflow float64 in the sums "
                              f"over cycles of period {R.shape[1]}")
    w = w if L is None else w.astype(object)  # Python ints: exact sums of any length
    total = w[..., R[:, 0]]
    for j in range(1, R.shape[1]):
        live = per > j
        total[..., live] += w[..., R[live, j]]
    return (total / per if L is None
            else np.frompyfunc(Fraction, 2, 1)(total, L * per.astype(object)))


def _cycle_exponents(space: ShiftSpace, A: MatrixCocycle,
                     p_max: int) -> tuple[list[Cycle], np.ndarray]:
    """Every primitive cycle of period <= p_max, in (period, word) order,
    and their exponents."""
    cycles = enumerate_cycles(space, p_max)
    return cycles, np.array(cycle_exponent(A, cycles), dtype=float)


def _lower_series(cycles: list[Cycle], values: np.ndarray) -> tuple[list[tuple[int, float]], Cycle]:
    """Best exponent up to each period present, and the first cycle that
    attains the overall best, of cycles in (period, word) order: ties go
    to the shorter period, then to the lexicographically least word."""
    if not cycles:
        raise ValidationError("no admissible cycle up to p_max")
    per = np.fromiter((len(c.word) for c in cycles), dtype=np.intp, count=len(cycles))
    last = np.flatnonzero(np.diff(per, append=0))  # the last cycle of each period
    best = np.maximum.accumulate(values)[last]
    return list(zip(per[last].tolist(), best.tolist())), cycles[int(values.argmax())]


def lower_bound_cycles(space: ShiftSpace, A: MatrixCocycle, p_max: int) -> tuple[float, Cycle]:
    """Best periodic-orbit exponent over primitive cycles of period <= p_max.

    Ties broken by (shorter period, lexicographically least canonical word).
    """
    _check_space(space, A)
    series, witness = _lower_series(*_cycle_exponents(space, A, p_max))
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

    Depth-first branch-and-bound over the word tree of A's step table, in
    blocks of at most _BLOCK_ROWS words.  The tree keeps the products that
    earlier searches on A grew, up to a fixed number of words, so a run of
    depths or hints on one cocycle forms each product once.  Each search
    prunes with its own floor and counts its own words, and its value is
    bit for bit that of a search on a new cocycle.  Pruning only discards
    words whose submultiplicative upper bound lies below n * lower_hint
    (less a rounding margin), a certified lower bound on the depth-n
    maximum, so the returned maximum is exact and schedule-independent;
    the default hint -inf prunes nothing.  A depth-k prefix is dropped
    when its log Frobenius norm plus the look-ahead min((n - k) * max_step,
    N_{n-k}) lies below that floor: ||A_w|| <= ||A_tail|| * ||A_prefix||_F,
    and the tail is itself an admissible (n - k)-step path, whose log norm
    is at most (n - k) times the largest one-step log norm max_step, and at
    most N_{n-k}.
    `maxima[j - 1]`, when given, must bound N_j, the largest log norm of an
    admissible j-step product (j * U_j).  A NaN or +inf hint is refused,
    and so is a search whose maximum ends below the floor: the hint or
    `maxima` were no bounds.  `budget` caps the number of words (tree
    nodes) visited over all depths.
    """
    _check_space(space, A)
    if n < 1:
        raise ValidationError("depth must be >= 1")
    if math.isnan(lower_hint) or lower_hint == math.inf:
        raise ValidationError(f"lower_hint must be a lower bound, got {lower_hint}")
    table = A._step_table
    floors = _floors(n, lower_hint, float(np.log(table.norms).max()), maxima[:n - 1]).tolist()
    return _search(table, n, budget, floors) / n


def _floors(n: int, lower, max_step, maxima) -> np.ndarray:
    """floors[j], j < n: the depth-n floor n * lower, less a rounding margin
    and less the largest log norm a j-step tail can add, min(j * max_step,
    maxima[j - 1]).  Scalars give shape (n,); lower and max_step of shape
    (S,) with maxima of shape (n - 1, S) give one column per sample."""
    reach = np.multiply.outer(np.arange(n), max_step)
    reach[1:len(maxima) + 1] = np.minimum(reach[1:len(maxima) + 1], maxima)
    return n * lower - 1e-9 * n - reach


def _search(table: _StepTable, n: int, budget: int, floors,
            eta: np.ndarray | None = None) -> float | np.ndarray:
    """The U_n search: the largest log norm of an admissible n-step product
    of the step table, depth-first over blocks of at most _BLOCK_ROWS words
    of its word tree.  A depth-k word is dropped when its log Frobenius
    norm lies below floors[n - k] (`upper_bound` says when that is sound),
    and a maximum below floors[0] is refused: the floors were no bounds.
    `budget` caps the words visited over the whole search, whether they
    were grown in it or read from the tree.

    Every block is ascending positions in one level, and every level
    carries its words' bounds, so a block is pruned against this search's
    own floors whoever grew it.  The tree decides where the children of
    the kept words come from (`_WordTree.children`): those earlier searches
    grew, those grown into the tree, and past its cap those grown for this
    search alone.  Every product comes from the same operations in the
    same order, so the maximum does not depend on which searches ran
    before.

    `eta` (S, E) makes it one search for the cocycles e^{eta_s} A of its
    rows s, returning their (S,) maxima.  e^{eta_s} A_w = e^{eta_s . w} A_w,
    so each word of a block carries the S eta-sums of its word, its
    parent's sums plus the eta of its last step.  Sample s drops a word
    below floors[n - k, s], and an eta-sum of -inf marks the words it
    dropped, so that their extensions stay dropped for it.  A word stays
    while any sample keeps it.  `budget` caps the words of each sample, as
    in its own search.  A block holds at most _BLOCK_ROWS * d^2 // S words
    (at least one), so that its S eta-sums per word take no more room than
    a single search's block of d x d products.
    """
    tree = table.tree
    first = tree.levels[0]
    if eta is None:
        sums, best, count = None, -math.inf, 0
    else:
        sums = eta[:, first.step]
        best, count = np.full(len(eta), -math.inf), np.zeros(len(eta), int)
    rows = _BLOCK_ROWS if eta is None else max(1, _BLOCK_ROWS * table.steps[0].size // len(eta))
    # blocks (depth, level, the block's ascending positions in it, eta-sums)
    stack = [(1, first, np.arange(len(first.states)), sums)]
    while stack:
        k, level, pos, sums = stack.pop()
        count += len(pos) if sums is None else np.isfinite(sums).sum(axis=1)
        if (count if sums is None else count.max()) > budget:
            raise BudgetExceededError(f"word budget {budget} exhausted at depth {n}")
        if k == n:
            top = level.logscale[pos] + np.log(_op_norms(level.P.take(pos, axis=0)))
            if sums is None:
                best = max(best, float(np.max(top)))
            else:
                best = np.maximum(best, (top + sums).max(axis=1))
            continue
        if sums is None:
            keep = level.bound[pos] >= floors[n - k]
        else:
            kept = level.bound[pos] + sums >= floors[n - k][:, None]
            sums = np.where(kept, sums, -math.inf)
            keep = kept.any(axis=0)
        if not keep.all():
            pos = pos[keep]
            if sums is not None:
                sums = sums[:, keep]
            if not len(pos):
                continue
        for child, at in tree.children(k, level, pos):
            if sums is not None:
                # pos ascends, so each child's parent is found in it
                child_sums = sums[:, pos.searchsorted(child.parent[at])] + eta[:, child.step[at]]
            for lo in range(0, len(at), rows):
                stack.append((k + 1, child, at[lo:lo + rows],
                              None if sums is None else child_sums[:, lo:lo + rows]))
    if np.any(best < floors[0]):
        raise ValidationError(f"a depth-{n} maximum lies below n * lower_hint: "
                              f"the lower hint or maxima are not bounds")
    return best


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
    gap_tol: float = DEFAULT_GAP_TOL,
    budget: int = DEFAULT_WORD_BUDGET,
) -> BetaBracket:
    """Two-sided bracket [L, U] of the maximum ergodic average.

    Lower bound: best periodic-orbit exponent up to period p_max.  Upper
    bound: min over n <= n_max of the exact depth-n word maximum, with
    branch pruning against the certified lower bound.  Stops early once the
    gap is at most gap_tol.  d = 1 collapses to the exact additive solution.
    """
    _check_space(space, A)
    _check_bracket_args(n_max, p_max, gap_tol)
    if A.is_additive:
        return _additive_bracket(space, A)
    return _matrix_bracket(space, A, *_cycle_exponents(space, A, p_max),
                           n_max, p_max, gap_tol, budget)


def _check_bracket_args(n_max: int, p_max: int, gap_tol: float, slack: float = 0.0) -> None:
    if not slack >= 0:
        raise ValidationError("slack must be >= 0")
    if n_max < 1 or p_max < 1:
        raise ValidationError("n_max and p_max must be >= 1")
    if not gap_tol > 0:
        raise ValidationError("gap_tol must be positive")


def _matrix_bracket(space: ShiftSpace, A: MatrixCocycle, cycles: list[Cycle], values: np.ndarray,
                    n_max: int, p_max: int, gap_tol: float, budget: int) -> BetaBracket:
    """The bracket of `beta_bracket` for d >= 2, from the cycles up to
    p_max and their exponents."""
    lower_series, witness = _lower_series(cycles, values)
    best_l = lower_series[-1][1]
    uppers = _upper_ends(A, np.array([best_l]), n_max, gap_tol, budget)[:, 0]
    n_used = int(uppers.argmin()) + 1
    upper_series = tuple(enumerate(uppers.tolist(), 1))
    return BetaBracket(
        lower=best_l,
        upper=upper_series[n_used - 1][1],
        n_used=n_used,
        p_used=p_max,
        witness=witness,
        upper_series=upper_series,
        lower_series=tuple(lower_series),
    )


def _upper_ends(A: MatrixCocycle, lowers: np.ndarray, n_max: int,
                gap_tol: float = DEFAULT_GAP_TOL, budget: int = DEFAULT_WORD_BUDGET,
                eta: np.ndarray | None = None) -> np.ndarray:
    """U_n of A, or of each cocycle e^{eta_s} A over the rows s of eta
    (S, E), for n = 1, 2, ...: one row per depth run, one column per
    cocycle, whose lower end is lowers[s].  Each search prunes with its own
    floor n * lowers[s] and its own tails N_j = j * U_j, padded by
    1e-12 * max(1, |N_j|) for rounding.  A column stops at its first depth
    whose gap min U - lowers[s] is at most gap_tol and reads NaN after it;
    the rows end when every column has stopped.  Without eta, lowers has
    one entry, A's own, and `upper_bound` runs each depth; with eta one
    `_search` per depth serves every column still open."""
    # each sample's largest one-step log norm, as its own bracket keeps it
    max_step = None if eta is None else (np.log(A._step_table.norms) + eta).max(axis=1)
    uppers = np.full((n_max, len(lowers)), math.nan)
    maxima = np.empty_like(uppers)  # maxima[j - 1] = N_j, padded
    open_ = np.arange(len(lowers))
    for n in range(1, n_max + 1):
        if eta is None:
            u_n = upper_bound(A.space, A, n, budget, lowers[0], maxima[:n - 1, 0])
        else:
            floors = _floors(n, lowers[open_], max_step[open_], maxima[:n - 1, open_])
            u_n = _search(A._step_table, n, budget, floors, eta[open_]) / n
        top = n * u_n
        uppers[n - 1, open_] = u_n
        maxima[n - 1, open_] = top + 1e-12 * np.maximum(1.0, np.abs(top))
        # an open column has a U at every depth so far
        open_ = open_[uppers[:n, open_].min(axis=0) - lowers[open_] > gap_tol]
        if not len(open_):
            break
    return uppers[:n]


@dataclass(frozen=True)
class OptReport:
    """Bracket plus the periodic orbits that could support maximizing
    measures at the achieved resolution."""

    bracket: BetaBracket
    candidates: tuple[Cycle, ...]
    exponents: tuple[float, ...]  # the candidates', in order
    unique_at_resolution: bool
    slack: float


def matrix_candidates(
    space: ShiftSpace,
    A: MatrixCocycle,
    n_max: int = DEFAULT_N_MAX,
    p_max: int = DEFAULT_P_MAX,
    slack: float = 1e-6,
    gap_tol: float = DEFAULT_GAP_TOL,
    budget: int = DEFAULT_WORD_BUDGET,
) -> OptReport:
    """Candidate optimal cycles: exponent >= lower - slack.

    `unique_at_resolution` is a finite-search verdict, not an exact
    uniqueness statement for matrix cocycles.
    """
    _check_space(space, A)
    _check_bracket_args(n_max, p_max, gap_tol, slack)
    cycles, values = _cycle_exponents(space, A, p_max)
    bracket = (_additive_bracket(space, A) if A.is_additive
               else _matrix_bracket(space, A, cycles, values, n_max, p_max, gap_tol, budget))
    keep = np.flatnonzero(values >= bracket.lower - slack)
    cands = tuple(cycles[i] for i in keep.tolist())
    unique = len(cands) == 1 and bracket.gap <= slack
    return OptReport(bracket=bracket, candidates=cands, exponents=tuple(values[keep].tolist()),
                     unique_at_resolution=unique, slack=slack)

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

    One depth-first branch-and-bound (`_search`) serves the run of depths
    a + 1, ..., n, a = min(len(maxima), n - 1), over the word tree of A's
    step table, in blocks of at most _BLOCK_ROWS words.  The tree keeps
    the products that earlier searches on A grew, up to a fixed number of
    words, so the runs or hints on one cocycle form each product once.
    Each search prunes with its own floors and counts its own words, and
    its value is bit for bit that of a search on a new cocycle.  It leaves
    the largest log norm N_m of each depth m of the run on the step table
    (`_StepTable.maxima`, NaN for a depth over the budget), exact and
    independent of the hint; this function never reads them.

    Pruning only discards words whose submultiplicative upper bound lies
    below m * lower_hint (less a rounding margin), a certified lower bound
    on the depth-m maximum, so every maximum is exact and
    schedule-independent; the default hint -inf prunes nothing.  A depth-k
    prefix is dropped for depth m when its log Frobenius norm plus the
    look-ahead T(m - k) lies below that floor: ||A_w|| <= ||A_tail|| *
    ||A_prefix||_F, and the tail is itself an admissible (m - k)-step
    path, whose log norm T bounds (`_floors`) from the largest one-step
    log norm and the given maxima.  `maxima[j - 1]`, when given, must
    bound N_j, the largest log norm of an admissible j-step product
    (j * U_j).  A NaN or +inf hint is refused, and so is a search with a
    depth whose maximum ends below its floor: the hint or `maxima` were no
    bounds.  `budget` caps the number of words (tree nodes) the search of
    each depth visits over all its depths; BudgetExceededError is raised
    when depth n passes it.
    """
    _check_space(space, A)
    if n < 1:
        raise ValidationError("depth must be >= 1")
    if math.isnan(lower_hint) or lower_hint == math.inf:
        raise ValidationError(f"lower_hint must be a lower bound, got {lower_hint}")
    table = A._step_table
    lo = min(len(maxima), n - 1)
    floors = _floors(lo, n, lower_hint, float(np.log(table.norms).max()), maxima[:lo])
    tops = _search(table, lo, n, budget, floors).tolist()
    table.maxima.update(zip(range(lo + 1, n + 1), tops))
    if math.isnan(tops[-1]):
        raise BudgetExceededError(f"word budget {budget} exhausted at depth {n}")
    return tops[-1] / n


def _floors(lo: int, n: int, lower, max_step, maxima) -> np.ndarray:
    """floors[i, j], j < n: the floor of depth m = lo + 1 + i, m * lower
    less a rounding margin, less T(j), the largest log norm a j-step tail
    can add.  From maxima[j - 1] >= N_j, j <= lo,

        T(j) = min(j * max_step, N_j for j <= lo,
                   min_{i <= lo} (floor(j / i) * N_i + N_{j mod i}) for j > lo),

    as a (j + i)-step path is a j-step path then an i-step one, and norms
    are submultiplicative.  Scalars give shape (n - lo, n); lower and
    max_step of shape (S,) with maxima of shape (lo, S) give one column
    per sample, (n - lo, n, S)."""
    reach = np.multiply.outer(np.arange(n), max_step)
    if lo:
        reach[1:lo + 1] = np.minimum(reach[1:lo + 1], maxima)
        N = np.concatenate([np.zeros_like(reach[:1]), maxima])  # N[j], N_0 = 0
        j, i = np.arange(lo + 1, n)[:, None], np.arange(1, lo + 1)
        q = (j // i).reshape((n - lo - 1, lo) + (1,) * (N.ndim - 1))
        reach[lo + 1:] = np.minimum(reach[lo + 1:], (q * N[i] + N[j % i]).min(axis=1))
    m = np.arange(lo + 1, n + 1).reshape((-1,) + (1,) * reach.ndim)
    return m * lower - 1e-9 * m - reach


def _search(table: _StepTable, lo: int, n: int, budget: int, floors: np.ndarray,
            eta: np.ndarray | None = None) -> np.ndarray:
    """The U_m searches of the depths m = lo + 1 ... n in one: the largest
    log norm of an admissible m-step product of the step table for each,
    NaN for a depth whose words passed the budget, depth-first over blocks
    of at most _BLOCK_ROWS words of its word tree.

    Each word carries a live mask, one column per depth, that says whose
    search it lies in.  A depth-k word leaves the search of depth m > k
    when its log Frobenius norm lies below floors[m - lo - 1, m - k]
    (`upper_bound` says when that is sound), and a word no search keeps is
    dropped.  The depth-m words live for m are scored with one `_op_norms`
    call per block.  A maximum below floors[m - lo - 1, 0] is refused: the
    floors were no bounds.  `budget` caps the words of each depth's own
    search, whether they were grown in this pass or read from the tree: a
    depth over it leaves the pass, and the others go on.  A run of one
    depth is the search of that depth alone.

    Every block is ascending positions in one level, and every level
    carries its words' bounds, so a block is pruned against this pass's
    own floors whoever grew it.  The tree decides where the children of
    the kept words come from (`_WordTree.children`): those earlier searches
    grew, those grown into the tree, and past its cap those grown for this
    pass alone.  Every product comes from the same operations in the same
    order, so no maximum depends on which searches ran before.

    `eta` (S, E) makes it one pass for the cocycles e^{eta_s} A of its
    rows s, with one mask column per (depth, sample) and (n - lo, S)
    maxima.  e^{eta_s} A_w = e^{eta_s . w} A_w, so each word of a block
    carries the S eta-sums of its word, its parent's sums plus the eta of
    its last step, and sample s drops a word for depth m below
    floors[m - lo - 1, m - k, s].  A block holds at most
    _BLOCK_ROWS * d^2 // S words (at least one), so that its S eta-sums per
    word take no more room than a single search's block of d x d products.
    """
    tree = table.tree
    first = tree.levels[0]
    depths = np.arange(lo + 1, n + 1)
    # cut[k]: each depth's floor for a depth-k word, whose tail has m - k steps
    cut = floors[np.arange(len(depths)), np.clip(depths - np.arange(n)[:, None], 0, n - 1)]
    columns = floors.shape[:1] + floors.shape[2:]
    best, count = np.full(columns, -math.inf), np.zeros(columns, int)
    spent = np.zeros(columns + (1,), dtype=bool)
    cut = cut[..., None]
    if eta is None:
        sums, rows = None, _BLOCK_ROWS
    else:
        sums, rows = eta[:, first.step], max(1, _BLOCK_ROWS * table.steps[0].size // len(eta))
    # blocks (depth, level, the block's ascending positions in it, live
    # masks, eta-sums), the last axis of a mask or of the sums one per word
    stack = [(1, first, np.arange(len(first.states)),
              np.ones(columns + (len(first.states),), dtype=bool), sums)]
    words = 0  # the words of every block, a bound on each depth's count
    while stack:
        k, level, pos, live, sums = stack.pop()
        if words > budget:
            live &= ~spent
        count += live.sum(axis=-1)
        words += len(pos)
        if words > budget and count.max() > budget:
            spent[count > budget] = True
            live &= ~spent
        if k > lo:
            i = k - lo - 1
            at = live[i] if eta is None else live[i].any(axis=0)
            scored = pos[at]
            if len(scored):
                top = level.logscale[scored] + np.log(_op_norms(level.P.take(scored, axis=0)))
                if eta is None:
                    best[i] = max(best[i], top.max())
                else:
                    best[i] = np.maximum(best[i], np.where(live[i][:, at], top + sums[:, at],
                                                           -math.inf).max(axis=1))
            if k == n:
                continue
            live[i] = False
        live &= (level.bound[pos] if eta is None else level.bound[pos] + sums) >= cut[k]
        keep = live.reshape(-1, len(pos)).any(axis=0)
        if not keep.all():
            pos, live = pos[keep], live[..., keep]
            if eta is not None:
                sums = sums[:, keep]
            if not len(pos):
                continue
        for child, at, parent in tree.children(k, level, pos):
            child_live = live.take(parent, axis=-1)
            if eta is not None:
                child_sums = sums[:, parent] + eta[:, child.step[at]]
            for start in range(0, len(at), rows):
                stack.append((k + 1, child, at[start:start + rows],
                              child_live[..., start:start + rows],
                              None if eta is None else child_sums[:, start:start + rows]))
    spent = spent[..., 0]
    low = ~spent & (best < floors[:, 0])
    if low.any():
        m = lo + 1 + int(np.argwhere(low)[0, 0])
        raise ValidationError(f"a depth-{m} maximum lies below {m} * lower_hint: "
                              f"the lower hint or maxima are not bounds")
    best[spent] = math.nan
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
    (S, E), for n = 1, 2, ...: one row per depth, one column per cocycle,
    whose lower end is lowers[s].  The depths come in runs (a, b] that end
    at 1, 2, 4, 8, ..., n_max, one search each: without eta, lowers has
    one entry, A's own, and `upper_bound` searches the run and leaves its
    maxima on the step table; with eta one `_search` of the run serves
    every column still open when it starts.  Each prunes with its own
    floor n * lowers[s] and its own tails from the depth maxima N_j before
    the run, padded by 1e-12 * max(1, |N_j|) for rounding (`_floors`).
    Then the run is read depth by depth: a column stops at its first depth
    whose gap min U - lowers[s] is at most gap_tol and reads NaN after it,
    what the run found past that is dropped, and the rows end when every
    column has stopped.  A depth over the word budget in a column still
    open is refused."""
    table = A._step_table
    # each sample's largest one-step log norm, as its own bracket keeps it
    max_step = None if eta is None else (np.log(table.norms) + eta).max(axis=1)
    uppers = np.full((n_max, len(lowers)), math.nan)
    maxima = np.empty_like(uppers)  # maxima[j - 1] = N_j, padded
    open_ = np.arange(len(lowers))
    a = 0
    while a < n_max:
        b = min(2 * a or 1, n_max)
        tops = np.full((b - a, len(lowers)), math.nan)
        if eta is None:
            try:
                upper_bound(A.space, A, b, budget, lowers[0], maxima[:a, 0])
            except BudgetExceededError:
                pass  # the run's depths within the budget are on the table
            tops[:, 0] = [table.maxima[n] for n in range(a + 1, b + 1)]
        else:
            floors = _floors(a, b, lowers[open_], max_step[open_], maxima[:a, open_])
            tops[:, open_] = _search(table, a, b, budget, floors, eta[open_])
        for n in range(a + 1, b + 1):
            top = tops[n - a - 1, open_]
            if np.isnan(top).any():
                raise BudgetExceededError(f"word budget {budget} exhausted at depth {n}")
            uppers[n - 1, open_] = top / n
            maxima[n - 1, open_] = top + 1e-12 * np.maximum(1.0, np.abs(top))
            # an open column has a U at every depth so far
            open_ = open_[uppers[:n, open_].min(axis=0) - lowers[open_] > gap_tol]
            if not len(open_):
                return uppers[:n]
        a = b
    return uppers


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

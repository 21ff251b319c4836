"""Weighted-digraph internals: maximum cycle mean and critical subgraphs.

A graph is a node count n and edge arrays: tails `src` and heads `dst` in
0..n-1, sorted by head, and a weight array as `_weights` makes it.
Rational weights are scaled by the lcm L of their denominators to
integers: int64 when the input bounds every sum the kernels form, Python
ints in object arrays otherwise.  Float weights run in float64, where each
relaxation is one add and an exact max, as in a loop over the edges; float
weights whose sums could leave float64 are refused (`ScalarPotential`).

Both routines read one Karp walk table, `_walks`, of walks from every
node (as from a virtual source joined to each), so any digraph will do
(Karp 1978).  Each walk length is one gather, add and reduceat over all
edges.  An entry no walk reaches sits at a floor: -inf for floats, for
integers F = -2 (n + 1)(B + 1) with B = max |w|.  A walk of k <= n edges
weighs at least -n B > F / 2, an entry grown from F at most F + n B <
F / 2, and none wraps: `_int_dtype` gives (n + 1) B < 2^61, so F - n B >
-3 (n + 1)(B + 1) > -2^63.  `max_cycle_mean` applies Karp's formula, its
exact minimum over k by halving; `critical_subgraph` also reads potentials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import ValidationError

# half the largest float64: float weights are refused when a value formed
# from them could reach it
_FLOAT_SUMS = 2.0 ** 1023
_TOL = 1e-9  # float weights: how far from a potential difference an edge is still tight


def strongly_connected_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The strongly connected component of each node 0..n-1 of the graph
    with edges src -> dst, numbered as found.  Tarjan's algorithm, with an
    explicit stack so that long paths hit no recursion limit."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(src.tolist(), dst.tolist()):
        succ[u].append(v)
    index = [-1] * n  # -1 until visited; n, above all others, once placed
    low = [0] * n
    comp = [0] * n
    path: list[int] = []  # visited nodes not yet in a component
    work = []  # the DFS: (node, iterator over its unexplored successors)
    seen = found = 0

    def visit(v: int) -> None:
        nonlocal seen
        index[v] = low[v] = seen
        seen += 1
        path.append(v)
        work.append((v, iter(succ[v])))

    for root in range(n):
        if index[root] < 0:
            visit(root)
        while work:
            v, todo = work[-1]
            for w in todo:
                if index[w] < 0:
                    visit(w)
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while index[v] < n:
                        w = path.pop()
                        index[w], comp[w] = n, found
                    found += 1
    return np.array(comp, dtype=np.intp)


def _int_dtype(n: int, big: int):
    """int64 when (n + 1)^2 big < 2^62, for big >= every |weight|; Python
    ints otherwise.  Walk weights of at most n edges, their differences
    times a length <= n, the potentials and the tightness sums then stay
    within 2 (n + 1)^2 big < 2^63, and the walk table's floor above -2^63."""
    return np.int64 if (n + 1) ** 2 * big < 2**62 else object


def _floats(values) -> np.ndarray:
    """The values in float64, each rounded once as float() rounds it, so a
    rational p/q as p / q; a value past float64 is refused."""
    try:
        return np.fromiter(values, dtype=np.float64)
    except OverflowError:
        raise ValidationError("a value lies past the range of float64") from None


def _weights(values: list, n: int) -> tuple[np.ndarray, int | None]:
    """Weights of a graph on n nodes for the kernels: rational values times
    the lcm L of their denominators, and L; float64 and None when any value
    is a float."""
    if not all(isinstance(x, Rational) for x in values):
        return _floats(values), None
    L = math.lcm(*(x.denominator for x in values))
    ints = [int(x.numerator) * (L // x.denominator) for x in values]
    return np.array(ints, dtype=_int_dtype(n, max(map(abs, ints), default=0))), L


def _walks(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Karp's walk table for k = 0..n: D[k, v], the largest weight of a
    k-edge walk ending at v, where reached[k, v] says one exists, else 0.
    Walks start at every node (D[0] = 0); reached[k] lies inside reached[k-1]."""
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    heads = dst[starts]
    # half the floor F of the module docstring: walks above, the floor's growth below
    cut = -np.inf if w.dtype.kind == "f" else -(n + 1) * (int(np.abs(w).max(initial=0)) + 1)
    D = np.full((n + 1, n), 2 * cut, dtype=w.dtype)
    D[0] = 0
    for k in range(1, n + 1):
        D[k, heads] = np.maximum.reduceat(D[k - 1].take(src) + w, starts)
    reached = D > cut
    D[~reached] = 0
    return D, reached


def _karp(n: int, D: np.ndarray, reached: np.ndarray):
    """Karp's maximum cycle mean over a walk table: a float for float
    weights, else a Fraction; None when no n-edge walk, and so no cycle,
    exists."""
    last = reached[n]
    if not last.any():
        return None
    # max over v of min over k of (D[n, v] - D[k, v]) / (n - k); a walk
    # counted in D[n, v] ends with a k-edge walk for every k
    if D.dtype.kind == "f":
        means = (D[n] - D[:n]) / np.arange(n, 0, -1)[:, None]
        return float(means.min(axis=0)[last].max())
    # the least num / den by halving: row i meets row m - h + i by cross-
    # multiplication and keeps the lesser; an odd m's middle row waits
    num, den, m = D[n] - D[:n], np.arange(n, 0, -1).repeat(n).reshape(n, n), n
    while m > 1:
        h = m // 2
        take = num[m - h:m] * den[:h] < num[:h] * den[m - h:m]
        np.copyto(num[:h], num[m - h:m], where=take)
        np.copyto(den[:h], den[m - h:m], where=take)
        m -= h
    return max(map(Fraction, num[0, last].tolist(), den[0, last].tolist()))


def max_cycle_mean(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray, L: int | None):
    """Karp's maximum cycle mean.

    Returns None when the graph has no cycle.  Exact, as a Fraction, for
    integer weights scaled by L; a float for float weights (L None).
    """
    mean = _karp(n, *_walks(n, src, dst, w))
    return mean if mean is None or L is None else mean / L


def critical_subgraph(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray, L: int | None):
    """The maximum cycle mean beta as `max_cycle_mean` gives it (None when
    there is no cycle), the positions of the edges lying on some cycle of
    mean exactly beta, and the strongly connected component of each node
    in the graph of tight edges.

    With beta L = num / den, every reduced cycle weight under den w - num
    is <= 0.  So the largest reduced weight of a walk into v, the fixed
    point of a Bellman-Ford pass from every node, is reached within n
    edges: phi(v) = max_k (den D[k, v] - k num).  An edge is tight when
    phi[src] + den w - num == phi[dst], within _TOL for float weights.
    """
    D, reached = _walks(n, src, dst, w)
    mean = _karp(n, D, reached)
    if mean is None:
        return None, np.empty(0, dtype=np.intp), np.arange(n)
    num, den = (mean, 1) if L is None else (mean.numerator, mean.denominator)
    k = np.arange(n + 1, dtype=w.dtype)[:, None]
    phi = np.where(reached, den * D - k * num, 0).max(axis=0)  # k = 0 gives 0
    # compared with phi[dst], not subtracted from it: in int64 the
    # difference could wrap, where the sum stays inside `_int_dtype`'s bound
    into = phi[src] + (den * w - num)
    tight = np.flatnonzero(into == phi[dst] if L is not None else np.abs(into - phi[dst]) <= _TOL)
    comp_of = strongly_connected_components(n, src[tight], dst[tight])
    # an edge inside one strongly connected component of the tight graph
    # always lies on a tight cycle; any other tight edge is transient
    beta = mean if L is None else mean / L
    return beta, tight[comp_of[src[tight]] == comp_of[dst[tight]]], comp_of

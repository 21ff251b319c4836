"""Weighted-digraph internals: maximum cycle mean and critical subgraphs.

A graph is a node count n and edge arrays: tails `src` and heads `dst` in
0..n-1, sorted by head, and a weight array as `_weights` makes it.
Rational weights are scaled by the lcm L of their denominators to
integers: int64 when the input bounds every sum the kernels form, Python
ints in object arrays otherwise.  Float weights run in float64, where each
relaxation is one add and an exact max, as in a loop over the edges; float
weights whose sums could leave float64 are refused.

Both routines read one Karp walk table, `_walks`, built by one max-plus
kernel, `_relax`.  Every node starts a walk, as if a virtual source were
joined to each, so one table serves any digraph, strongly connected or
not (Karp 1978).  `max_cycle_mean` applies Karp's formula to the table;
`critical_subgraph` also reads the node potentials from it.
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
    ints otherwise.  Every value the kernels form then stays within
    2 (n + 1)^2 big < 2^63: walk weights of at most n edges, their
    differences times a length <= n, the potentials and the tightness sums."""
    return np.int64 if (n + 1) ** 2 * big < 2**62 else object


def _weights(values: list, n: int) -> tuple[np.ndarray, int | None]:
    """Weights of a graph on n nodes for the kernels: rational values times
    the lcm L of their denominators, and L; float64 and None when any value
    is a float, refused unless (n + 1)^2 max |value| < _FLOAT_SUMS, the
    bound of `_int_dtype` on every value the kernels form."""
    if not all(isinstance(x, Rational) for x in values):
        w = np.array(values, dtype=np.float64)
        if (n + 1) ** 2 * float(np.abs(w).max(initial=0.0)) >= _FLOAT_SUMS:
            raise ValidationError("float weights this large can overflow float64 in Karp's sums")
        return w, None
    L = math.lcm(*(x.denominator for x in values))
    ints = [int(x.numerator) * (L // x.denominator) for x in values]
    return np.array(ints, dtype=_int_dtype(n, max(map(abs, ints), default=0))), L


def _relax(x: np.ndarray, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """One max-plus product over edges sorted by head: the heads, and for
    each the max over its in-edges of x[tail] + w."""
    starts = np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1])))
    return dst[starts], np.maximum.reduceat(x[src] + w, starts)


def _walks(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Karp's walk table for k = 0..n: D[k, v], the largest weight of a
    k-edge walk ending at v, where reached[k, v] says one exists.  Walks
    start at every node (D[0] = 0), and reached[k] lies inside reached[k-1]."""
    D = np.zeros((n + 1, n), dtype=w.dtype)
    reached = np.zeros((n + 1, n), dtype=bool)
    reached[0] = True
    for k in range(1, n + 1):
        keep = reached[k - 1, src]
        if not keep.any():
            break
        heads, best = _relax(D[k - 1], src[keep], dst[keep], w[keep])
        D[k, heads] = best
        reached[k, heads] = True
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
    # the least so far, num / den, compared by cross-multiplication
    num, den = D[n] - D[0], np.full(n, n)
    for k in range(1, n):
        cand = D[n] - D[k]
        take = cand * den < num * (n - k)
        num, den = np.where(take, cand, num), np.where(take, n - k, den)
    return max(map(Fraction, num[last].tolist(), den[last].tolist()))


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

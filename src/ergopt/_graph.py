"""Weighted-digraph internals: maximum cycle mean and critical subgraphs.

A graph is a node count n and edge arrays: tails `src` and heads `dst` in
0..n-1, sorted by head, and a weight array as `_weights` makes it.
Rational weights are scaled by the lcm L of their denominators to
integers: int64 when the input bounds every sum the kernels form, Python
ints in object arrays otherwise.  Float weights run in float64, where each
relaxation is one add and an exact max, as in a loop over the edges.  Both
routines run through one max-plus kernel, `_relax`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np


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
    """int64 when (n + 1)^2 big < 2^62, for big >= every |weight|: that
    bounds every walk weight of at most n edges, difference of two and
    product with a length <= n that the kernels form; Python ints otherwise."""
    return np.int64 if (n + 1) ** 2 * big < 2**62 else object


def _weights(values: list, n: int) -> tuple[np.ndarray, int | None]:
    """Weights of a graph on n nodes for the kernels: rational values times
    the lcm L of their denominators, and L; float64 and None when any value
    is a float."""
    if not all(isinstance(x, Rational) for x in values):
        return np.array(values, dtype=np.float64), None
    L = math.lcm(*(x.denominator for x in values))
    ints = [int(x.numerator) * (L // x.denominator) for x in values]
    return np.array(ints, dtype=_int_dtype(n, max(map(abs, ints), default=0))), L


def _relax(x: np.ndarray, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """One max-plus product over edges sorted by head: the heads, and for
    each the max over its in-edges of x[tail] + w."""
    starts = np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1])))
    return dst[starts], np.maximum.reduceat(x[src] + w, starts)


def _karp(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Karp's maximum cycle mean of a strongly connected graph on nodes
    0..n-1, edges sorted by head: a float for float weights, else the
    pair (num, den), den > 0, of integers.  The walks start at node 0, so
    float sums are formed in a fixed order."""
    # D[k, v] = max weight of a k-edge walk 0 -> v, where reached[k, v]
    D = np.zeros((n + 1, n), dtype=w.dtype)
    reached = np.zeros((n + 1, n), dtype=bool)
    reached[0, 0] = True
    for k in range(1, n + 1):
        keep = reached[k - 1, src]
        heads, best = _relax(D[k - 1], src[keep], dst[keep], w[keep])
        D[k, heads] = best
        reached[k, heads] = True
    last = reached[n]
    # max over v of min over k of (D[n, v] - D[k, v]) / (n - k)
    if w.dtype.kind == "f":
        means = (D[n] - D[:n]) / np.arange(n, 0, -1)[:, None]
        return float(np.min(means, axis=0, where=reached[:n], initial=np.inf)[last].max())
    # the least so far, num / den, compared by cross-multiplication
    num, den, has = D[n] - D[0], np.full(n, n), reached[0].copy()
    for k in range(1, n):
        cand = D[n] - D[k]
        take = reached[k] & (~has | (cand * den < num * (n - k)))
        num, den = np.where(take, cand, num), np.where(take, n - k, den)
        has |= reached[k]
    best = None
    for a, b in zip(num[last].tolist(), den[last].tolist()):
        if best is None or a * best[1] > best[0] * b:
            best = (a, b)
    return best


def max_cycle_mean(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray, L: int | None):
    """Karp's maximum cycle mean, run per strongly connected component.

    Returns None when the graph has no cycle.  Exact, as a Fraction, for
    integer weights scaled by L; a float for float weights (L None).
    """
    comp_of = strongly_connected_components(n, src, dst)
    inside = comp_of[src] == comp_of[dst]
    best = None
    for c in sorted(set(comp_of[src[inside]].tolist())):
        members = np.flatnonzero(comp_of == c)
        sel = np.flatnonzero(inside & (comp_of[src] == c))
        mean = _karp(len(members), np.searchsorted(members, src[sel]),
                     np.searchsorted(members, dst[sel]), w[sel])
        if L is not None:
            mean = Fraction(mean[0], mean[1] * L)
        if best is None or mean > best:
            best = mean
    return best


def critical_subgraph(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray, L: int | None,
                      beta: Fraction | float, tol: Fraction | float = 0):
    """Edges lying on some cycle of mean exactly beta: their positions, and
    the strongly connected component of each node in the graph of tight
    edges.

    Subtract beta, compute node potentials as maximal reduced walk weights
    (all reduced cycle weights are <= 0, so n Bellman passes reach the
    fixed point), keep tight edges, then keep only edges inside a strongly
    connected component of the tight graph.  Integer weights run on the
    integers L' * (w / L - beta), L' the lcm of L and beta's denominator.
    """
    if L is None:
        reduced = w - float(beta)
    else:
        beta = Fraction(beta)
        L2 = math.lcm(L, beta.denominator)
        f, b = L2 // L, beta.numerator * (L2 // beta.denominator)
        big = int(np.abs(w).max()) * f + abs(b)  # bounds every reduced weight
        reduced = w.astype(_int_dtype(n, big)) * f - b
        tol = math.floor(tol * L2)
    phi = np.zeros(n, dtype=reduced.dtype)
    for _ in range(n):
        heads, best = _relax(phi, src, dst, reduced)
        new = phi.copy()
        new[heads] = np.maximum(phi[heads], best)
        if (new == phi).all():
            break
        phi = new
    tight = np.flatnonzero(np.abs(phi[src] + reduced - phi[dst]) <= tol)
    comp_of = strongly_connected_components(n, src[tight], dst[tight])
    # an edge inside one strongly connected component of the tight graph
    # always lies on a tight cycle; any other tight edge is transient
    return tight[comp_of[src[tight]] == comp_of[dst[tight]]], comp_of

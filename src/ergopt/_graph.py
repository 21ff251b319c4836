"""Weighted-digraph internals: maximum cycle mean and critical subgraphs.

Weights may be Fractions (exact) or floats.  Edges are a mapping
(u, v) -> weight; parallel edges never occur in the word graphs built by
the optimizer.

Both routines run on edge arrays through one max-plus kernel, `_relax`.
Rational weights are scaled by the lcm L of their denominators to
integers: int64 when the input bounds every sum the kernel forms, Python
ints in object arrays otherwise.  Float weights run in float64, where each
relaxation is one add and an exact max, as in a loop over the edges.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Hashable, Iterable, Mapping

import numpy as np

Node = Hashable
Edge = tuple[Node, Node]


def strongly_connected_components(nodes: Iterable[Node], edges: Iterable[Edge]) -> list[set[Node]]:
    """Tarjan's algorithm, with an explicit stack so that long paths hit no
    recursion limit.  Edge ends missing from `nodes` are added as nodes;
    the order of the components is unspecified."""
    succ: dict[Node, list[Node]] = {v: [] for v in nodes}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
        succ.setdefault(v, [])
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    placed = len(succ)  # index of a node once in a component: above all others
    path: list[Node] = []  # visited nodes not yet in a component
    work = []  # the DFS: (node, iterator over its unexplored successors)
    comps: list[set[Node]] = []

    def visit(v: Node) -> None:
        index[v] = low[v] = len(index)
        path.append(v)
        work.append((v, iter(succ[v])))

    for root in succ:
        if root not in index:
            visit(root)
        while work:
            v, todo = work[-1]
            for w in todo:
                if w not in index:
                    visit(w)
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp: set[Node] = set()
                    while v not in comp:
                        w = path.pop()
                        index[w] = placed
                        comp.add(w)
                    comps.append(comp)
    return comps


def _edge_arrays(nodes: list[Node], edges: Mapping[Edge, Fraction | float]):
    """Node labels in index order, and the edges sorted by head index: tail
    and head index arrays and the weight list.  Edge ends missing from
    `nodes` are added."""
    index = {v: i for i, v in enumerate(nodes)}
    for u, v in edges:
        index.setdefault(u, len(index))
        index.setdefault(v, len(index))
    arcs = sorted((index[v], index[u], w) for (u, v), w in edges.items())
    src = np.array([u for _, u, _ in arcs], dtype=np.intp)
    dst = np.array([v for v, _, _ in arcs], dtype=np.intp)
    return list(index), src, dst, [w for _, _, w in arcs]


def _integers(values: list) -> tuple[list[int], int]:
    """The rational values times the lcm L of their denominators, and L."""
    L = math.lcm(*(x.denominator for x in values))
    return [int(x.numerator) * (L // x.denominator) for x in values], L


def _int_array(ints: list[int], n: int) -> np.ndarray:
    """int64 when (n + 1)^2 max |x| < 2^62, which bounds every walk weight
    of at most n edges, difference of two and product with a length <= n
    that the kernels form; Python ints otherwise."""
    big = max(map(abs, ints), default=0)
    return np.array(ints, dtype=np.int64 if (n + 1) ** 2 * big < 2**62 else object)


def _component_of(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Index of each node's strongly connected component."""
    comp_of = np.zeros(n, dtype=np.intp)
    comps = strongly_connected_components(range(n), zip(src.tolist(), dst.tolist()))
    for i, comp in enumerate(comps):
        comp_of[list(comp)] = i
    return comp_of


def _relax(x: np.ndarray, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """One max-plus product over edges sorted by head: the heads, and for
    each the max over its in-edges of x[tail] + w."""
    starts = np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1])))
    return dst[starts], np.maximum.reduceat(x[src] + w, starts)


def _karp(n: int, source: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Karp's maximum cycle mean of a strongly connected graph on nodes
    0..n-1, edges sorted by head: a float for float weights, else the
    pair (num, den), den > 0, of integers."""
    # D[k, v] = max weight of a k-edge walk source -> v, where reached[k, v]
    D = np.zeros((n + 1, n), dtype=w.dtype)
    reached = np.zeros((n + 1, n), dtype=bool)
    reached[0, source] = True
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


def max_cycle_mean(nodes: list[Node], edges: Mapping[Edge, Fraction | float]):
    """Karp's maximum cycle mean, run per strongly connected component.

    Returns None when the graph has no cycle.  Exact, as a Fraction, when
    weights are rational.
    """
    labels, src, dst, weights = _edge_arrays(nodes, edges)
    exact = all(isinstance(x, Rational) for x in weights)
    if exact:
        ints, L = _integers(weights)
        w = _int_array(ints, len(labels))
    else:
        w = np.array(weights, dtype=np.float64)
    comp_of = _component_of(len(labels), src, dst)
    inside = comp_of[src] == comp_of[dst]
    best = None
    for c in sorted(set(comp_of[src[inside]].tolist())):
        members = np.flatnonzero(comp_of == c)
        sel = np.flatnonzero(inside & (comp_of[src] == c))
        # the least node by repr starts the walks, so float sums are formed
        # in a fixed order
        source = min(range(len(members)), key=lambda i: repr(labels[members[i]]))
        mean = _karp(len(members), source, np.searchsorted(members, src[sel]),
                     np.searchsorted(members, dst[sel]), w[sel])
        if exact:
            mean = Fraction(mean[0], mean[1] * L)
        if best is None or mean > best:
            best = mean
    return best


def critical_subgraph(
    nodes: list[Node],
    edges: Mapping[Edge, Fraction | float],
    beta: Fraction | float,
    tol: Fraction | float = 0,
) -> set[Edge]:
    """Edges lying on some cycle of mean exactly beta.

    Subtract beta, compute node potentials as maximal reduced walk weights
    (all reduced cycle weights are <= 0, so |nodes| Bellman passes reach the
    fixed point), keep tight edges, then keep only edges inside a strongly
    connected component of the tight graph.  Rational input runs on the
    integers L*(w - beta), L the lcm of all denominators, beta's included.
    """
    labels, src, dst, weights = _edge_arrays(nodes, edges)
    if not weights:
        return set()
    if all(isinstance(x, Rational) for x in weights + [beta]):
        ints, L = _integers(weights + [beta])
        reduced = _int_array([x - ints[-1] for x in ints[:-1]], len(labels))
        tol = math.floor(tol * L)
    else:
        reduced = np.array(weights, dtype=np.float64) - float(beta)
    phi = np.zeros(len(labels), dtype=reduced.dtype)
    for _ in range(len(labels)):
        heads, best = _relax(phi, src, dst, reduced)
        new = phi.copy()
        new[heads] = np.maximum(phi[heads], best)
        if (new == phi).all():
            break
        phi = new
    tight = np.flatnonzero(np.abs(phi[src] + reduced - phi[dst]) <= tol)
    comp_of = _component_of(len(labels), src[tight], dst[tight])
    # an edge inside one strongly connected component of the tight graph
    # always lies on a tight cycle; any other tight edge is transient
    keep = tight[comp_of[src[tight]] == comp_of[dst[tight]]]
    return {(labels[u], labels[v]) for u, v in zip(src[keep].tolist(), dst[keep].tolist())}

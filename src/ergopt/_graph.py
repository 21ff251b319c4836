"""Weighted-digraph internals: maximum cycle mean and critical subgraphs.

Weights may be Fractions (exact) or floats.  Edges are a mapping
(u, v) -> weight; parallel edges never occur in the word graphs built by
the optimizer.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Hashable, Iterable, Mapping

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


def max_cycle_mean(nodes: list[Node], edges: Mapping[Edge, Fraction | float]):
    """Karp's maximum cycle mean, run per strongly connected component.

    Returns None when the graph has no cycle.  Exact when weights are
    rational.
    """
    best = None
    for comp in strongly_connected_components(nodes, edges):
        internal = {(u, v): w for (u, v), w in edges.items() if u in comp and v in comp}
        if not internal:
            continue
        mean = _karp_scc(sorted(comp, key=repr), internal)
        if mean is not None and (best is None or mean > best):
            best = mean
    return best


def _karp_scc(comp: list[Node], edges: Mapping[Edge, Fraction | float]):
    n = len(comp)
    source = comp[0]
    preds: dict[Node, list[tuple[Node, Fraction | float]]] = {v: [] for v in comp}
    for (u, v), w in edges.items():
        preds[v].append((u, w))
    # D[k][v] = max weight of a k-edge walk source -> v, None meaning -inf
    D: list[dict[Node, Fraction | float | None]] = [{v: None for v in comp} for _ in range(n + 1)]
    D[0][source] = 0 if isinstance(next(iter(edges.values())), Rational) else 0.0
    for k in range(1, n + 1):
        row = D[k]
        prev = D[k - 1]
        for v in comp:
            cand = None
            for u, w in preds[v]:
                if prev[u] is None:
                    continue
                val = prev[u] + w
                if cand is None or val > cand:
                    cand = val
            row[v] = cand
    best = None
    for v in comp:
        if D[n][v] is None:
            continue
        inner = None
        for k in range(n):
            if D[k][v] is None:
                continue
            val = (D[n][v] - D[k][v]) / (n - k)
            if inner is None or val < inner:
                inner = val
        if inner is not None and (best is None or inner > best):
            best = inner
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
    connected component of the tight graph.
    """
    reduced = {e: w - beta for e, w in edges.items()}
    zero = beta - beta  # 0 of the right numeric type
    phi: dict[Node, Fraction | float] = {v: zero for v in nodes}
    for _ in range(len(nodes)):
        changed = False
        for (u, v), w in reduced.items():
            val = phi[u] + w
            if val > phi[v]:
                phi[v] = val
                changed = True
        if not changed:
            break
    tight = {(u, v) for (u, v), w in reduced.items() if abs(phi[u] + w - phi[v]) <= tol}
    comp_of: dict[Node, int] = {}
    for i, comp in enumerate(strongly_connected_components(nodes, tight)):
        for v in comp:
            comp_of[v] = i
    # an edge inside one strongly connected component of the tight graph
    # always lies on a tight cycle; any other tight edge is transient
    return {(u, v) for (u, v) in tight if comp_of[u] == comp_of[v]}


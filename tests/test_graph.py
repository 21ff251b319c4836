"""Strongly connected components, maximum cycle means and critical
subgraphs against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ergopt._graph import (
    _int_dtype,
    _karp,
    _walks,
    _weights,
    critical_subgraph,
    max_cycle_mean,
    strongly_connected_components,
)


def closure_components(n, edges):
    """Oracle: i and j share a component iff each reaches the other in the
    reflexive-transitive closure, built by boolean squaring."""
    R = np.eye(n, dtype=bool)
    for u, v in edges:
        R[u, v] = True
    while True:
        nxt = R | (R.astype(np.int64) @ R.astype(np.int64) > 0)
        if (nxt == R).all():
            break
        R = nxt
    return {frozenset(np.flatnonzero(row).tolist()) for row in R & R.T}


def components(n, edges):
    """The components as sets of nodes, from the labels
    `strongly_connected_components` gives the nodes 0..n-1."""
    arcs = np.array(edges, dtype=np.intp).reshape(-1, 2)
    labels = strongly_connected_components(n, arcs[:, 0], arcs[:, 1]).tolist()
    comps = {}
    for v, c in enumerate(labels):
        comps.setdefault(c, set()).add(v)
    return list(comps.values())


@pytest.mark.parametrize("seed", range(4))
def test_matches_reachability_closure(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        A = rng.random((n, n)) < rng.uniform(0.0, 0.15)
        A[np.diag_indices(n)] = rng.random(n) < 0.3  # self-loops
        isolated = rng.random(n) < 0.2
        A[isolated, :] = False
        A[:, isolated] = False
        edges = list(zip(*(a.tolist() for a in np.nonzero(A))))
        comps = components(n, edges)
        assert sum(len(c) for c in comps) == n
        assert {frozenset(c) for c in comps} == closure_components(n, edges)


def test_long_chain_needs_no_recursion():
    n = 10_000
    chain = [(i, i + 1) for i in range(n - 1)]
    assert len(components(n, chain)) == n
    assert components(n, chain + [(n - 1, 0)]) == [set(range(n))]


# ---------------------------------------------------------------------------
# maximum cycle mean and critical subgraph against brute-force oracles

def as_arrays(n, edges):
    """A graph {(u, v): weight} on nodes 0..n-1 as the kernels take it:
    tails and heads sorted by head, and the weights scaled by `_weights`."""
    arcs = sorted((v, u, w) for (u, v), w in edges.items())
    src = np.array([u for _, u, _ in arcs], dtype=np.intp)
    dst = np.array([v for v, _, _ in arcs], dtype=np.intp)
    return (n, src, dst, *_weights([w for _, _, w in arcs], n))


def mean_of(n, edges):
    return max_cycle_mean(*as_arrays(n, edges))


def critical_of(n, edges):
    """The maximum cycle mean `critical_subgraph` finds, the critical edges
    as (u, v) pairs, and the tight components."""
    n, src, dst, w, L = as_arrays(n, edges)
    beta, keep, comp_of = critical_subgraph(n, src, dst, w, L)
    return beta, set(zip(src[keep].tolist(), dst[keep].tolist())), comp_of.tolist()


def simple_cycles(n, edges):
    """Oracle: every simple cycle, as a node list, by depth-first search from
    its least node."""
    succ = {u: [v for (a, v) in edges if a == u] for u in range(n)}
    out = []
    for s in range(n):
        stack = [[s]]
        while stack:
            path = stack.pop()
            for v in succ[path[-1]]:
                if v == s:
                    out.append(path)
                elif v > s and v not in path:
                    stack.append(path + [v])
    return out


def oracle_mean(n, edges):
    """Oracle: the largest mean over simple cycles, exact for exact weights."""
    means = [Fraction(sum(Fraction(edges[(c[i], c[(i + 1) % len(c)])]) for i in range(len(c))),
                      len(c)) for c in simple_cycles(n, edges)]
    return max(means, default=None)


def random_digraph(rng, weight):
    """A digraph on n <= 7 nodes: a few dense blocks (several strongly
    connected components), self-loops, forward edges between the blocks and
    an acyclic tail of nodes with no edge back."""
    n = int(rng.integers(1, 8))
    cut = sorted(rng.choice(np.arange(1, n + 1), size=min(n, int(rng.integers(1, 4))),
                            replace=False).tolist())
    block = np.searchsorted(cut, np.arange(n), side="right")
    edges = {}
    for u in range(n):
        for v in range(n):
            same = block[u] == block[v] and block[u] < len(cut) - 1
            if (same and rng.random() < 0.6) or (block[u] < block[v] and rng.random() < 0.2):
                edges[(u, v)] = weight()
    return n, edges


WEIGHTS = {
    "int": lambda rng: int(rng.integers(-9, 10)),
    # pairwise coprime denominators, so L grows with every edge
    "coprime": lambda rng: Fraction(int(rng.integers(-60, 61)),
                                    int(rng.choice([1, 2, 3, 5, 7, 11, 13, 17, 19, 23]))),
    "float": lambda rng: float(rng.uniform(-3.0, 3.0)),
}


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
def test_max_cycle_mean_matches_simple_cycles(kind):
    rng = np.random.default_rng(1)
    for _ in range(300):
        n, edges = random_digraph(rng, lambda: WEIGHTS[kind](rng))
        expected = oracle_mean(n, edges)
        got = mean_of(n, edges)
        assert critical_of(n, edges)[0] == got  # so the oracle checks both
        if expected is None:
            assert got is None
        elif kind == "float":
            assert isinstance(got, float)
            assert got == pytest.approx(float(expected), rel=1e-12, abs=1e-12)
        else:
            assert isinstance(got, Fraction) and got == expected


def test_max_cycle_mean_beyond_int64_is_exact():
    """Weights near +-2^70 with large coprime denominators: the scaled
    weights are far past int64, and the answer must still be exact."""
    rng = np.random.default_rng(2)
    dens = [2**31 - 1, 2**31 - 19, 2**61 - 1, 3**41]

    def weight():
        near = int(rng.choice([-1, 1])) * 2**70 + int(rng.integers(-1000, 1001))
        return near + Fraction(int(rng.integers(-1000, 1001)), int(rng.choice(dens)))

    tested = 0
    for _ in range(60):
        n, edges = random_digraph(rng, weight)
        if not edges or math.lcm(*(w.denominator for w in edges.values())) <= 2**62:
            continue
        tested += 1
        assert mean_of(n, edges) == oracle_mean(n, edges)
    assert tested >= 20


@pytest.mark.parametrize("base", [2**55, 2**70])
def test_max_cycle_mean_separates_near_ties(base):
    """Means of large weights that differ in the last units: a comparison
    through floats would call them equal."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        n, edges = random_digraph(rng, lambda: base + int(rng.integers(-3, 4)))
        assert mean_of(n, edges) == oracle_mean(n, edges)


def test_max_cycle_mean_int64_bound():
    """Integer weights near 2^60 pass int64 only as a single step: sums of a
    few of them must be formed without wrapping."""
    n = 6
    edges = {(i, (i + 1) % n): 2**60 + i for i in range(n)}
    edges[(0, 0)] = -(2**60)
    assert mean_of(n, edges) == Fraction(n * 2**60 + 15, n)


def reduced_closure(n, edges, beta):
    """Oracle: Floyd-Warshall max-plus closure of the reduced weights
    w - beta, reflexive (the empty walk weighs 0); None means no walk."""
    best = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for (u, v), w in edges.items():
        r = Fraction(w) - beta
        if u != v and (best[u][v] is None or r > best[u][v]):
            best[u][v] = r
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if best[i][k] is not None and best[k][j] is not None:
                    via = best[i][k] + best[k][j]
                    if best[i][j] is None or via > best[i][j]:
                        best[i][j] = via
    return best


def oracle_critical(n, edges, beta):
    """Edge (u, v) is critical iff w(u, v) - beta plus the best reduced walk
    from v back to u is 0."""
    best = reduced_closure(n, edges, beta)
    return {(u, v) for (u, v), w in edges.items()
            if best[v][u] is not None and Fraction(w) - beta + best[v][u] == 0}


@pytest.mark.parametrize("kind", ["int", "coprime", "ties"])
def test_critical_subgraph_matches_closure(kind):
    rng = np.random.default_rng(3)
    draw = {"ties": lambda: Fraction(int(rng.integers(-1, 2)), int(rng.choice([1, 2])))}
    draw.update({k: (lambda k=k: WEIGHTS[k](rng)) for k in ("int", "coprime")})
    for _ in range(300):
        n, edges = random_digraph(rng, draw[kind])
        beta = oracle_mean(n, edges)
        if beta is None:
            continue
        assert critical_of(n, edges)[:2] == (beta, oracle_critical(n, edges, beta))


def test_critical_ties_across_two_components():
    """Two components each hold a cycle of the maximal mean 1/2, joined by a
    one-way edge: both cycles are critical, the bridge and the slower cycle
    are not."""
    h = Fraction(1, 2)
    edges = {(0, 1): Fraction(1), (1, 0): Fraction(0), (1, 1): Fraction(0),
             (1, 2): Fraction(5),
             (2, 3): h, (3, 2): h, (3, 4): Fraction(0), (4, 3): Fraction(0)}
    assert mean_of(5, edges) == h
    expected = {(0, 1), (1, 0), (2, 3), (3, 2)}
    assert oracle_critical(5, edges, h) == expected
    beta, critical, comp_of = critical_of(5, edges)
    assert (beta, critical) == (h, expected)
    assert comp_of[0] == comp_of[1] != comp_of[2] == comp_of[3]


@pytest.mark.parametrize("past", [False, True], ids=["int64", "python_ints"])
def test_critical_subgraph_at_the_int64_envelope(past):
    """Integer weights up to big with (n + 1)^2 big just under 2^62 run in
    int64, and just over it in Python ints: the potentials and tightness
    sums must not wrap at the edge of the envelope.  Weights drawn near
    +-big from a few values give ties; others spread over [-big, big]."""
    rng = np.random.default_rng(5)
    tested = 0
    for i in range(300):
        n, edges = random_digraph(rng, lambda: 0)
        if not edges:
            continue
        big = (2**62 - 1) // (n + 1) ** 2 + past
        near = [-big, -big + 1, big - 1, big]
        draw = ((lambda: int(rng.choice(near))) if i % 2 else
                (lambda: int(rng.integers(-big, big, endpoint=True))))
        edges = {e: draw() for e in edges}
        edges[next(iter(edges))] = big  # so that max |w| is big
        assert as_arrays(n, edges)[3].dtype == (object if past else np.int64)
        beta = oracle_mean(n, edges)
        got = critical_of(n, edges)
        assert got[0] == beta
        if beta is not None:
            tested += 1
            assert got[1] == oracle_critical(n, edges, beta)
    assert tested >= 100


# ---------------------------------------------------------------------------
# the walk table and Karp's minimum against brute force

def brute_walks(n, edges):
    """Oracle: every k-edge walk for k = 0..n, listed edge by edge and
    summed from its first edge on; the largest weight ending at each node,
    None where no walk ends."""
    table = [[0] * n]
    walks = [(v, 0) for v in range(n)]  # (end, weight) of every walk so far
    for _ in range(n):
        walks = [(v, x + w) for u, x in walks for (a, v), w in edges.items() if a == u]
        row = [None] * n
        for v, x in walks:
            row[v] = x if row[v] is None else max(row[v], x)
        table.append(row)
    return table


def table_of(n, edges, dtype):
    """`_walks` on the edges as `as_arrays` orders them, with the weights as
    an array of dtype, and the arrays it ran on."""
    n, src, dst, _, _ = as_arrays(n, edges)
    w = np.array([edges[e] for e in zip(src.tolist(), dst.tolist())], dtype=dtype).reshape(-1)
    return (n, src, dst, w), _walks(n, src, dst, w)


def check_walks(n, edges, dtype):
    graph, (D, reached) = table_of(n, edges, dtype)
    expected = brute_walks(n, edges)
    assert D.dtype == dtype and reached.dtype == bool
    assert reached.tolist() == [[x is not None for x in row] for row in expected]
    assert D.tolist() == [[0 if x is None else x for x in row] for row in expected]
    return graph


WALK_WEIGHTS = {
    np.int64: lambda rng: int(rng.integers(-9, 10)),
    object: lambda rng: int(rng.choice([-1, 1])) * 2**80 + int(rng.integers(-9, 10)),
    np.float64: lambda rng: float(rng.uniform(-3.0, 3.0)),
}
WALK_DTYPES = pytest.mark.parametrize("dtype", list(WALK_WEIGHTS),
                                      ids=["int64", "python_ints", "float"])


@WALK_DTYPES
def test_walks_match_every_walk(dtype):
    """Graphs with no edges on 1..4 nodes, then random digraphs on up to 6
    nodes, some with a node no edge enters and some acyclic, where there is
    no cycle mean; Python ints (object) run past int64."""
    rng = np.random.default_rng(6)
    graphs = [np.zeros((n, n), dtype=bool) for n in range(1, 5)]
    for _ in range(150):
        n = int(rng.integers(1, 7))
        A = rng.random((n, n)) < rng.uniform(0.1, 0.4)
        graphs.append(np.triu(A, 1) if rng.random() < 0.3 else A)  # triu: every edge climbs
    acyclic = no_entry = 0
    for A in graphs:
        n = len(A)
        edges = {(int(u), int(v)): WALK_WEIGHTS[dtype](rng) for u, v in zip(*np.nonzero(A))}
        graph = check_walks(n, edges, dtype)
        if oracle_mean(n, edges) is None:
            acyclic += 1
            assert max_cycle_mean(*graph, None if dtype is np.float64 else 1) is None
        no_entry += not A.any(axis=0).all()
    assert acyclic >= 24 and no_entry >= 54


@pytest.mark.parametrize("sign", [1, -1], ids=["climbing", "falling"])
def test_walks_at_the_int64_envelope(sign):
    """Weights of size big with (n + 1)^2 big just under 2^62, so in int64:
    on chains, where unreached entries are grown from the floor edge by
    edge, and on random graphs, the floor must neither wrap nor climb into
    the walks' range."""
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        big = (2**62 - 1) // (n + 1) ** 2
        assert _int_dtype(n, big) is np.int64
        chain = {(i, i + 1): sign * big for i in range(n - 1)}
        check_walks(n, chain, np.int64)
        check_walks(n, {**chain, (n - 1, n - 1): -sign * big}, np.int64)
        for _ in range(20):
            A = rng.random((n, n)) < 0.3
            edges = {(int(u), int(v)): sign * int(rng.choice([big, big - 1, -big]))
                     for u, v in zip(*np.nonzero(A))}
            check_walks(n, edges, np.int64)


def fraction_karp(n, D, reached):
    """Oracle: Karp's formula with every mean a Fraction, the minimum over k
    taken plainly."""
    means = [min(Fraction(int(D[n, v]) - int(D[k, v]), n - k) for k in range(n))
             for v in range(len(D[0])) if reached[n, v]]
    return max(means, default=None)


@pytest.mark.parametrize("base", [2**55, 2**70], ids=["2^55", "2^70"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_karp_halving_matches_a_plain_minimum(n, base):
    """The halving minimum over k against a plain Fraction minimum, on walk
    tables of n nodes whose weights differ from base in the last units, so
    that many means nearly tie: int64 tables at 2^55, Python ints at 2^70."""
    rng = np.random.default_rng(n)
    for _ in range(60):
        A = rng.random((n, n)) < rng.uniform(0.3, 0.9)
        edges = {(int(u), int(v)): base + int(rng.integers(-3, 4)) for u, v in zip(*np.nonzero(A))}
        (_, src, dst, w), (D, reached) = table_of(n, edges, _int_dtype(n, base + 3))
        assert w.dtype == (np.int64 if base == 2**55 else object)
        assert _karp(n, D, reached) == fraction_karp(n, D, reached) == oracle_mean(n, edges)

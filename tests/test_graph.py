"""Strongly connected components, maximum cycle means and critical
subgraphs against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ergopt._graph import (
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

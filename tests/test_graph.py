"""Strongly connected components against an independent reachability
oracle."""

import numpy as np
import pytest

from ergopt._graph import strongly_connected_components


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
        comps = strongly_connected_components(range(n), edges)
        assert sum(len(c) for c in comps) == n
        assert {frozenset(c) for c in comps} == closure_components(n, edges)


def test_long_chain_needs_no_recursion():
    n = 10_000
    chain = [(i, i + 1) for i in range(n - 1)]
    assert len(strongly_connected_components(range(n), chain)) == n
    assert strongly_connected_components(range(n), chain + [(n - 1, 0)]) == [set(range(n))]

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ergopt as eo


@pytest.fixture(scope="session")
def full2():
    return eo.new_shift(2)


@pytest.fixture(scope="session")
def golden():
    return eo.new_shift(2, [[True, True], [True, False]])


@pytest.fixture(scope="session")
def fib_pair(full2):
    """The benchmark pair M0 upper-triangular, M1 lower-triangular."""
    M0 = np.array([[1.0, 1.0], [0.0, 1.0]])
    M1 = np.array([[1.0, 0.0], [1.0, 1.0]])
    return eo.MatrixCocycle(full2, 2, 1, {(0,): M0, (1,): M1})


@pytest.fixture(scope="session")
def step_potential(full2):
    return eo.ScalarPotential(full2, 1, {(0,): Fraction(0), (1,): Fraction(1)})


def random_sft(rng, k):
    """A random valid shift space on k letters (resampled until valid)."""
    while True:
        allowed = rng.random((k, k)) < 0.7
        try:
            return eo.new_shift(k, allowed.tolist())
        except eo.errors.ErgoptError:
            continue


def random_rational_potential(rng, space, memory, denom_max=10, num_max=20):
    table = {
        w: Fraction(int(rng.integers(-num_max, num_max + 1)),
                    int(rng.integers(1, denom_max + 1)))
        for w in eo.admissible_words(space, memory)
    }
    return eo.ScalarPotential(space, memory, table)


def brute_force_beta(space, f):
    """Independent oracle: max cycle mean over all primitive cycles up to
    the node-count period (never calls the Karp implementation)."""
    node_count = len(eo.admissible_words(space, max(f.memory - 1, 1)))
    best = None
    for c in eo.enumerate_cycles(space, node_count):
        total = sum(f.value(w) for w in c.windows(f.memory))
        mean = Fraction(total) / c.period
        if best is None or mean > best:
            best = mean
    return best


def word_graph_edges(space, memory):
    """Oracle word graph, read off `admissible_words` alone: (tail node,
    head node) -> the word the edge is read at, the memory-word it ends
    with.  The nodes are the (memory-1)-words; with memory m >= 2 each
    m-word w is the edge w[:-1] -> w[1:], read at w, with memory 1 each
    2-word ab is the edge a -> b, read at the word b."""
    if memory == 1:
        return {((a,), (b,)): (b,) for a, b in eo.admissible_words(space, 2)}
    return {(w[:-1], w[1:]): w for w in eo.admissible_words(space, memory)}


def index_edges(index):
    """The word index's edges in the form of `word_graph_edges`."""
    nodes, words = index.nodes, index.words
    return {(nodes[u], nodes[v]): words[r]
            for u, v, r in zip(index.tails.tolist(), index.heads.tolist(), index.rows.tolist())}


def sft3_memory2(seed):
    """Memory 2 on a 3-letter SFT, with a float weight."""
    sft3 = eo.new_shift(3, [[True, True, False], [False, True, True], [True, True, True]])
    rng = np.random.default_rng(seed)
    words = eo.admissible_words(sft3, 2)
    weight = eo.ScalarPotential(sft3, 2, {w: float(rng.uniform(-1, 1)) for w in words})
    table = {w: rng.standard_normal((2, 2)) for w in words}
    return sft3, eo.MatrixCocycle(sft3, 2, 2, table, weight)


def read_report(path):
    """A report or error payload, parsed as strict JSON: NaN and Infinity,
    which are not JSON, are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} in {path}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)

"""A potential is its weight row: every operation on the row is checked
against the same operation on a dict of Fractions, word by word."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

import ergopt as eo
from ergopt import _graph, report

from conftest import random_sft


def draw(rng, space, memory):
    """A random rational table and the potential built from it: the table
    is the oracle every operation is checked against."""
    table = {w: Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 11)))
             for w in eo.admissible_words(space, memory)}
    return table, eo.ScalarPotential(space, memory, table)


def lifted(table, memory, space):
    m = len(next(iter(table)))
    return {w: table[w[:m]] for w in eo.admissible_words(space, memory)}


def random_word(rng, space, n):
    w = [int(rng.integers(space.k))]
    while len(w) < n:
        w.append(int(rng.choice(space.successors(w[-1]))))
    return tuple(w)


CASES = [(seed, k, m) for seed in range(4) for k in (2, 3) for m in (1, 2, 3)]


@pytest.mark.parametrize("seed,k,m", CASES)
def test_row_operations_match_the_dict_oracle(seed, k, m):
    rng = np.random.default_rng(100 * seed + 10 * k + m)
    space = random_sft(rng, k)
    F, f = draw(rng, space, m)
    G, g = draw(rng, space, int(rng.integers(1, 4)))
    top = max(m, g.memory)
    assert f.table == F and all(type(v) is Fraction for v in f.table.values())
    assert pickle.loads(pickle.dumps(f)) == f and copy.copy(f) == f
    assert f.lift(top + 1).table == lifted(F, top + 1, space)
    FL, GL = lifted(F, top, space), lifted(G, top, space)
    assert (f + g).table == {w: FL[w] + GL[w] for w in FL}
    assert (-f).table == {w: -v for w, v in F.items()}
    c = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 30)))
    assert f.scale(c).table == {w: c * v for w, v in F.items()}
    x = float(rng.uniform(-3, 3))
    scaled = f.scale(x).table
    assert not f.scale(x).is_rational
    assert all(scaled[w] == x * v for w, v in F.items())  # bit for bit
    mixed = (f + g.scale(x)).table
    assert all(mixed[w] == FL[w] + x * GL[w] for w in FL)
    assert f.sup_norm == max(map(abs, F.values()))
    for n in (m, m + 1, m + 5):
        w = random_word(rng, space, n)
        assert f.value(w) == F[w[:m]]
        assert f.birkhoff_sum(w) == sum(F[w[j:j + m]] for j in range(n - m + 1))


def test_int64_gives_way_to_python_ints_at_the_envelope():
    """On the full 2-shift at memory 1 (2 nodes) int64 holds a row while
    9 max |L f| < 2^62; one more, or a sum or a lift to memory 3 (4 nodes)
    past the envelope, gives Python ints, with every value still exact."""
    space = eo.new_shift(2)
    edge = (2**62 - 1) // 9
    assert _graph._int_dtype(2, edge) is np.int64 and _graph._int_dtype(2, edge + 1) is object
    below = eo.ScalarPotential(space, 1, {(0,): Fraction(edge), (1,): Fraction(-1, 1)})
    above = eo.ScalarPotential(space, 1, {(0,): Fraction(edge + 1), (1,): Fraction(-1, 1)})
    assert below.row.dtype == np.int64 and above.row.dtype == object
    for f, dtype in ((below + below, object), (below.lift(3), object), (-below, np.int64),
                     (below.scale(Fraction(1, 7)), np.int64), (above.scale(2), object)):
        assert f.row.dtype == dtype
    assert (below + below).value((0,)) == 2 * edge
    assert below.lift(3).value((1, 0, 0)) == -1
    assert above.scale(Fraction(2, 3)).value((0,)) == Fraction(2 * (edge + 1), 3)


def test_a_row_of_zeros_scaled_by_a_large_rational():
    """A row of zeros bounds nothing, so the coefficient 2^70 picks Python
    ints: the row is formed with no int64 overflow and stays exact."""
    space = eo.new_shift(2)
    zero = eo.constant_potential(space, Fraction(0))
    big = zero.scale(Fraction(2**70))
    assert big.row.dtype == object and big.table == {(0,): 0, (1,): 0}
    table = {(0,): Fraction(1, 3), (1,): Fraction(2**70)}
    assert (big + eo.ScalarPotential(space, 1, table)).table == table
    assert zero.scale(Fraction(1, 2**70)).table == {(0,): 0, (1,): 0}


def test_an_exact_row_becomes_floats_as_fractions_do():
    """2^53 + 1 held as 3 (2^53 + 1) over L = 3: Python's int division
    rounds it once, to float(Fraction) = 2^53, where numpy's int-to-float
    cast and division would round twice, to 2^53 + 2."""
    space = eo.new_shift(2)
    f = eo.ScalarPotential(space, 1, {(0,): Fraction(2**53 + 1), (1,): Fraction(1, 3)})
    assert f.L == 3 and f.row[0] == 3 * (2**53 + 1)
    assert float(Fraction(2**53 + 1)) == 9007199254740992.0
    assert (np.array([f.row[0]]) / 3)[0] == 9007199254740994.0
    assert f.scale(1.0).value((0,)) == 9007199254740992.0
    assert (f + eo.constant_potential(space, 0.0)).value((0,)) == 9007199254740992.0
    assert f.scale(1.0).value((1,)) == 1 / 3


def test_exact_rows_past_float64_run_where_no_float_is_formed():
    """H = 10^400 has no float64 value, but an exact row holds it: birkhoff
    on {H, 1/3} gives beta H, and the exact sweep of {H, 0} along {0, 1}
    keeps the fixed point 0 as the one maximiser."""
    H = "1" + "0" * 400
    system = {"alphabet": 2}
    body, _, _ = report.run_config({"system": system, "experiment": "birkhoff",
                                    "potential": {"memory": 1, "values": {"0": H, "1": "1/3"}}})
    assert body["results"]["beta"]["value"] == H + "/1"
    assert body["results"]["critical_cycles"] == ["0"]
    body, _, _ = report.run_config({
        "system": system, "experiment": "perturb",
        "potential": {"memory": 1, "values": {"0": H, "1": "0"}},
        "params": {"gamma": {"memory": 1, "values": {"0": "0", "1": "1"}}, "eps": ["1/2"]}})
    results = body["results"]
    assert [d["value"] for d in results["diameters"]] == ["0/1"]
    assert results["limit"]["value"] == "0/1"


import copy
import pickle
from collections import Counter

import numpy as np
import pytest

import ergopt as eo
from ergopt.errors import (
    EmptyAlphabetError,
    InadmissibleWordError,
    NoCycleError,
    ParseError,
    UnreachableError,
)


def _sparse_shift(k, density, seed):
    """A random shift space on k letters with about density * k^2 allowed
    2-words (resampled until every letter lies on a cycle)."""
    rng = np.random.default_rng(seed)
    while True:
        try:
            return eo.new_shift(k, (rng.random((k, k)) < density).tolist())
        except NoCycleError:
            continue


def _brute_cycle_list(space, p_max):
    """Oracle: every word over the alphabet whose cyclic 2-words are
    allowed, kept when primitive and equal to its least rotation, then
    sorted by (period, word); no shared code with enumerate_cycles."""
    allowed = space.allowed
    want = []
    words = [(a,) for a in range(space.k)]
    for p in range(1, p_max + 1):
        for w in words:
            if not allowed[w[-1]][w[0]]:
                continue
            rots = [w[i:] + w[:i] for i in range(p)]
            if w == min(rots) and rots.count(w) == 1:
                want.append(w)
        words = [w + (b,) for w in words for b in range(space.k) if allowed[w[-1]][b]]
    return sorted(want, key=lambda w: (len(w), w))


def _cycle_test_spaces():
    """name -> (shift space, p_max) for the cycle-list oracle."""
    return {
        "full2": (eo.new_shift(2), 12),
        "full3": (eo.new_shift(3), 8),
        "golden": (eo.new_shift(2, [[True, True], [True, False]]), 14),
        "sft3": (eo.new_shift(3, [[True, True, False], [False, True, True],
                                  [True, True, True]]), 10),
        "sparse8": (_sparse_shift(8, 0.25, 3), 9),
        "sparse10": (_sparse_shift(10, 0.2, 4), 9),
    }


class TestConstruction:
    def test_full_shift_allows_everything(self, full2):
        assert full2.k == 2
        assert full2.is_full
        assert full2.is_admissible((0, 1, 1, 0))

    def test_golden_mean_forbids_11(self, golden):
        assert not golden.is_full
        assert golden.is_admissible((0, 1, 0, 1))
        assert not golden.is_admissible((1, 1))
        assert not golden.is_admissible((0, 1, 1, 0))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(EmptyAlphabetError):
            eo.new_shift(0)

    def test_letter_off_every_cycle_rejected(self):
        # 0 -> 1 -> 1: letter 0 has no return path.
        with pytest.raises(NoCycleError):
            eo.new_shift(2, [[False, True], [False, True]])

    def test_letters_off_every_cycle_match_a_walk_from_each(self):
        """new_shift refuses exactly the letters from which no walk of one
        or more steps returns, found here by a walk from each letter, and
        names them all.  Random relations on up to 7 letters, some with
        self-loops, and two cycles joined one way by a transient letter."""
        def off_cycle(allowed):
            k, bad = len(allowed), []
            for a in range(k):
                seen, todo = set(), [b for b in range(k) if allowed[a][b]]
                while todo:
                    if (u := todo.pop()) not in seen:
                        seen.add(u)
                        todo += [b for b in range(k) if allowed[u][b]]
                bad += [a] * (a not in seen)
            return bad

        rng = np.random.default_rng(5)
        # the fixed point 0 and the cycle 23, joined by the transient letter 1
        relations = [[[True, True, False, False], [False, False, True, False],
                      [False, False, False, True], [False, False, True, False]]]
        for trial in range(300):
            k = int(rng.integers(1, 8))
            allowed = rng.random((k, k)) < rng.uniform(0.05, 0.5)
            if trial % 3:
                np.fill_diagonal(allowed, False)
            relations.append(allowed.tolist())
        for allowed in relations:
            bad = off_cycle(allowed)
            if bad:
                with pytest.raises(NoCycleError, match=rf"^letters \[{', '.join(map(str, bad))}\] "):
                    eo.new_shift(len(allowed), allowed)
            else:
                assert eo.new_shift(len(allowed), allowed).allowed == tuple(map(tuple, allowed))
        assert off_cycle(relations[0]) == [1]
        assert 50 < sum(map(bool, map(off_cycle, relations))) < 250

    def test_long_upper_triangular_shift(self):
        """On 512 letters, a < b plus the back edge 511 -> 0 puts every
        letter on a cycle; the back edge 511 -> 1 leaves 0 on none."""
        k = 512
        upper = np.triu(np.ones((k, k), dtype=bool), 1)
        upper[k - 1, 0] = True
        assert eo.new_shift(k, upper.tolist()).k == k
        upper[k - 1, 0], upper[k - 1, 1] = False, True
        with pytest.raises(NoCycleError, match=r"^letters \[0\] "):
            eo.new_shift(k, upper.tolist())

    def test_relation_array_is_cached_and_read_only(self, golden):
        relation = golden._relation
        assert relation is golden._relation and not relation.flags.writeable
        assert relation.tolist() == [list(row) for row in golden.allowed]

    def test_empty_word_always_admissible(self, golden):
        assert golden.is_admissible(())

    def test_letter_outside_the_alphabet_is_inadmissible(self, golden):
        assert not golden.is_admissible((0, 2))
        assert not golden.is_admissible((-1,))

    def test_relation_that_is_not_k_by_k_rejected(self):
        with pytest.raises(NoCycleError):
            eo.new_shift(2, [[True, True]])
        with pytest.raises(NoCycleError):
            eo.new_shift(2, [[True], [True]])


class TestWords:
    def test_full_shift_word_count_matches_power(self, full2):
        for n in range(1, 9):
            assert len(eo.admissible_words(full2, n)) == 2 ** n

    def test_word_count_equals_transition_matrix_power(self, golden):
        """Independent oracle: #admissible words of length n is the total
        mass of the (n-1)-th power of the transition matrix."""
        A = np.array([[1, 1], [1, 0]], dtype=object)
        for n in range(1, 12):
            expected = int(np.sum(np.linalg.matrix_power(A, n - 1)))
            assert len(eo.admissible_words(golden, n)) == expected

    def test_words_sorted_lexicographically(self, golden):
        words = eo.admissible_words(golden, 3)
        assert words == sorted(words)

    def test_every_subword_admissible(self, golden):
        for w in eo.admissible_words(golden, 5):
            for i in range(5):
                for j in range(i, 6):
                    assert golden.is_admissible(w[i:j])

    def test_word_string_round_trip(self):
        assert eo.word_to_str((0, 1, 1)) == "011"
        assert eo.str_to_word("011") == (0, 1, 1)
        assert eo.str_to_word(eo.word_to_str((2, 0, 1))) == (2, 0, 1)

    def test_every_word_string_reads_back(self):
        """One letter 10 or above renders with a trailing comma, so that
        "10," (one letter) and "10" (two letters) name different words."""
        assert eo.word_to_str((10,)) == "10,"
        assert eo.word_to_str((1, 0)) == "10"
        assert eo.str_to_word("10,") == (10,)
        rng = np.random.default_rng(12)
        for k in range(1, 13):
            for length in range(0, 6):
                for _ in range(20):
                    w = tuple(rng.integers(0, k, length).tolist())
                    assert eo.str_to_word(eo.word_to_str(w)) == w

    @pytest.mark.parametrize("s", ["x", ",", "1,,2", "10,,", "-1"])
    def test_malformed_word_string_is_a_parse_error(self, s):
        with pytest.raises(ParseError):
            eo.str_to_word(s)


class TestCycles:
    def brute_cycles(self, space, p_max):
        """Oracle: filter all words by cyclic admissibility, primitivity and
        canonical rotation, with no shared code with enumerate_cycles."""
        out = set()
        for p in range(1, p_max + 1):
            for w in eo.admissible_words(space, p):
                if not space.is_cyclically_admissible(w):
                    continue
                rots = [w[i:] + w[:i] for i in range(p)]
                if any(len(w) % q == 0 and w == w[:q] * (p // q)
                       for q in range(1, p)):
                    continue
                out.add(min(rots))
        return out

    def test_full_shift_period_two(self, full2):
        got = {c.word for c in eo.enumerate_cycles(full2, 2)}
        assert got == {(0,), (1,), (0, 1)}

    def test_matches_oracle(self, full2, golden):
        for space in (full2, golden):
            for p_max in range(1, 8):
                got = {c.word for c in eo.enumerate_cycles(space, p_max)}
                assert got == self.brute_cycles(space, p_max)

    @pytest.mark.parametrize("name", ["full2", "full3", "golden", "sft3",
                                      "sparse8", "sparse10"])
    def test_same_list_as_brute_force(self, name):
        space, p_max = _cycle_test_spaces()[name]
        got = [c.word for c in eo.enumerate_cycles(space, p_max)]
        assert got == _brute_cycle_list(space, p_max)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_random_shifts_match_brute_force(self, k):
        """Random shifts on k letters at p_max 1 to 9, against the brute-force
        oracle: dense and sparse transitions, one cyclic permutation (a
        single cycle of period k), and a random permutation (disjoint
        cycles).  p_max is lowered while the oracle would list more than
        20 000 words."""
        rng = np.random.default_rng(k)
        for trial in range(12):
            perm = rng.permutation(k)
            allowed = np.zeros((k, k), dtype=bool)
            if trial % 4 == 0:
                allowed[perm, np.roll(perm, -1)] = True
            else:
                allowed[np.arange(k), perm] = True
                if trial % 4 > 1:
                    allowed |= rng.random((k, k)) < (0.2 if trial % 4 == 2 else 0.7)
            space = eo.new_shift(k, allowed.tolist())
            p_max = int(rng.integers(1, 10))
            counts = np.ones(k, dtype=np.int64)
            for p in range(2, p_max + 1):
                counts = counts @ allowed
                if counts.sum() > 20_000:
                    p_max = p - 1
                    break
            got = [c.word for c in eo.enumerate_cycles(space, p_max)]
            assert got == _brute_cycle_list(space, p_max), (k, trial, p_max)
            if trial % 4 == 0:
                assert got == ([tuple(np.roll(perm, -int(perm.argmin())).tolist())]
                               if p_max >= k else [])

    def test_one_letter_shift_at_a_huge_p_max(self):
        """The walk drops a prenecklace from whose last letter no letter
        above its first is reachable, so on the one-letter shift it stops
        after its first level; a walk of every prenecklace would copy about
        p_max^2 letters here."""
        assert eo.enumerate_cycles(eo.new_shift(1), 10**5) == [eo.Cycle((0,))]

    def test_level_past_the_limit_is_refused(self):
        """On the full 11-shift the walk's level of length 8 would hold
        29 908 273 prenecklaces, about 1.9 GB of letters: it is counted from
        the level before and refused, where it used to run out of memory."""
        with pytest.raises(eo.errors.BudgetExceededError,
                           match="^29908273 prenecklaces of length 8 exceed .*; lower p_max$"):
            eo.enumerate_cycles(eo.new_shift(11), 11)

    def test_full_4_shift_at_the_default_p_max_is_walked(self):
        """The full 4-shift's level of length 12, 1 924 377 prenecklaces, is
        under the limit: all its Lyndon words come back, as many of each
        length n as 4^n = sum over d | n of d L(d) gives."""
        L = {}
        for n in range(1, 13):
            L[n] = (4**n - sum(d * L[d] for d in range(1, n) if n % d == 0)) // n
        cycles = eo.enumerate_cycles(eo.new_shift(4), 12)
        assert Counter(c.period for c in cycles) == L
        assert cycles[-1] == eo.Cycle((2,) + (3,) * 11)

    def test_order_is_period_then_lex(self, full2):
        cycles = eo.enumerate_cycles(full2, 4)
        keys = [(c.period, c.word) for c in cycles]
        assert keys == sorted(keys)

    def test_canonical_rotation(self):
        assert eo.canonical_rotation((1, 0, 1)) == (0, 1, 1)
        assert eo.canonical_rotation((0,)) == (0,)

    def test_primitivity(self):
        assert eo.is_primitive((0, 1))
        assert not eo.is_primitive((0, 1, 0, 1))
        assert eo.is_primitive((0, 1, 1))

    def test_make_cycle_canonicalizes(self, full2):
        c = eo.make_cycle(full2, (1, 0))
        assert c.word == (0, 1)
        assert c.period == 2

    def test_make_cycle_rejects_inadmissible(self, golden):
        with pytest.raises(InadmissibleWordError):
            eo.make_cycle(golden, (1, 1))

    def test_cycle_is_slotted(self, full2):
        """A Cycle holds its word in a slot, with no per-instance __dict__
        (a cycle walk can return millions of them): it still pickles and
        copies to an equal value, and hashes as the tuple of its fields."""
        c = eo.make_cycle(full2, (1, 0, 1))
        assert not hasattr(c, "__dict__")
        for other in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
            assert other == c and hash(other) == hash(c)
        assert hash(c) == hash(((0, 1, 1),))

    def test_windows_wrap_around(self, full2):
        c = eo.make_cycle(full2, (0, 1))
        assert c.windows(3) == [(0, 1, 0), (1, 0, 1)]


class TestConnect:
    def test_trivial_self_connection_takes_a_step(self, full2):
        path = eo.connect(full2, 0, 0)
        assert path[0] == 0 and path[-1] == 0
        assert len(path) >= 2

    def test_golden_mean_1_to_1_goes_through_0(self, golden):
        assert eo.connect(golden, 1, 1) == (1, 0, 1)

    def test_path_is_admissible(self, golden):
        for a in (0, 1):
            for b in (0, 1):
                path = eo.connect(golden, a, b)
                assert golden.is_admissible(path)
                assert path[0] == a and path[-1] == b

    def test_unreachable(self):
        # Two disjoint self-loops: no path between the components.
        space = eo.new_shift(2, [[True, False], [False, True]])
        with pytest.raises(UnreachableError):
            eo.connect(space, 0, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_lexicographically_least_shortest_word(self, seed):
        """Oracle: the first admissible word from a to b, a == b included,
        of the least length >= 2 that has one, read off `admissible_words`
        (lexicographic order); no such word up to length k + 1 means b is
        unreachable from a."""
        rng = np.random.default_rng(seed)
        space = _sparse_shift(int(rng.integers(2, 7)), float(rng.uniform(0.15, 0.6)), seed)
        k = space.k
        for a in range(k):
            for b in range(k):
                expected = next((w for n in range(2, k + 2) for w in eo.admissible_words(space, n)
                                 if w[0] == a and w[-1] == b), None)
                if expected is None:
                    with pytest.raises(UnreachableError):
                        eo.connect(space, a, b)
                else:
                    assert eo.connect(space, a, b) == expected


class TestPoints:
    def test_point_distance_basics(self):
        assert eo.point_distance((0, 0, 0), (0, 0, 0)) == 0
        assert eo.point_distance((1, 0), (0, 0)) == 1
        assert eo.point_distance((0, 1, 0), (0, 0, 0)) == 0.5

    def test_point_distance_symmetric_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y, z = (tuple(rng.integers(0, 2, 8)) for _ in range(3))
            assert eo.point_distance(x, y) == eo.point_distance(y, x)
            assert eo.point_distance(x, z) <= (
                eo.point_distance(x, y) + eo.point_distance(y, z))

    def test_iter_point_periodic(self, full2):
        from itertools import islice

        c = eo.make_cycle(full2, (0, 1))
        assert list(islice(eo.iter_point((), c), 6)) == [0, 1, 0, 1, 0, 1]
        assert list(islice(eo.iter_point((1, 1), c), 5)) == [1, 1, 0, 1, 0]


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
        """Oracle: every word over the alphabet whose cyclic 2-words are
        allowed, kept when primitive and equal to its least rotation, then
        sorted by (period, word); no shared code with enumerate_cycles."""
        space, p_max = _cycle_test_spaces()[name]
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
        want.sort(key=lambda w: (len(w), w))
        assert [c.word for c in eo.enumerate_cycles(space, p_max)] == want

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

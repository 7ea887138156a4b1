"""Row insertion, recording, elementary moves, and shape counting."""

import math

import pytest
from hypothesis import given, strategies as st

from conftest import inverse_rsk, is_standard, standard_tableaux
from permlab.core import s_n
from permlab.tableau import (
    count_syt,
    format_tableau,
    knuth_class,
    knuth_neighbors,
    partitions,
    rsk,
    shape_of,
)

perms = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


class TestRsk:
    def test_anchor(self):
        p, q = rsk((2, 4, 1, 3))
        assert p == ((1, 3), (2, 4))
        assert q == ((1, 2), (3, 4))

    def test_longer_anchor(self):
        p, q = rsk((2, 4, 1, 6, 3, 5))
        assert p == ((1, 3, 5), (2, 4, 6))
        assert q == ((1, 2, 4), (3, 5, 6))

    @given(perms)
    def test_roundtrip(self, w):
        p, q = rsk(w)
        assert is_standard(p) and is_standard(q)
        assert shape_of(p) == shape_of(q)
        assert inverse_rsk(p, q) == w

    def test_inverse_rejects_mismatched_shapes(self):
        p, _ = rsk((1, 2, 3))
        _, q = rsk((3, 2, 1))
        with pytest.raises(ValueError):
            inverse_rsk(p, q)

    def test_format(self):
        p, _ = rsk((2, 4, 1, 6, 3, 5))
        assert format_tableau(p) == "1 3 5\n2 4 6"


class TestKnuthMoves:
    def test_chain(self):
        assert knuth_neighbors((2, 4, 1, 3, 5)) == {(2, 1, 4, 3, 5)}
        assert knuth_neighbors((2, 1, 4, 3, 5)) == {(2, 4, 1, 3, 5), (2, 1, 4, 5, 3)}

    def test_monotone_has_no_moves(self):
        for n in range(3, 7):
            assert knuth_neighbors(tuple(range(1, n + 1))) == set()

    def test_moves_preserve_insertion_tableau(self):
        for w in s_n(5):
            p, _ = rsk(w)
            for u in knuth_neighbors(w):
                assert rsk(u)[0] == p

    def test_closure_equals_equal_p_partition(self):
        for n in range(0, 6):
            by_p = {}
            for w in s_n(n):
                by_p.setdefault(rsk(w)[0], set()).add(w)
            for w in s_n(n):
                assert knuth_class(w) == by_p[rsk(w)[0]]

    def test_s3_classes(self):
        classes = {frozenset(knuth_class(w)) for w in s_n(3)}
        assert classes == {
            frozenset({(1, 2, 3)}),
            frozenset({(1, 3, 2), (3, 1, 2)}),
            frozenset({(2, 1, 3), (2, 3, 1)}),
            frozenset({(3, 2, 1)}),
        }

    def test_class_sizes_census(self):
        for n, expect in [(1, 1), (2, 2), (3, 4), (4, 10), (5, 26)]:
            assert len({rsk(w)[0] for w in s_n(n)}) == expect


class TestShapes:
    def test_partitions(self):
        assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert list(partitions(0)) == [()]

    def test_count_syt_anchor(self):
        assert count_syt((2, 2, 2)) == 5
        assert count_syt((1,)) == 1
        assert count_syt(()) == 1

    def test_count_syt_matches_listing(self):
        for n in range(0, 7):
            for shape in partitions(n):
                assert count_syt(shape) == len(standard_tableaux(shape))

    def test_hook_syt_counts_are_binomials(self):
        for n in range(1, 8):
            hooks = [(a,) + (1,) * (n - a) for a in range(1, n + 1)]
            counts = sorted(count_syt(s) for s in hooks)
            assert counts == sorted(math.comb(n - 1, r) for r in range(n))
            assert sum(counts) == 2 ** (n - 1)

    def test_square_of_counts_sums_to_factorial(self):
        for n in range(0, 7):
            assert sum(count_syt(s) ** 2 for s in partitions(n)) == math.factorial(n)

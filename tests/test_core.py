"""Word-level operations: parsing, algebra, circular machinery."""

import pytest
from hypothesis import given, strategies as st

from conftest import compose, toric_class
from permlab.core import (
    complement,
    cycle_type,
    cycles,
    descent_set,
    format_perm,
    identity,
    inverse,
    oplus,
    order,
    parse_perm,
    reverse,
    s_n,
)
from permlab.errors import ParseError

perms = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


class TestParsing:
    def test_digits(self):
        assert parse_perm("241635") == (2, 4, 1, 6, 3, 5)

    def test_commas(self):
        assert parse_perm("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)

    def test_empty(self):
        assert parse_perm("") == ()

    @pytest.mark.parametrize("bad", ["122", "13", "0", "2,3", "abc"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_perm(bad)

    def test_format_small_uses_digits(self):
        assert format_perm((2, 4, 1, 6, 3, 5)) == "241635"

    def test_format_large_uses_commas(self):
        w = tuple(range(10, 0, -1))
        assert format_perm(w) == "10,9,8,7,6,5,4,3,2,1"

    @given(perms)
    def test_roundtrip(self, w):
        assert parse_perm(format_perm(w)) == w


class TestAlgebra:
    def test_compose_anchor(self):
        assert compose(parse_perm("246135"), parse_perm("362514")) == parse_perm("654321")

    def test_compose_is_sigma_after_tau(self):
        sigma, tau = (2, 1, 3), (3, 1, 2)
        out = compose(sigma, tau)
        assert all(out[i] == sigma[tau[i] - 1] for i in range(3))

    def test_inverse_anchor(self):
        assert inverse((2, 4, 1, 3)) == (3, 1, 4, 2)

    @given(perms)
    def test_involutions(self, w):
        assert reverse(reverse(w)) == w
        assert complement(complement(w)) == w
        assert inverse(inverse(w)) == w

    @given(perms)
    def test_inverse_composes_to_identity(self, w):
        assert compose(w, inverse(w)) == identity(len(w))

    def test_cycles_anchor(self):
        assert cycles(parse_perm("948167523")) == ((1, 9, 3, 8, 2, 4), (5, 6, 7))
        assert cycle_type(parse_perm("948167523")) == (6, 3)

    def test_order_is_lcm(self):
        assert order((4, 1, 5, 2, 6, 3)) == 3
        assert order(identity(4)) == 1
        assert order((2, 1, 4, 5, 3)) == 6

    @given(perms)
    def test_conjugation_preserves_cycle_type(self, w):
        n = len(w)
        for sigma in list(s_n(n))[:6]:
            conj = compose(compose(sigma, w), inverse(sigma))
            assert cycle_type(conj) == cycle_type(w)

    def test_descents(self):
        assert descent_set((2, 4, 1, 6, 3, 5)) == frozenset({2, 4})
        assert descent_set(identity(5)) == frozenset()


class TestCircular:
    def test_oplus_anchor(self):
        assert oplus((1, 2, 4, 3), 2) == (2, 3, 4, 1)
        assert oplus((4, 3, 7, 2, 1, 5, 6), 1) == (3, 2, 6, 7, 1, 5, 4)

    @given(perms, st.integers(min_value=0, max_value=13))
    def test_oplus_group_action(self, w, a):
        n = len(w)
        assert oplus(w, 0) == w
        assert oplus(w, n + 1) == w
        for b in range(n + 2):
            assert oplus(oplus(w, a), b) == oplus(w, (a + b) % (n + 1))

    def test_toric_class_anchor(self):
        assert toric_class((1, 2, 4, 3)) == frozenset(
            {(1, 2, 4, 3), (4, 1, 2, 3), (2, 3, 4, 1), (2, 1, 3, 4), (1, 3, 2, 4)}
        )

    @given(perms)
    def test_toric_class_sizes_divide(self, w):
        assert (len(w) + 1) % len(toric_class(w)) == 0

    def test_reverse_complement_commute_with_circle(self):
        # Reversing w reads the circle 0|w backwards, which commutes with
        # adding m; complementing negates every letter mod n+1, which turns
        # adding m into adding -m.
        for w in s_n(5):
            for m in range(7):
                assert reverse(oplus(w, m)) == oplus(reverse(w), m)
                assert complement(oplus(w, m)) == oplus(complement(w), -m)

    def test_inverse_orbit_identity(self):
        for w in s_n(5):
            lhs = {inverse(u) for u in toric_class(w)}
            assert lhs == toric_class(inverse(w))

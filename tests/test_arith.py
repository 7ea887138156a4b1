"""Trial-division arithmetic and the permutations built from it."""

import math

import pytest
from hypothesis import given, strategies as st

from permlab.arith import (
    EULER_GAMMA,
    NaturalPermutation,
    divisor_perms,
    divisors,
    factorize,
    mobius,
    natural_perms,
    robin_check,
    sigma_arith,
    sigma_via_divisor_perms,
    steggall_census,
    totient,
)
from conftest import compose, place_by_steps, sieve_sigma, toric_class_total


class TestElementary:
    def test_factorize(self):
        assert factorize(1) == []
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(97) == [(97, 1)]

    @given(st.integers(min_value=1, max_value=5000))
    def test_factorize_reconstructs(self, n):
        assert math.prod(p**e for p, e in factorize(n)) == n

    def test_divisors(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert len(divisors(12)) == 6

    def test_mobius(self):
        assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_mobius_sum_over_divisors(self):
        for n in range(2, 200):
            assert sum(mobius(d) for d in divisors(n)) == 0

    def test_totient(self):
        assert [totient(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_totient_sum_over_divisors(self):
        for n in range(1, 200):
            assert sum(totient(d) for d in divisors(n)) == n

    def test_sigma_against_sieve(self):
        sieve = sieve_sigma(2000)
        for n in range(1, 2001):
            assert sigma_arith(n) == sieve[n]


class TestNaturalPerms:
    def test_anchor_words(self):
        assert NaturalPermutation(2, 4).word == (3, 1, 4, 2)
        assert NaturalPermutation(3, 6).word == (5, 3, 1, 6, 4, 2)
        assert NaturalPermutation(4, 6).word == (2, 4, 6, 1, 3, 5)

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            NaturalPermutation(3, 5)
        with pytest.raises(ValueError):
            NaturalPermutation(0, 4)

    def test_against_placement_oracle(self):
        for n in range(1, 13):
            for w in natural_perms(n):
                assert w.word == place_by_steps(w.k, n)

    def test_counts_are_totients(self):
        assert [len(natural_perms(n)) for n in range(1, 11)] == [
            totient(n + 1) for n in range(1, 11)]

    def test_one_position(self):
        for n in range(1, 12):
            for w in natural_perms(n):
                assert w.word.index(1) + 1 == w.one_position() == w.k

    def test_increment_is_first_letter_and_constant(self):
        for n in range(1, 12):
            for w in natural_perms(n):
                assert w.word[0] == w.increment
                m = n + 1
                diffs = {(b - a) % m for a, b in zip(w.word, w.word[1:])}
                assert diffs <= {w.increment % m}

    def test_first_plus_last_letter(self):
        for n in range(1, 16):
            for w in natural_perms(n):
                assert w.word[0] + w.word[-1] == n + 1

    def test_group_homomorphism(self):
        for n in range(1, 9):
            words = natural_perms(n)
            for a in words:
                for b in words:
                    kk = a.k * b.k % (n + 1)
                    assert compose(a.word, b.word) == NaturalPermutation(kk, n).word

    def test_reverse_complement_inverse(self):
        from permlab.core import complement, inverse, reverse

        for n in range(1, 13):
            for w in natural_perms(n):
                assert reverse(w.word) == NaturalPermutation(n + 1 - w.k, n).word
                assert complement(w.word) == NaturalPermutation(n + 1 - w.k, n).word
                assert inverse(w.word) == NaturalPermutation(w.increment, n).word


class TestDivisorPerms:
    def test_twelve(self):
        words = divisor_perms(12)
        assert [w.k for w in words] == [1, 2, 3, 4, 6, 12]
        assert words[2].word == (9, 5, 1, 10, 6, 2, 11, 7, 3, 12, 8, 4)

    def test_block_structure(self):
        # The word splits into n/k blocks of length k, each an arithmetic
        # descent; block leaders n+1-n/k .. n, block tails 1 .. n/k.
        for n in (6, 8, 12, 20):
            for w in divisor_perms(n):
                k = w.k
                blocks = [w.word[i * k: (i + 1) * k] for i in range(n // k)]
                step = w.increment - (n + 1)
                for j, block in enumerate(blocks):
                    assert block[0] == n + 1 - n // k + j
                    assert block[-1] == j + 1
                    assert all(b - a == step for a, b in zip(block, block[1:]))

    def test_last_letter(self):
        for n in range(1, 25):
            for w in divisor_perms(n):
                assert w.word[-1] == n // w.k
                assert w.is_divisor_word

    def test_sigma_routes_agree(self):
        for n in range(1, 400):
            assert sigma_via_divisor_perms(n) == sigma_arith(n)

    def test_sigma_twelve(self):
        assert sigma_via_divisor_perms(12) == 28


class TestSteggall:
    def test_printed_factorizations(self):
        assert steggall_census(4) == {1: 4, 5: 4}
        assert steggall_census(5) == {1: 2, 2: 2, 3: 2, 6: 18}
        assert steggall_census(6) == {1: 6, 7: 102}
        assert steggall_census(7) == {1: 4, 2: 2, 4: 10, 8: 624}
        assert steggall_census(8) == {1: 6, 3: 10, 9: 4476}

    def test_small_degrees(self):
        assert steggall_census(0) == {1: 1}
        assert steggall_census(1) == {1: 1}
        assert steggall_census(2) == {1: 2}
        assert steggall_census(3) == {1: 2, 4: 1}

    def test_weighted_total_is_factorial(self):
        for n in range(0, 12):
            got = sum(size * count for size, count in steggall_census(n).items())
            assert got == math.factorial(n)

    def test_size_one_count_is_totient(self):
        for n in range(1, 16):
            assert steggall_census(n)[1] == totient(n + 1)

    def test_totals_against_closed_form(self):
        for n in range(0, 14):
            assert sum(steggall_census(n).values()) == toric_class_total(n)

    def test_totals_row(self):
        assert [toric_class_total(n) for n in range(0, 9)] == [
            1, 1, 2, 3, 8, 24, 108, 640, 4492]


class TestRobin:
    def test_gamma_literal(self):
        assert abs(EULER_GAMMA - 0.5772156649015329) == 0

    def test_violation_at_5040(self):
        r = robin_check(5040)
        assert r.sigma == 19344
        assert r.holds is False
        assert not r.inconclusive

    def test_small_exceptions_and_holds(self):
        assert robin_check(12).holds is False
        assert robin_check(5041).holds is True
        assert robin_check(10000).holds is True

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            robin_check(2)

    def test_bound_value(self):
        r = robin_check(5040)
        expect = math.exp(EULER_GAMMA) * 5040 * math.log(math.log(5040))
        assert r.bound == expect
        assert r.sigma > r.bound

"""Equivalence relations, class keys and sizes, censuses."""

import math
from collections import Counter
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, strategies as st

from conftest import (
    brute_census,
    class_representatives,
    oracle_classes,
    perms_with_cycle_type,
    toric_class,
    toric_class_total,
)
from permlab.arith import steggall_census
from permlab.core import cycle_type, order, s_n
from permlab.errors import BudgetExceeded, InternalCheckError
from permlab.relations import (
    RELATIONS,
    ClassCensus,
    _coarsenings,
    census,
    check_budget,
    resolve_budget,
)


def class_size(rel, w):
    """Closed-form size of w's class."""
    return rel.class_size(len(w), rel.key(w))


def test_coarsenings_join_labelled_paths():
    # r labelled paths lie on consecutive nodes, each node stepping to the
    # next; every sigma of S_r sends the end of path a to the start of path
    # sigma(a). The cycle types of the words built so are the coarsenings,
    # for every multiset of path lengths with sum at most 7.
    multisets = {tuple(sorted(lengths, reverse=True)) for r in range(8)
                 for lengths in combinations_with_replacement(range(1, 8), r) if sum(lengths) <= 7}
    assert len(multisets) == 45  # p(0) + ... + p(7)
    for lengths in multisets:
        starts = [sum(lengths[:a]) + 1 for a in range(len(lengths))]
        want = set()
        for sigma in permutations(range(len(lengths))):
            word = list(range(2, sum(lengths) + 2))
            for a, b in enumerate(sigma):
                word[starts[a] + lengths[a] - 2] = starts[b]
            want.add(cycle_type(word))
        assert _coarsenings(lengths) == want, lengths


class TestCycleTypeGeneration:
    def test_three_cycles_of_s3(self):
        assert sorted(perms_with_cycle_type(3, (3,))) == [(2, 3, 1), (3, 1, 2)]

    def test_exactly_once_all_types(self):
        for n in range(0, 7):
            seen = []
            from permlab.tableau import partitions

            for shape in partitions(n):
                members = list(perms_with_cycle_type(n, shape))
                assert all(cycle_type(w) == shape for w in members)
                seen.extend(members)
            assert len(seen) == math.factorial(n)
            assert len(set(seen)) == len(seen)

    def test_sizes_match_formula(self):
        from collections import Counter

        for n in range(1, 7):
            from permlab.tableau import partitions

            for shape in partitions(n):
                mult = Counter(shape)
                expect = math.factorial(n)
                for length, m in mult.items():
                    expect //= length**m * math.factorial(m)
                assert len(list(perms_with_cycle_type(n, shape))) == expect


class TestClassOf:
    @pytest.mark.parametrize("rel_name", sorted(RELATIONS))
    def test_class_of_equals_key_grouping(self, rel_name):
        """The key groups S_n into exactly the oracle's classes, and the class
        size of each member is the size of its class."""
        rel = RELATIONS[rel_name]
        for n in range(0, 6):
            by_key = {}
            for w in s_n(n):
                by_key.setdefault(rel.key(w), set()).add(w)
            assert sorted(map(sorted, by_key.values())) == sorted(
                map(sorted, oracle_classes(rel_name, n))), (rel_name, n)
            for w in s_n(n):
                assert class_size(rel, w) == len(by_key[rel.key(w)]), (rel_name, w)

    def test_identity_alone_in_conjugacy_class(self):
        rel, e = RELATIONS["conjugacy"], tuple(range(1, 6))
        assert class_size(rel, e) == 1
        assert [w for w in s_n(5) if rel.key(w) == rel.key(e)] == [e]

    def test_order_unions_conjugacy(self):
        rel = RELATIONS["order"]
        conj = RELATIONS["conjugacy"]
        for w in s_n(5):
            same_order = {u for u in s_n(5) if order(u) == order(w)}
            assert {u for u in s_n(5) if rel.key(u) == rel.key(w)} == same_order
            one_per_type = {cycle_type(u): u for u in same_order}
            assert class_size(rel, w) == len(same_order) == sum(
                class_size(conj, u) for u in one_per_type.values())

    def test_toric_class_anchor(self):
        rel = RELATIONS["toric"]
        key = rel.key((1, 2, 4, 3))
        assert {w for w in s_n(4) if rel.key(w) == key} == {
            (1, 2, 4, 3), (4, 1, 2, 3), (2, 3, 4, 1), (2, 1, 3, 4), (1, 3, 2, 4)}
        assert class_size(rel, (1, 2, 4, 3)) == 5

    @pytest.mark.parametrize("n", range(9))
    def test_toric_keys_number_the_classes(self, n):
        """The packed step keys of S_n, in fields of 0 to 4 bits, are as
        many as the classes counted by a closed form that reads no key."""
        key = RELATIONS["toric"].key
        assert len(set(map(key, s_n(n)))) == toric_class_total(n)

    @given(st.integers(min_value=0, max_value=17).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)))
    def test_toric_key_against_orbit(self, w):
        """The step key is constant on the shift orbit, and the closed-form
        size is the orbit's length. Degrees up to 17 take the fields from 4
        bits to 5 at n = 16."""
        rel = RELATIONS["toric"]
        orbit = toric_class(w)
        assert {rel.key(u) for u in orbit} == {rel.key(w)}
        assert class_size(rel, w) == len(orbit)

    @pytest.mark.parametrize("n", [7, 8])
    def test_toric_sizes_match_steggall(self, n):
        """n+1 = 8 has periods 1, 2, 4, 8 and n+1 = 9 has 1, 3, 9; the sizes of
        the distinct keys of S_n, tallied by size, give the counting formula."""
        rel = RELATIONS["toric"]
        keys = {rel.key(w) for w in s_n(n)}
        assert dict(Counter(rel.class_size(n, k) for k in keys)) == steggall_census(n)

    @pytest.mark.parametrize("rel_name", ["conjugacy", "order", "knuth", "toric", "descent"])
    def test_closed_form_sizes_at_seven(self, rel_name):
        rel = RELATIONS[rel_name]
        for cls in oracle_classes(rel_name, 7):
            w = min(cls)
            assert rel.class_size(7, rel.key(w)) == len(cls), (rel_name, w)


class TestCensus:
    @pytest.mark.parametrize("rel_name", sorted(RELATIONS))
    def test_census_equals_brute(self, rel_name):
        rel = RELATIONS[rel_name]
        for n in range(0, 9):
            assert census(rel, n).by_size == brute_census(rel, n).by_size, n

    def test_toric_anchor(self):
        assert census(RELATIONS["toric"], 5).by_size == {1: 2, 2: 2, 3: 2, 6: 18}

    def test_conjugacy_class_counts(self):
        got = [census(RELATIONS["conjugacy"], n).class_count for n in range(1, 8)]
        assert got == [1, 2, 3, 5, 7, 11, 15]

    def test_order_class_counts(self):
        got = [census(RELATIONS["order"], n).class_count for n in range(1, 8)]
        assert got == [1, 2, 3, 4, 6, 6, 9]

    def test_knuth_class_counts(self):
        got = [census(RELATIONS["knuth"], n).class_count for n in range(1, 7)]
        assert got == [1, 2, 4, 10, 26, 76]

    def test_descent_census(self):
        by_size = census(RELATIONS["descent"], 5).by_size
        assert sum(by_size.values()) == 16
        assert sum(size * count for size, count in by_size.items()) == 120

    def test_census_validates_total(self):
        with pytest.raises(InternalCheckError):
            ClassCensus(relation="conjugacy", n=3, by_size={1: 1, 2: 1})

    def test_representatives_are_lex_least(self):
        for rel_name in sorted(RELATIONS):
            rel = RELATIONS[rel_name]
            reps = list(class_representatives(rel, 4))
            assert reps == sorted(reps)
            assert all(w == min(u for u in s_n(4) if rel.key(u) == rel.key(w)) for w in reps)
            assert sum(class_size(rel, w) for w in reps) == 24


class TestBudget:
    def test_default(self):
        assert resolve_budget(None) == 9

    def test_argument_wins(self):
        assert resolve_budget(4) == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("PERMLAB_BUDGET_N", "7")
        assert resolve_budget(None) == 7

    def test_zero_is_valid(self, monkeypatch):
        assert resolve_budget(0) == 0
        monkeypatch.setenv("PERMLAB_BUDGET_N", "0")
        assert resolve_budget(None) == 0

    def test_check_raises(self):
        with pytest.raises(BudgetExceeded):
            check_budget(10, None)
        check_budget(9, None)
        check_budget(12, 12)

"""Occurrence test and pattern algebra."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from permlab.core import s_n
from permlab.errors import ParseError
from permlab.pattern import (
    all_patterns,
    apply_symmetry,
    avoids,
    format_pattern,
    matches,
    occurrences,
    parse_pattern,
    pat_complement,
    pat_inverse,
    pat_reverse,
    pat_shift,
    pattern,
    shift_orbit,
)
from conftest import (
    PERMS_BY_N,
    TABLE_K,
    TABLE_N,
    construction_mask,
    occurrence_mask,
    oracle_occurrences,
)

W = (2, 4, 1, 6, 3, 5)


class TestSectionExamples:
    def test_classical_123(self):
        occ = occurrences(pattern((1, 2, 3)), W)
        assert occ == [(1, 2, 4), (1, 2, 6), (1, 5, 6), (3, 5, 6)]
        assert sorted(tuple(W[i - 1] for i in o) for o in occ) == [
            (1, 3, 5), (2, 3, 5), (2, 4, 5), (2, 4, 6)]

    def test_position_adjacency(self):
        assert occurrences(pattern((1, 2, 3), x=[2]), W) == [(1, 5, 6), (3, 5, 6)]

    def test_value_adjacency(self):
        assert occurrences(pattern((1, 2, 3), y=[1]), W) == [(1, 5, 6)]

    def test_both_constraints_kill_all(self):
        assert avoids(pattern((1, 2, 3), y=[1, 2]), W)

    def test_classical_321_avoided(self):
        assert avoids(pattern((3, 2, 1)), W)

    def test_shift_worked_example(self):
        w = (7, 6, 1, 2, 8, 5, 4, 3)
        p = pattern((3, 4, 2, 1), x=[2, 3], y=[1, 2, 4])
        occ = occurrences(p, w)
        assert occ == [(2, 5, 6, 7)]
        assert tuple(w[i - 1] for i in occ[0]) == (6, 8, 5, 4)
        from permlab.core import oplus

        w2 = oplus(w, 1)
        assert w2 == (6, 5, 4, 1, 8, 7, 2, 3)
        occ2 = occurrences(pat_shift(p), w2)
        assert (1, 2, 4, 6) in occ2
        assert tuple(w2[i - 1] for i in (1, 2, 4, 6)) == (6, 5, 1, 7)


def _agrees(pat, w) -> bool:
    want = oracle_occurrences(pat, w)
    return occurrences(pat, w) == want and matches(pat, w) == bool(want)


class TestEngineAgainstOracle:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_short_patterns_everywhere(self, k):
        for pat in all_patterns(k):
            for n in range(0, 5):
                for w in s_n(n):
                    assert _agrees(pat, w), (str(pat), w)

    def test_length3_sample_s4(self):
        pats = list(all_patterns(3))
        for pat in pats[::7]:
            for w in s_n(4):
                assert _agrees(pat, w), (str(pat), w)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_patterns_random_words(self, data):
        k = data.draw(st.integers(0, 4))
        p = tuple(data.draw(st.permutations(list(range(1, k + 1)))))
        x = data.draw(st.sets(st.integers(0, k)))
        y = data.draw(st.sets(st.integers(0, k)))
        n = data.draw(st.integers(0, 6))
        w = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
        pat = pattern(p, x=x, y=y)
        assert _agrees(pat, w)


@st.composite
def _table_patterns(draw):
    k = draw(st.integers(0, TABLE_K))
    p = tuple(draw(st.permutations(list(range(1, k + 1)))))
    return pattern(p, x=draw(st.sets(st.integers(0, k))), y=draw(st.sets(st.integers(0, k))))


class TestSignatureTable:
    """The conftest signature table, the oracle of the prefix walks, of
    `occurrence_masks` and of class closure, against the definition itself:
    `oracle_occurrences` on every word of S_n up to S_5, and on 120 sampled
    words of S_6 and S_7."""

    @settings(max_examples=80, deadline=None)
    @given(pat=_table_patterns(), n=st.integers(0, TABLE_N), rng=st.randoms(use_true_random=False))
    @example(pat=pattern(()), n=0, rng=random.Random(0))                # k = 0
    @example(pat=pattern((), x=[0]), n=0, rng=random.Random(0))
    @example(pat=pattern((), y=[0]), n=3, rng=random.Random(0))
    @example(pat=pattern((2, 1, 3)), n=2, rng=random.Random(0))         # k > n
    @example(pat=pattern((1, 2), x=[0, 1, 2], y=[0, 1, 2]), n=2, rng=random.Random(0))  # fills S_2
    @example(pat=pattern((2, 4, 1, 3), x=[0, 4], y=[2]), n=7, rng=random.Random(0))     # k = 4, n = 7
    def test_against_oracle_occurrences(self, pat, n, rng):
        words = PERMS_BY_N[n]
        sample = range(len(words))
        if len(words) > 120:
            sample = rng.sample(sample, 120)
        mask = occurrence_mask(pat, n)
        for idx in sample:
            assert mask >> idx & 1 == bool(oracle_occurrences(pat, words[idx])), (
                str(pat), words[idx])


class TestConstructionOracle:
    """`conftest.construction_mask`, the oracle of the prefix walks past the
    signature table, against the table."""

    def test_every_short_pattern(self):
        for k in range(4):
            for pat in all_patterns(k):
                for n in range(7):
                    assert construction_mask(pat, n) == occurrence_mask(pat, n), (str(pat), n)

    def test_length4_sample_s7(self):
        for pat in itertools.islice(all_patterns(4), 0, None, 97):
            assert construction_mask(pat, 7) == occurrence_mask(pat, 7), str(pat)


class TestEmptyPattern:
    def test_plain_empty_occurs_everywhere(self):
        assert matches(pattern(()), ())
        assert matches(pattern(()), (2, 1))
        assert occurrences(pattern(()), (2, 1)) == [()]

    def test_anchored_empty_needs_empty_word(self):
        assert matches(pattern((), x=[0]), ())
        assert avoids(pattern((), x=[0]), (1,))
        assert avoids(pattern((), y=[0]), (2, 1))


class TestSymmetries:
    def test_reverse_complement_inverse_transport(self):
        from permlab.core import complement, inverse, reverse

        for pat in itertools.islice(all_patterns(3), 0, 300, 11):
            for w in s_n(4):
                assert matches(pat, w) == matches(pat_reverse(pat), reverse(w))
                assert matches(pat, w) == matches(pat_complement(pat), complement(w))
                assert matches(pat, w) == matches(pat_inverse(pat), inverse(w))

    def test_symmetries_are_involutions(self):
        for pat in itertools.islice(all_patterns(3), 0, 1536, 97):
            assert pat_reverse(pat_reverse(pat)) == pat
            assert pat_complement(pat_complement(pat)) == pat
            assert pat_inverse(pat_inverse(pat)) == pat

    def test_orbit_count_length3(self):
        # The toric relation lists all eight compositions of r, c and i: each
        # orbit equals the closure of its pattern under the three maps.
        from permlab.relations import TORIC

        seen = set()
        orbits = 0
        for pat in all_patterns(3):
            if pat in seen:
                continue
            closure, frontier = {pat}, [pat]
            while frontier:
                cur = frontier.pop()
                for nxt in (pat_reverse(cur), pat_complement(cur), pat_inverse(cur)):
                    if nxt not in closure:
                        closure.add(nxt)
                        frontier.append(nxt)
            assert closure == {apply_symmetry(pat, ops) for ops in TORIC.symmetries}, str(pat)
            seen |= closure
            orbits += 1
        assert orbits == 212

    def test_apply_symmetry_composes_left_to_right(self):
        pat = pattern((2, 3, 1), x=[0], y=[1, 3])
        assert apply_symmetry(pat, "rc") == pat_complement(pat_reverse(pat))
        assert apply_symmetry(pat, "") == pat


class TestShift:
    def test_shift_vectors(self):
        assert pat_shift(pattern((3, 4, 2, 1), x=[2, 3], y=[1, 2, 4])) == pattern(
            (3, 2, 1, 4), x=[0, 1], y=[0, 2, 3])
        assert pat_shift(pattern((1, 2), y=[0, 2])) == pattern((1, 2), y=[0, 1])
        assert pat_shift(pattern((1, 2, 3), x=[0], y=[0, 3])) == pattern(
            (1, 2, 3), x=[1], y=[0, 1])

    def test_shift_on_empty_is_identity(self):
        assert pat_shift(pattern(())) == pattern(())

    def test_orbit_terminates_and_contains_start(self):
        for pat in itertools.islice(all_patterns(3), 0, 1536, 131):
            orbit = shift_orbit(pat)
            assert pat in orbit
            assert 1 <= len(orbit) <= 8


class TestTextFormat:
    def test_parse_both_clauses(self):
        pat = parse_pattern("3421;x=2,3;y=1,2,4")
        assert pat == pattern((3, 4, 2, 1), x=[2, 3], y=[1, 2, 4])

    def test_parse_omitted_clauses(self):
        assert parse_pattern("231") == pattern((2, 3, 1))
        assert parse_pattern("231;y=0") == pattern((2, 3, 1), y=[0])
        assert parse_pattern("231;x=;y=") == pattern((2, 3, 1))

    def test_printer_emits_both_clauses(self):
        assert format_pattern(pattern((2, 3, 1))) == "231;x=;y="
        assert format_pattern(pattern((1,), x=[0], y=[0])) == "1;x=0;y=0"
        assert str(pattern((3, 4, 2, 1), x=[3, 2], y=[4, 1, 2])) == "3421;x=2,3;y=1,2,4"

    @pytest.mark.parametrize("bad", ["231;z=1", "132;x=9", "12;x=1;x=2", "122", "231;"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_pattern(bad)

    def test_roundtrip_all_length3(self):
        for pat in all_patterns(3):
            assert parse_pattern(format_pattern(pat)) == pat


class TestOccurrenceHelpers:
    def test_counts_all_patterns(self):
        assert sum(1 for _ in all_patterns(0)) == 4
        assert sum(1 for _ in all_patterns(1)) == 16
        assert sum(1 for _ in all_patterns(2)) == 128
        assert sum(1 for _ in all_patterns(3)) == 1536

"""Occurrence test and pattern algebra."""

import functools
import itertools
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from permlab.core import s_n
from permlab.errors import ParseError
from permlab import generate, pattern as pattern_module
from permlab.census import _pat_key, avoid_all, match_all
from permlab.pattern import (
    PatternCodes,
    _check,
    _tail,
    avoids,
    format_pattern,
    mask_table,
    matches,
    occurrence_total,
    occurrences,
    parse_pattern,
    pat_shift,
    pattern,
    shift_orbit,
    signature_masks,
)
from permlab.relations import RELATIONS
from conftest import (
    PERMS_BY_N,
    TABLE_K,
    TABLE_N,
    all_patterns,
    apply_symmetry,
    construction_mask,
    lex_words,
    occurrence_mask,
    occurrences_by_pattern,
    oracle_occurrences,
    pat_complement,
    pat_inverse,
    pat_reverse,
    scan_avoiders,
    scan_matchers,
    words_of,
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
def _table_patterns(draw, min_k: int = 0, max_k: int = TABLE_K):
    k = draw(st.integers(min_k, max_k))
    p = tuple(draw(st.permutations(list(range(1, k + 1)))))
    return pattern(p, x=draw(st.sets(st.integers(0, k))), y=draw(st.sets(st.integers(0, k))))


class TestSignatureTable:
    """The conftest signature table, the oracle of the prefix walks, of
    `signature_masks` and of class closure, against the definition itself:
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


class TestOccurrenceTotal:
    """`occurrence_total`, the bound by which a count-only class-avoid call
    walks the containers at once, against the occurrences that
    `oracle_occurrences` lists in each word of S_n."""

    @staticmethod
    def _oracle_total(pat, n: int) -> int:
        return sum(len(oracle_occurrences(pat, w)) for w in PERMS_BY_N[n])

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_every_short_pattern(self, k):
        for pat in all_patterns(k):
            for n in range(7):
                assert occurrence_total(pat, n) == self._oracle_total(pat, n), (str(pat), n)

    def test_sampled_long_patterns(self):
        # Seeded draws of lengths 4 and 5, X and Y of density 0 to 3/4, and
        # two patterns whose X is all of 0..k; below n = k the total is 0.
        rng = random.Random(27)
        pats = [_draw_pattern(rng, k, density) for k in (4, 5) for density in (0.0, 0.25, 0.5, 0.75)
                for _ in range(3)]
        pats += [pattern((2, 4, 1, 3), x=range(5)), pattern((3, 1, 5, 2, 4), x=range(6), y=[0, 5])]
        for side in ("x", "y"):
            assert any(0 in getattr(pat, side) for pat in pats), side
            assert any(pat.k in getattr(pat, side) for pat in pats), side
        for pat in pats:
            for n in range(7):
                assert occurrence_total(pat, n) == self._oracle_total(pat, n), (str(pat), n)


def _rewrite(pat) -> str:
    """Which rewrite of `_kernel` its plan selects, read off the plan's
    steps: 'bitmask' when the only free step is a loop, which becomes the
    bitmask of its values; 'extreme' when the last two free steps are loops
    and the last, J, is the upper end of the gap window while J has no upper
    bound but n+1 and is not the new letter's lower neighbour (or the lower
    end while J has no lower bound but 0 and is not its upper neighbour),
    and Y does not tie the new letter to J, so that J becomes a running
    extreme; '' when neither. A loop is a free step that neither X chains
    nor Y links."""
    tail = _tail(pat)
    loops = [ref < 0 and not chain for ref, _, _, _, chain in tail.free[-2:]]
    if loops == [True]:
        return "bitmask"
    j = 1 + len(tail.pinned) + len(tail.free)  # J's value
    gap, (ref, _, lo, hi) = tail.gap, tail.new
    if loops != [True, True] or not gap or gap[0] >= 0 or ref == j:
        return ""
    bounds = tail.free[-1][2:4]
    return "extreme" if (gap[3] == j and bounds[1] == 1 and lo != j) or (
        gap[2] == j and bounds[0] == 0 and hi != j) else ""


def _kill_oracle(pat, found) -> dict:
    """Prefix u -> the bitmask of the values v such that u + (v,) ends, at
    its last letter, what a kernel finds: an occurrence of pat or, for a
    gap plan (k >= 2, neither k-1 nor k in X), one of its first k-1 slots
    that leaves its last slot an unplaced value other than v. Read off
    `found`, the pairs (word, occurrence) of pat over S_n that
    `conftest.occurrences_by_pattern` lists: such a prefix, completed by
    that value next, holds an occurrence with its (k-1)-th slot at the end
    of u + (v,), and every occurrence yields one prefix so."""
    gap = pat.k >= 2 and pat.k - 1 not in pat.x and pat.k not in pat.x
    kills: dict = {}
    for w, occurrence in found:
        end = occurrence[-1 - gap]
        kills[w[:end - 1]] = kills.get(w[:end - 1], 0) | 1 << w[end - 1]
    return kills


@functools.cache
def _prefixes(n: int, length: int) -> tuple:
    """(u, posv, rest) for every word u over 1..n of the given length, with
    posv mapping u's letters to their positions and rest the bits of the
    other values."""
    out = []
    for u in itertools.permutations(range(1, n + 1), length):
        posv = [0] * (n + 2)
        for i, v in enumerate(u, start=1):
            posv[v] = i
        out.append((u, posv, (2 << n) - 2 - sum(1 << v for v in u)))
    return tuple(out)


def _assert_kill_mask(pat, n: int, found) -> None:
    """The kernel's mask against `_kill_oracle` at every prefix in its
    window, and no occurrence ending outside it. The empty pattern has no
    kernel."""
    check = _check(pat, n)
    if not pat.k:
        assert check is None
        return
    kills = _kill_oracle(pat, found)
    if check is None:
        assert not kills, (str(pat), n)
        return
    first, last, kill, _ = check
    assert all(first <= len(u) + 1 <= last for u in kills), (str(pat), n)
    for m in range(first, last + 1):
        for u, posv, rest in _prefixes(n, m - 1):
            assert kill(m, u, posv, n + 1, rest) & rest == kills.get(u, 0), (str(pat), u)


class TestKillMasks:
    """Each kernel's mask, bit for bit at every prefix, against an oracle
    read off the occurrences that `conftest.occurrences_by_pattern` lists
    for every pattern of a length at once, or `conftest.oracle_occurrences`
    for one pattern: a filter of position subsets that shares no code with
    the plans."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_every_short_pattern(self, k):
        for n in range(7):
            found = occurrences_by_pattern(k, n)
            for pat in all_patterns(k):
                _assert_kill_mask(pat, n, found.get((pat.p, pat.x, pat.y), ()))

    def test_thresholds_above_the_loops(self):
        # Every length-4 plan whose kernel computes its new letter's window
        # threshold above its loops, where only the values known there may
        # be read. No rewrite applies to them, so no other kernel test
        # covers them all.
        pats = _hoisted(4)
        assert len(pats) == 38
        for pat in pats:
            found = [(w, occurrence) for w in lex_words(6) for occurrence in oracle_occurrences(pat, w)]
            _assert_kill_mask(pat, 6, found)

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_long_patterns(self, k):
        # The stratified draws of TestLongPatterns.test_single_patterns.
        for pat in _long_draws(k):
            found = [(w, occurrence) for w in lex_words(6) for occurrence in oracle_occurrences(pat, w)]
            _assert_kill_mask(pat, 6, found)


def _kernel_source(pat) -> list[str]:
    """The source lines that `_kernel` compiles for pat's plan."""
    tail = _tail(pat)
    with mock.patch.object(pattern_module, "_compile", lambda lines: lines):
        return pattern_module._kernel.__wrapped__(tail.pinned, tail.free, tail.new, tail.gap)


class TestRestOnlyPlans:
    def test_flag_matches_the_kernel_source(self):
        # `_reads_rest_only` decides from the plan alone whether its kernel
        # never reads `prefix` or `posv`; the generated source must agree,
        # for every plan of length 1 to 4 and the longer ones that the
        # kernel compile check runs.
        pats = [pat for k in range(1, 5) for pat in all_patterns(k)] + [parse_pattern(text) for text in (
            "54132", "35124;x=2,3;y=3,5", "251364;y=1,4", "53142;y=0", "24153;x=5",
            "1342765;x=2,3,4,5,6;y=4,5,7", "2671354;x=2,4,5,7;y=0,1,6")]
        plans = {}
        for pat in pats:
            tail = _tail(pat)
            plans.setdefault((tail.pinned, tail.free, tail.new, tail.gap), pat)
        flags = []
        for pat in plans.values():
            body = "\n".join(_kernel_source(pat)[1:])
            flags.append(pattern_module._reads_rest_only(_tail(pat)))
            assert flags[-1] == (re.search(r"\b(prefix|posv)\b", body) is None), str(pat)
        assert (sum(flags), len(flags)) == (69, 17334)


def _hoisted(k: int) -> list:
    """One pattern of length k per plan whose kernel computes a threshold of
    the new letter's window (`hi` or `lo`) once, above its loops."""
    plans = {}
    for pat in all_patterns(k):
        tail = _tail(pat)
        plans.setdefault((tail.pinned, tail.free, tail.new, tail.gap), pat)
    out = []
    for pat in plans.values():
        lines = _kernel_source(pat)
        loop = next((i for i, line in enumerate(lines) if line.lstrip().startswith("for ")), 0)
        if any(line.lstrip().startswith(("hi = ", "lo = ")) for line in lines[:loop]):
            out.append(pat)
    return out


@functools.cache
def _rewritten(k: int) -> tuple:
    """The patterns of length k whose plan selects either rewrite."""
    return tuple(pat for pat in all_patterns(k) if _rewrite(pat))


def _draw_pattern(rng: random.Random, k: int, density: float):
    """A pattern of length k with p uniform and each of 0..k in X, and
    independently in Y, with probability `density`."""
    return pattern(rng.sample(range(1, k + 1), k), x=[v for v in range(k + 1) if rng.random() < density],
                   y=[v for v in range(k + 1) if rng.random() < density])


@functools.cache
def _long_draws(k: int) -> tuple:
    """Seeded draws of length k, X and Y of density 0, 1/4 and 1/2 in turn,
    of which the first three of each kind of kernel are kept: rewritten to
    a bitmask, to a running extreme, or neither."""
    rng, kept, draws = random.Random(k), {"bitmask": [], "extreme": [], "": []}, 0
    while min(map(len, kept.values())) < 3:
        pat = _draw_pattern(rng, k, (0.0, 0.25, 0.5)[draws % 3])
        draws += 1
        group = kept[_rewrite(pat)]
        if len(group) < 3:
            group.append(pat)
    return tuple(itertools.chain(*kept.values()))


def _check_walks(pats, n: int, deep: bool) -> None:
    """`avoiders`, `containers` and `count` on both sides against
    `conftest.construction_mask`; when `deep`, also `matches` on every
    word."""
    every = (1 << math.factorial(n)) - 1
    hit, held = 0, every
    for pat in pats:
        occurs = construction_mask(pat, n)
        hit, held = hit | occurs, held & occurs
        if deep:
            assert [matches(pat, w) for w in lex_words(n)] == [
                bool(occurs >> i & 1) for i in range(every.bit_length())], (str(pat), n)
    case = ([str(pat) for pat in pats], n)
    for walk, avoid, want in ((generate.avoiders, True, words_of(every & ~hit, n)),
                              (generate.containers, False, words_of(held, n))):
        assert walk(pats, n) == want, case
        assert generate.count(avoid, pats, n) == len(want), case


class TestRewrittenKernels:
    """The kernels whose one loop became a bitmask of its values, or whose
    innermost loop became a running extreme, against the oracles; and the
    rewrites fire."""

    def test_rewrites_fire(self):
        for text in ("321", "231", "231;y=0", "123;x=2", "213;y=1"):
            assert _rewrite(parse_pattern(text)) == "bitmask", text
        for text in ("2413", "3142"):
            assert _rewrite(parse_pattern(text)) == "extreme", text
        assert len(_rewritten(3)) == 110
        assert len(_rewritten(4)) == 802

    def test_invariant_threshold_above_the_loops(self):
        # 1234 is rewritten neither way: two nested loops seek its first two
        # slots. The greatest unplaced value, which bounds its new letter's
        # window from above, does not change within a call, so it is
        # computed once, above every loop.
        lines = _kernel_source(parse_pattern("1234"))
        loops = [i for i, line in enumerate(lines) if line.lstrip().startswith("for ")]
        assert len(loops) == 2
        assert [line for line in lines[:loops[0]] if line.lstrip().startswith("hi = ")] == [
            "    hi = rest.bit_length() - 1"]
        assert not any(line.lstrip().startswith("hi = ") for line in lines[loops[0]:])

    def test_length4_on_s6(self):
        words = PERMS_BY_N[6]
        for pat in _rewritten(4):
            occurs = construction_mask(pat, 6)
            assert [matches(pat, w) for w in words] == [bool(occurs >> i & 1) for i in
                                                        range(len(words))], str(pat)
            avoided, contained = avoid_all([pat], 6), match_all([pat], 6)
            assert avoided == scan_avoiders([pat], 6), str(pat)
            assert contained == scan_matchers([pat], 6), str(pat)
            assert generate.count(True, [pat], 6) == len(avoided), str(pat)
            assert generate.count(False, [pat], 6) == len(contained), str(pat)



class TestLongPatterns:
    """The walks and `matches` past length 4, where kernels hold longer
    pinned chains, Y-runs and loop nests than any shorter pattern's, against
    `conftest.construction_mask` at n = 6 and 7, with `matches` on every
    word checked at n = 6."""

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_single_patterns(self, k):
        for pat in _long_draws(k):
            for n in range(max(k, 6), 8):
                _check_walks([pat], n, n == 6)

    @pytest.mark.parametrize("density", [0.5, 0.7])
    def test_mixed_sets(self, density):
        # Two or three patterns of lengths 3 to 6 with dense X and Y.
        rng = random.Random(int(10 * density))
        for _ in range(8):
            pats = [_draw_pattern(rng, rng.randint(3, 6), density) for _ in range(rng.randint(2, 3))]
            for n in (6, 7):
                _check_walks(pats, n, n == 6)

@st.composite
def _one_length_patterns(draw):
    k = draw(st.integers(0, TABLE_K))
    return draw(st.lists(_table_patterns(k, k), min_size=1, max_size=40))


class TestOccurrenceMasks:
    """`signature_masks` reads position subsets against a signature memo
    and the table `mask_table` builds, as a survey calls them; the oracle is
    the conftest signature table, which shares none of their code."""

    @settings(max_examples=40, deadline=None)
    @given(pats=_one_length_patterns(), n=st.integers(0, 7))
    # 0 and k in X and in Y; then an occurrence filling all positions and values
    @example(pats=[pattern((1, 3, 2), x=[0, 3], y=[0, 3]), pattern((1, 3, 2), x=[1])], n=5)
    @example(pats=[pattern((2, 1), x=[0, 1, 2], y=[0, 1, 2]), pattern((1, 2), y=[2])], n=2)
    @example(pats=[pattern(()), pattern((), x=[0]), pattern((), y=[0])], n=0)  # k = 0
    @example(pats=[pattern(()), pattern((), x=[0]), pattern((), y=[0])], n=3)
    @example(pats=[pattern((2, 4, 1, 3)), pattern((1, 2, 3, 4), x=[4])], n=3)  # k > n
    def test_against_engine(self, pats, n):
        k = pats[0].k
        table = mask_table(k, [(pat.p, sum(1 << v for v in pat.x), sum(1 << v for v in pat.y), 1 << i)
                               for i, pat in enumerate(pats)])
        masks = list(signature_masks(table, k, n))
        assert len(masks) == math.factorial(n)
        want = [occurrence_mask(pat, n) for pat in pats]
        for idx, (w, mask) in enumerate(zip(s_n(n), masks)):
            assert [mask >> i & 1 for i in range(len(pats))] == [
                occurs >> idx & 1 for occurs in want], w
            assert mask >> len(pats) == 0

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_mask_table_against_definition(self, k, seed):
        # Cell xs * side + ys of p's list is the OR of the bits of the
        # entries of p whose X lies within xs and Y within ys. Entries are
        # drawn from at most two p's and three (X, Y) cells, four or more of
        # them, so some share a p and some a cell; bits repeat across entries.
        rng = random.Random(seed * 10 + k)
        side = 1 << (k + 1)
        perms = list(itertools.permutations(range(1, k + 1)))
        used_perms = rng.sample(perms, min(len(perms), 2))
        cells = [(rng.randrange(side), rng.randrange(side)) for _ in range(3)]
        entries = [(rng.choice(used_perms), *rng.choice(cells), 1 << rng.randrange(5))
                   for _ in range(rng.randint(4, 8))]
        entries.append((used_perms[0], 0, side - 1, 1 << 5))
        table = mask_table(k, entries)
        assert set(table) == {p for p, *_ in entries}
        for p, got in table.items():
            assert len(got) == side * side
            want = [0] * (side * side)
            for xs in range(side):
                for ys in range(side):
                    for q, x, y, bit in entries:
                        if q == p and x & ~xs == 0 and y & ~ys == 0:
                            want[xs * side + ys] |= bit
            assert got == want, p

    def test_one_signature_per_letter_tuple(self, monkeypatch):
        # A signature's p and Y-set depend on the letters alone, so at k = 3
        # one is computed per ordered triple of distinct letters met,
        # n (n-1) (n-2), and not per (X-set, letters): 600 at n = 5.
        calls = []
        signature = pattern_module._signature
        monkeypatch.setattr(pattern_module, "_signature",
                            lambda letters, n: calls.append(letters) or signature(letters, n))
        pat = pattern((1, 3, 2), x=[1], y=[2])
        table = mask_table(3, [(pat.p, 1 << 1, 1 << 2, 1)])
        for n, want in ((5, 60), (6, 120)):
            calls.clear()
            masks = list(signature_masks(table, 3, n))
            assert (len(calls), len(set(calls))) == (want, want)
            occurs = occurrence_mask(pat, n)
            assert masks == [occurs >> i & 1 for i in range(math.factorial(n))]


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


class TestPatternCodes:
    """The integer codes a survey reduces rows on, against the pattern
    functions they stand for: the conftest symmetries, written from their
    definitions, and `pat_shift`."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_codes_follow_patterns(self, k):
        codes = PatternCodes(k)
        pats = [codes.pattern(code) for code in range(codes.count)]
        assert pats == sorted(all_patterns(k), key=_pat_key)
        for code, pat in enumerate(pats):
            assert codes.triple(code) == (pat.p, sum(1 << v for v in pat.x), sum(1 << v for v in pat.y))
            assert codes.rank_in_y(code) == (k >= 1 and k in pat.y)
            if k:
                assert pats[codes.shift(code)] == pat_shift(pat), str(pat)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_images_follow_symmetries(self, k):
        # Every composition that some relation lists, against the conftest
        # symmetries; the image of every code, read from the part tables,
        # is a permutation of the codes.
        codes = PatternCodes(k)
        pats = [codes.pattern(code) for code in range(codes.count)]
        every_ops = {ops for rel in RELATIONS.values() for ops in rel.symmetries}
        assert every_ops == {"", "r", "c", "rc", "i", "ir", "ic", "irc"}
        for ops in sorted(every_ops):
            perm_of, pair_of = codes.parts(ops)
            images = [a * codes.side ** 2 + bc for a in perm_of for bc in pair_of]
            assert sorted(images) == list(range(codes.count)), ops
            for code, pat in enumerate(pats):
                assert pats[images[code]] == apply_symmetry(pat, ops), (str(pat), ops)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_least_is_least_orbit_member(self, k):
        # Each relation's group, and groups of one and two symmetries,
        # against the least of each code's images by brute force.
        codes = PatternCodes(k)
        block = codes.side ** 2
        for symmetries in {*(rel.symmetries for rel in RELATIONS.values()), ("",), ("", "i")}:
            images = []
            for ops in symmetries:
                perm_of, pair_of = codes.parts(ops)
                images.append([a * block + bc for a in perm_of for bc in pair_of])
            assert codes.least(symmetries) == [min(orbit) for orbit in zip(*images)], symmetries

"""Class-closed enumeration, stability, survey, and sequence checking."""

import gc
import inspect
import math
import random
from contextlib import contextmanager
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

import permlab
import permlab.census as census_module
import permlab.cli
import permlab.relations as relations_module
from conftest import (PERMS_BY_N, all_patterns, apply_symmetry, construction_mask,
                      occurrence_mask, scan_avoiders, scan_matchers, words_of)
from permlab.catalog import CATALOG, KNUTH_MATCHING_PATTERN, SEQUENCE_TABLES
from permlab.census import (
    SequenceCheckReport,
    avoid_all,
    class_avoiders,
    class_matchers,
    match_all,
    plain_avoiders,
    plain_matchers,
    sequence_check,
    sigma_via_avoiders,
    stability,
    survey,
)
from permlab.arith import natural_perms, sigma_arith
from permlab.core import cycle_type, order, s_n
from permlab import generate
from permlab.pattern import occurrence_total, parse_pattern, pat_shift, pattern
from permlab.relations import RELATIONS, Relation, census, check_budget


#: Three increasing letters at consecutive positions.
VINCULAR_123 = pattern((1, 2, 3), x=[1, 2])


def _catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def _closed_classes(kept_mask: int, classes: list[int]) -> list[int]:
    """The oracle class masks lying wholly inside kept_mask."""
    return [cls for cls in classes if cls & kept_mask == cls]


def _oracle_triple(closed: list[int], n: int) -> tuple:
    """(count, class_count, members) of a list of closed class masks of S_n,
    the members in lex order, as a class-closed result reports them."""
    union = 0
    for cls in closed:
        union |= cls
    return union.bit_count(), len(closed), tuple(words_of(union, n))


def _as_triple(res):
    return res.count, res.class_count, res.members


def _counts(res):
    return res.count, res.class_count


def test_package_root_names_are_modules():
    # The package exports no function under a module's name.
    assert inspect.ismodule(permlab.census) and inspect.ismodule(permlab.pattern)
    assert permlab.census is census_module


_231 = pattern((2, 3, 1))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: plain_avoiders([_231], -1), id="plain_avoiders"),
    pytest.param(lambda: plain_matchers([_231], -1, want_members=True), id="plain_matchers"),
    pytest.param(lambda: avoid_all([_231], -2), id="avoid_all"),
    pytest.param(lambda: match_all([], -2), id="match_all"),
    pytest.param(lambda: generate.avoiders([], -1), id="avoiders"),
    pytest.param(lambda: generate.containers([_231], -2), id="containers"),
    pytest.param(lambda: generate.count(True, [], -1), id="count"),
    pytest.param(lambda: generate.count(True, [pattern((2, 4, 1, 3))], -1), id="count-labels"),
    pytest.param(lambda: generate.count(False, [_231], -2), id="count-complement"),
    pytest.param(lambda: survey("conjugacy", 1, n_range=[-2, 1]), id="survey"),
    pytest.param(lambda: check_budget(-1, 0), id="check_budget"),
    pytest.param(lambda: natural_perms(-1), id="natural_perms"),
    *[pytest.param(lambda rel=rel: census(rel, -1, budget=0), id=f"census-{rel.name}")
      for rel in RELATIONS.values()],
])
def test_negative_degree_rejected(call):
    # As `TestClassClosed.test_negative_degree` for the class-closed calls:
    # refused before any budget test or work.
    with pytest.raises(ValueError, match=r"^degree -[12] is negative$"):
        call()


class TestClassClosed:
    def test_members_subset_chain(self):
        pat = pattern((2, 3, 1), y=[0])
        for n in (3, 4, 5):
            closed = class_avoiders([pat], "knuth", n, want_members=True).members
            plain = avoid_all([pat], n)
            assert set(closed) <= set(plain) <= set(s_n(n))
            assert set(closed) <= set(scan_avoiders([pat], n))

    def test_matchers_subset_chain(self):
        for n in (3, 4, 5):
            closed = class_matchers([KNUTH_MATCHING_PATTERN], "knuth", n,
                                    want_members=True).members
            plain = match_all([KNUTH_MATCHING_PATTERN], n)
            assert set(closed) <= set(plain)

    def test_multiple_patterns_intersect(self):
        pats = [pattern((2, 3, 1)), pattern((2, 1, 3))]
        for n in (4, 5):
            assert avoid_all(pats, n) == scan_avoiders(pats, n)

    def test_plain_wrappers(self):
        pat = pattern((2, 3, 1))
        res = plain_avoiders([pat], 4, want_members=True)
        assert res.count == res.class_count == len(res.members)
        m = plain_matchers([pat], 4)
        assert res.count + m.count == 24

    @pytest.mark.parametrize("plain", [plain_avoiders, plain_matchers])
    def test_plain_wrappers_take_one_shot_iterables(self, plain):
        pats = [pattern((2, 3, 1)), pattern((1, 2), y=[1])]
        res = plain(iter(pats), 4, want_members=True)
        assert res == plain(pats, 4, want_members=True)
        assert res.to_payload()["patterns"] == ["231;x=;y=", "12;x=;y=1"]

    @pytest.mark.parametrize("want_members", [False, True])
    def test_negative_degree(self, want_members):
        for fn in (class_avoiders, class_matchers):
            with pytest.raises(ValueError, match="degree -1 is negative"):
                fn([pattern((2, 1))], "conjugacy", -1, want_members=want_members)

    def test_members_sorted(self):
        res = class_avoiders([pattern((2, 3, 1))], "knuth", 5, want_members=True)
        assert list(res.members) == sorted(res.members)

    def test_payload_shape(self):
        res = class_avoiders([pattern((2, 1))], "conjugacy", 3, want_members=True)
        payload = res.to_payload()
        assert payload["mode"] == "class-avoid"
        assert payload["relation"] == "conjugacy"
        assert payload["n"] == 3
        assert payload["patterns"] == ["21;x=;y="]
        assert payload["count"] == 1
        assert payload["members"] == ["123"]


@st.composite
def _patterns(draw, min_k: int = 0, max_k: int = 4):
    k = draw(st.integers(min_k, max_k))
    p = tuple(draw(st.permutations(list(range(1, k + 1)))))
    return pattern(p, x=draw(st.sets(st.integers(0, k))), y=draw(st.sets(st.integers(0, k))))


class TestGenerationAgainstScan:
    """`avoid_all` and `match_all` extend prefixes; the oracle reads S_n off
    the conftest signature table, and at n = 8, beyond the table, off
    `conftest.construction_mask`, which places each pattern in every
    admissible way."""

    def test_every_short_pattern(self, avoid_masks):
        for pat, per_n in avoid_masks.items():
            for n, mask in per_n.items():
                perms = PERMS_BY_N[n]
                assert avoid_all([pat], n) == [w for i, w in enumerate(perms) if mask >> i & 1], (
                    str(pat), n)
                assert match_all([pat], n) == [w for i, w in enumerate(perms)
                                               if not mask >> i & 1], (str(pat), n)
                # The walk that only counts, against the oracle's popcount.
                avoided = mask.bit_count()
                assert generate.count(True, [pat], n) == avoided, (str(pat), n)
                assert generate.count(False, [pat], n) == math.factorial(n) - avoided, (str(pat), n)

    def test_count_mode_at_eight(self):
        # Past the signature table: one pattern of each kind of kernel plan,
        # a classical pattern of length 4 from each of the other two Wilf
        # classes, the other classical patterns whose innermost loop runs as
        # an extreme, and a sample of length 3. Two more pin a letter, 2 at
        # length 3 and 1 at length 1 with no free step, which only their
        # kernels test.
        pats = [pattern((2, 4, 1, 3)), pattern((2, 1, 3), y=[1]), pattern((2, 3, 1), y=[0]),
                pattern((1, 3, 2), x=[3], y=[1, 2, 3]), pattern((2, 1), x=[1], y=[0, 2]),
                pattern((2, 3, 1), x=[0, 1], y=[0, 1, 2]), pattern((1, 2, 3, 4)),
                pattern((1, 3, 2, 4)), pattern((3, 1, 4, 2)), pattern((1, 4, 2, 3)),
                pattern((4, 1, 3, 2)), pattern((1, 3, 2), x=[3], y=[0, 1, 3]),
                pattern((1,), x=[0], y=[0])]
        pats += random.Random(8).sample(list(all_patterns(3)), 12)
        for pat in pats:
            occurs = construction_mask(pat, 8).bit_count()
            assert generate.count(False, [pat], 8) == occurs, str(pat)
            assert generate.count(True, [pat], 8) == math.factorial(8) - occurs, str(pat)

    def test_empty_patterns_and_degree_zero(self):
        for pat in list(all_patterns(0)) + list(all_patterns(1)):
            for n in range(0, 4):
                assert avoid_all([pat], n) == scan_avoiders([pat], n), (str(pat), n)
                assert match_all([pat], n) == scan_matchers([pat], n), (str(pat), n)
                assert generate.count(True, [pat], n) == len(scan_avoiders([pat], n)), (str(pat), n)
                assert generate.count(False, [pat], n) == len(scan_matchers([pat], n)), (str(pat), n)

    @settings(max_examples=60, deadline=None)
    @given(pats=st.lists(_patterns(), min_size=1, max_size=3), n=st.integers(0, 8))
    @example(pats=[pattern((1, 3, 2), x=[3], y=[0, 1, 3])], n=6)      # k in X, 0 and k in Y
    @example(pats=[pattern((2, 3, 1), x=[0, 1], y=[0, 1, 2])], n=7)   # 0 in X
    @example(pats=[pattern((1, 2), x=[0, 1, 2], y=[0, 1, 2])], n=2)   # fills positions and values
    @example(pats=[pattern(()), pattern((2, 1))], n=0)                # k = 0
    @example(pats=[pattern((), x=[0]), pattern((1, 2), y=[2])], n=3)  # k = 0 with a hook
    @example(pats=[pattern((2, 4, 1, 3)), pattern((1,))], n=3)        # k > n
    @example(pats=[pattern((2, 3, 1)), pattern((2, 1), x=[1], y=[0, 2])], n=7)  # position-free and chained
    @example(pats=[pattern((2, 1, 3), y=[1]), pattern((1, 3, 2), x=[3], y=[0, 1, 3])], n=7)  # and pinned
    @example(pats=[pattern((1,), x=[0], y=[0]), pattern((2, 4, 1, 3))], n=6)  # k = 1 and classical
    @example(pats=[pattern((1, 2), y=[1])], n=6)                        # the last slot's window is
    @example(pats=[pattern((2, 1), y=[0])], n=6)                        # one value
    @example(pats=[pattern((2, 3, 1), x=[0, 1])], n=7)                  # all but the last slot fixed
    @example(pats=[pattern((2, 4, 1, 3), y=[3])], n=6)                  # a value link among four ranks
    @example(pats=[pattern((2, 3, 1), y=[0]), pattern((2, 4, 1, 3))], n=7)  # a deciding value, and none
    @example(pats=[pattern((2, 1), x=[1], y=[0, 2]), pattern((1, 3, 2), x=[3], y=[0, 1, 3])],
             n=7)                                                       # two deciding values
    @example(pats=[pattern((1, 3, 2), x=[3], y=[1, 2, 3])], n=6)        # decided before position n
    def test_random_pattern_sets(self, pats, n):
        avoided, contained = avoid_all(pats, n), match_all(pats, n)
        assert avoided == scan_avoiders(pats, n)
        assert contained == scan_matchers(pats, n)
        assert generate.count(True, pats, n) == len(avoided)
        assert generate.count(False, pats, n) == len(contained)

    def test_every_adjacency_of_2413(self):
        # Kernel shapes that length 3 cannot give: pinned chains of two and
        # three slots, and Y-runs over four ranks.
        pats = [pattern((2, 4, 1, 3), x=[v for v in range(5) if xs >> v & 1],
                        y=[v for v in range(5) if ys >> v & 1])
                for xs in range(32) for ys in range(32)]
        cases = [(pat, 5) for pat in pats] + [(pat, 6) for pat in random.Random(4).sample(pats, 256)]
        for pat, n in cases:
            assert avoid_all([pat], n) == scan_avoiders([pat], n), (str(pat), n)
            assert match_all([pat], n) == scan_matchers([pat], n), (str(pat), n)

    def test_no_reference_cycles(self):
        pats = [pattern((2, 1, 3), y=[1]), pattern((1, 2), x=[0], y=[1, 2])]
        avoid_all(pats, 5), match_all(pats, 5)
        generate.count(True, pats, 5), generate.count(False, pats, 5)
        gc.collect()
        gc.disable()
        try:
            avoid_all(pats, 6), match_all(pats, 6)
            generate.count(True, pats, 6), generate.count(False, pats, 6)
            generate.count(True, [pattern((2, 4, 1, 3), y=[2])], 6)  # the avoider-only loop
            generate.count(True, [pattern((2, 4, 1, 3))], 6)  # the label walk
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestWholeWalk:
    """`count` gives the length of the word list of `avoiders` and
    `containers` on the same side, and neither walk leaves a reference
    cycle behind."""

    @staticmethod
    def _cases():
        rng = random.Random(17)
        threes = list(all_patterns(3))
        cases = [([pat], n) for k in (0, 1, 2) for pat in all_patterns(k) for n in range(6)]
        cases += [([pat], n) for pat in rng.sample(threes, 40) for n in (5, 6)]
        cases += [(rng.sample(threes, 2), n) for n in (4, 6) for _ in range(20)]
        cases += [([], n) for n in range(5)]
        # A deciding value with a pattern that has none, two deciding values,
        # and one mostly placed before the only position its kernel runs at.
        cases += [([pattern((2, 3, 1), y=[0]), pattern((2, 4, 1, 3))], 7),
                  ([pattern((2, 1), x=[1], y=[0, 2]), pattern((1, 3, 2), x=[3], y=[0, 1, 3])], 7),
                  ([pattern((1, 3, 2), x=[3], y=[1, 2, 3])], 6)]
        return cases

    @pytest.mark.parametrize("walk", [generate.avoiders, generate.containers])
    def test_count_is_the_length(self, walk):
        nonempty = 0
        for pats, n in self._cases():
            full = walk(pats, n)
            assert generate.count(walk is generate.avoiders, pats, n) == len(full), (
                [str(p) for p in pats], n)
            nonempty += bool(full)
        assert nonempty > 100

    def test_no_reference_cycles(self):
        pats = [pattern((2, 1, 3), y=[1]), pattern((1, 2), x=[0], y=[1, 2])]
        gc.collect()
        gc.disable()
        try:
            assert generate.avoiders(pats, 6) and generate.containers(pats, 6)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _position_free(k: int) -> list:
    """The patterns of length k whose last slot is neither chained to the one
    before it nor pinned to position n."""
    return [pat for pat in all_patterns(k) if not {k - 1, k} & pat.x]


def _stirling2(n: int, j: int) -> int:
    if n == j:
        return 1
    if j == 0 or j > n:
        return 0
    return j * _stirling2(n - 1, j) + _stirling2(n - 1, j - 1)


class TestGenerationPruning:
    """For a position-free pattern the avoider walk drops a prefix as soon as
    every completion contains the pattern, so each prefix it enters extends
    to an avoider."""

    @pytest.fixture
    def entered(self, monkeypatch):
        """The prefixes the walks enter, recorded as they go. Every walk
        function takes the prefix as its third argument."""
        seen: set = set()
        for name in [name for name in vars(generate) if name.startswith("_grow_")]:
            def record(*args, grow=getattr(generate, name)):
                seen.add(tuple(args[2]))
                return grow(*args)

            monkeypatch.setattr(generate, name, record)
        return seen

    def test_no_dead_prefix_entered(self, entered):
        cases = [(pat, n) for k in (2, 3) for pat in _position_free(k) for n in range(7)]
        cases += [(pattern(p), 7) for p in permutations(range(1, 5))]
        assert len(cases) == 7 * (2 * 2 * 8 + 6 * 4 * 16) + 24
        for pat, n in cases:
            entered.clear()
            found = generate.avoiders([pat], n)
            live = {w[:m] for w in found for m in range(n + 1)}
            assert entered <= live, (str(pat), n, sorted(entered - live)[:3])
            # Only a pattern that occurs in no word of S_n is decided without
            # a walk, so an empty record cannot pass the check above unseen.
            assert entered or len(found) == math.factorial(n), (str(pat), n)

    def test_entered_prefixes_at_nine(self, entered):
        # The 11,934 live prefixes of 231 at n = 9, less the C(9) of length 8:
        # at the horizon a kept child emits its completion from its parent's
        # loop, and is not entered. A walk that drops a child only once an
        # occurrence ends at its new letter enters 51,822 - C(9) = 46,960.
        assert len(generate.avoiders([pattern((2, 3, 1))], 9)) == _catalan(9)
        assert len(entered) == 11934 - _catalan(9) == 7072

    def test_one_kernel_call_per_entered_prefix(self, entered, monkeypatch):
        # The kernel of 2413 gives at once every child whose new letter ends
        # an occurrence, so the word walk calls it once in each prefix it
        # enters where an occurrence can end, at m >= first = 3: every
        # entered prefix but the empty one and the 8 of length 1. A call per
        # child made 36,701. (Its count walks labels, and runs no kernel.)
        calls = []

        def counted(pat, n, check=generate._check):
            first, last, kill, decider = check(pat, n)

            def kernel(m, *args):
                calls.append(m)
                return kill(m, *args)

            return first, last, kernel, decider

        monkeypatch.setattr(generate, "_check", counted)
        assert len(generate.avoiders([pattern((2, 4, 1, 3))], 8)) == 15485
        assert len(calls) == 14616 and len(entered) == 14625
        assert sorted(calls) == sorted(len(u) + 1 for u in entered if len(u) >= 2)

    @pytest.mark.parametrize("avoid, pat, n", [
        (True, pattern((2, 3, 1)), 9),
        (True, pattern((2, 4, 1, 3)), 8),
        (False, pattern((2, 4, 1, 3)), 7),
        (True, pattern((2, 3, 1), y=[0]), 8),
        (False, pattern((1, 3, 2), x=[3], y=[0, 1, 3]), 8),
        (False, pattern((2, 1), x=[1], y=[0, 2]), 7),
    ])
    def test_count_walk_enters_the_word_walks_prefixes(self, entered, monkeypatch, avoid, pat, n):
        # A container count of one pattern is n! less its avoider count, so
        # both sides take the avoider count's walk. Counting changes only
        # what is done with a kept child's completions, not which prefixes
        # are grown, except for the two walks over labels. An avoider walk
        # whose kernel reads only `rest` (231 here) is counted once per set
        # of unplaced values: the memo holds the set of each prefix the word
        # walk enters, for 231 at n = 9 the 502 sets of the 7,072 above. A
        # classical pattern that no such kernel counts (2413) is counted
        # over labels, and enters no prefix.
        side = generate.avoiders if avoid else generate.containers
        assert generate.count(avoid, [pat], n) == len(side([pat], n))
        entered.clear()
        generate.avoiders([pat], n)
        words = set(entered)
        entered.clear()
        memos: dict = {"sets": [], "labels": []}
        # The memo is the last argument of _count_unplaced and of
        # _count_labels.
        for name, walk in (("sets", "_count_unplaced"), ("labels", "_count_labels")):
            def record(*args, expand=getattr(generate, walk), seen=memos[name]):
                seen.append(args[-1])
                return expand(*args)

            monkeypatch.setattr(generate, walk, record)
        sides = []

        def walked(side, *args, walk=generate._walk):
            sides.append(side)
            return walk(side, *args)

        monkeypatch.setattr(generate, "_walk", walked)
        generate.count(avoid, [pat], n)
        if generate.fixed_site(pat):
            # Its count is n! less its occurrence total, and enters no prefix
            # and no label; the avoider walk it would take, run directly,
            # must still agree and enter the word walk's prefixes.
            assert not entered and not memos["sets"] and not memos["labels"]
            checks = generate._checks(True, [pat], n)
            assert generate._walk(True, checks, n, False) == math.factorial(n) - occurrence_total(pat, n)
        assert all(sides)  # no container walk
        if str(pat) == "231;x=;y=":
            assert len(words) == 7072 and not entered and not memos["labels"]
            memo = memos["sets"][0]
            assert all(m is memo for m in memos["sets"])
            full = (2 << n) - 2
            assert set(memo) == {full ^ sum(1 << v for v in u) for u in words}
            assert len(memo) == 502
        elif str(pat) == "2413;x=;y=":
            assert not entered and not memos["sets"] and memos["labels"]
            memo = memos["labels"][0]
            assert all(m is memo for m in memos["labels"])
            assert len(memo) == {8: 144, 7: 65}[n]
        else:
            assert entered == words and entered and not memos["sets"] and not memos["labels"]

    @pytest.mark.parametrize("walk", [generate.avoiders, generate.containers])
    def test_entered_prefixes_of_a_deciding_gap_plan(self, entered, walk):
        # Every occurrence of 231;y=0 puts the value 1 at its last slot, so
        # the pattern is decided once 1 is placed: it occurs iff an ascent
        # came before. Both walks decide that child in its parent's loop, and
        # a prefix without 1 that has an ascent also decides it, so the
        # entered prefixes are the decreasing words over {2..8}, one per
        # subset. The full one is not entered either: at position 7 the
        # check passes its last position, n - 1. 2^7 - 1 = 127.
        walk([pattern((2, 3, 1), y=[0])], 8)
        want = {tuple(sorted(s, reverse=True))
                for m in range(7) for s in combinations(range(2, 9), m)}
        assert entered == want and len(want) == 2 ** 7 - 1

    @pytest.mark.parametrize("walk", [generate.avoiders, generate.containers])
    def test_entered_prefixes_of_a_deciding_pinned_plan(self, entered, walk):
        # An occurrence of 132;x=3;y=0,1,3 is 1, then 8, then 2 at position
        # 8, so the pattern is decided once 2 is placed: by the kernel when
        # 2 is placed at position 8, and as absent when it is placed earlier,
        # where the kernel does not run. Until then nothing decides it, so
        # the entered prefixes are the words over the 7 values other than 2
        # of length 0..7: sum of 7!/(7 - m)! over m = 0..7 = 13,700.
        walk([pattern((1, 3, 2), x=[3], y=[0, 1, 3])], 8)
        want = {w for m in range(8) for w in permutations((1, 3, 4, 5, 6, 7, 8), m)}
        assert entered == want and len(want) == 13700

    @pytest.mark.parametrize("pat, calls", [
        (pattern((2, 3, 1)), 572),
        (pattern((2, 4, 1, 3)), 2464),
        (pattern((2, 1, 3), y=[1]), 1232),
    ])
    def test_container_walk_enters_the_avoider_walks_prefixes(self, entered, pat, calls):
        # A pattern without a deciding value is found in a prefix when the
        # avoider walk would drop it, and ruled out past its last position,
        # where the avoider walk keeps it. Both walks keep or drop such a
        # child in its parent's loop, so they enter the same prefixes: those
        # in which the pattern is still open.
        generate.containers([pat], 7)
        found = set(entered)
        entered.clear()
        generate.avoiders([pat], 7)
        assert found == entered and len(entered) == calls

    @pytest.mark.parametrize("pat, want", [
        (pattern((2, 3, 1)), _catalan(9)),
        (pattern((3, 2, 1)), _catalan(9)),
        (pattern((2, 1, 3), y=[1]), sum(_stirling2(9, j) for j in range(10))),  # Bell
        (pattern((2, 4, 1, 3)), 91245),                                         # A022558
        (pattern((1, 2, 3, 4)), 94359),                                         # A005802
    ])
    def test_counts_at_nine(self, pat, want):
        # Beyond the reach of the scan oracle, so checked against the known
        # sequences instead.
        assert len(generate.avoiders([pat], 9)) == want
        assert len(generate.containers([pat], 9)) == math.factorial(9) - want
        assert generate.count(True, [pat], 9) == want
        assert generate.count(False, [pat], 9) == math.factorial(9) - want

    def test_children_cache_is_bounded_by_the_subsets(self):
        # A call reads its children off the bitmask of the unplaced values
        # its kernels keep, through a cache with one entry per such set.
        generate._unplaced.cache_clear()
        assert generate.count(True, [pattern((2, 3, 1))], 9) == _catalan(9)
        assert len(generate.avoiders([pattern((2, 3, 1))], 9)) == _catalan(9)
        assert 1 <= generate._unplaced.cache_info().currsize <= 2 ** 9


def _rest_only(k: int) -> list:
    """The patterns of length k without a deciding value whose plan's
    kernel reads only m, top and `rest`."""
    return [pat for pat in all_patterns(k) if generate._reads_rest_only(generate._tail(pat))
            and (check := generate._check(pat, 7)) and not check[3]]


class TestCountOverUnplacedSets:
    """A count of avoiders whose kernels read only `rest` expands each set
    of unplaced values once, since a prefix's number of kept completions
    depends only on that set."""

    @pytest.mark.parametrize("k, plans", [(1, 3), (2, 12), (3, 24)])
    def test_against_construction(self, k, plans, monkeypatch):
        pats = _rest_only(k)
        assert len(pats) == plans
        cases = [(pat, n) for pat in pats for n in range(8)]
        cases += [(pat, 8) for pat in random.Random(k).sample(pats, 3)]
        expanded = []

        def record(*args, expand=generate._count_unplaced):
            expanded.append(args[3])
            return expand(*args)

        monkeypatch.setattr(generate, "_count_unplaced", record)
        for pat, n in cases:
            expanded.clear()
            want = math.factorial(n) - construction_mask(pat, n).bit_count()
            assert generate.count(True, [pat], n) == want, (str(pat), n)
            if generate.fixed_site(pat):
                # Counted from its occurrence total with no walk; the set walk
                # it would take, run directly, must agree.
                assert not expanded, (str(pat), n)
                assert generate._walk(True, generate._checks(True, [pat], n), n, False, True) == want
            # Only a pattern that cannot occur in S_n is counted without a walk.
            assert expanded or want == math.factorial(n), (str(pat), n)

    def test_counts_at_twelve(self):
        # Past the reach of the word walks in a test; each count expands
        # 4,083 sets of unplaced values.
        bell = sum(_stirling2(12, j) for j in range(13))
        assert bell == 4213597 and _catalan(12) == 208012
        assert generate.count(True, [pattern((2, 1, 3), y=[1])], 12) == bell
        assert generate.count(True, [pattern((2, 3, 1))], 12) == _catalan(12)


def _classical(k: int) -> list:
    return [pattern(p) for p in permutations(range(1, k + 1))]


class TestCountOverLabels:
    """A count of avoiders of classical patterns, not all of whose kernels
    read only `rest`, walks the labels (r, threats) of
    `generate._count_labels`. The oracle, `conftest.construction_mask`,
    shares no code with it. Each case is counted through `count`, which
    must take the label walk exactly when some pattern's kernel reads more
    than `rest`, and by the label walk called directly, so that the
    patterns `count` sends to the set walk check it too."""

    @pytest.fixture
    def labelled(self, monkeypatch):
        """The memo of each label walk `count` makes."""
        memos: list = []

        def record(threats, r, label, memo, expand=generate._count_labels):
            memos.append(memo)
            return expand(threats, r, label, memo)

        monkeypatch.setattr(generate, "_count_labels", record)
        return memos

    @staticmethod
    def _check(labelled, cases):
        for pats, n in cases:
            hit = 0
            for pat in pats:
                hit |= construction_mask(pat, n)
            want = math.factorial(n) - hit.bit_count()
            labelled.clear()
            assert generate.count(True, pats, n) == want, ([str(p) for p in pats], n)
            rest_only = all(generate._reads_rest_only(generate._tail(pat)) for pat in pats)
            assert bool(labelled) != rest_only, ([str(p) for p in pats], n)
            threats = generate._Threats([pat.p for pat in pats])
            start = sum(threats[root, 0, n] for root, pat in zip(threats.roots, pats) if pat.k <= n)
            assert generate._count_labels(threats, n, start, {}) == want, (
                [str(p) for p in pats], n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_classical_pattern(self, labelled, k):
        cases = [([pat], n) for pat in _classical(k) for n in range(8)]
        cases += [([pat], 8) for pat in _classical(4)] if k == 4 else []
        self._check(labelled, cases)

    def test_pattern_sets(self, labelled):
        rng = random.Random(34)
        pool = _classical(3) + _classical(4)
        self._check(labelled, [(rng.sample(pool, rng.choice((2, 3))), n)
                               for _ in range(30) for n in range(8)])

    def test_length_five(self, labelled):
        pats = random.Random(5).sample(_classical(5), 8)
        self._check(labelled, [([pat], n) for pat in pats for n in range(9)])

    def test_labels_of_2413_at_eight(self, labelled):
        # 144 labels with a threat, against the 14,625 prefixes the word
        # walk enters.
        assert generate.count(True, [pattern((2, 4, 1, 3))], 8) == 15485
        assert len(labelled) > 1 and all(memo is labelled[0] for memo in labelled)
        assert len(labelled[0]) == 144

    @pytest.mark.parametrize("pats, n, labels, rows", [
        (["2413"], 7, 65, 38),
        (["2413"], 8, 144, 60),
        (["2413"], 10, 709, 126),
        (["1234"], 8, 245, 50),
        (["2413", "3142"], 8, 186, 120),
        (["12345"], 9, 889, 80),
    ])
    def test_walk_shape(self, labelled, monkeypatch, pats, n, labels, rows):
        # The labels memoised and the move rows computed are pinned: however
        # a label is stored, the walk meets these labels, and it computes
        # the row of each (r, threat) it expands once.
        moved = []

        def record(*args, expand=generate._threat_moves):
            moved.append(args[1:3])
            return expand(*args)

        monkeypatch.setattr(generate, "_threat_moves", record)
        generate.count(True, [parse_pattern(text) for text in pats], n)
        assert labelled and all(memo is labelled[0] for memo in labelled)
        assert (len(labelled[0]), len(moved)) == (labels, rows)
        assert len(set(moved)) == rows

    @pytest.mark.parametrize("pats, want", [
        (["2413"], 555662),          # A022558
        (["1342"], 555662),          # A022558
        (["1234"], 586590),          # A005802
        (["2413", "3142"], 206098),  # large Schroeder numbers
    ])
    def test_counts_at_ten(self, labelled, pats, want):
        assert generate.count(True, [parse_pattern(text) for text in pats], 10) == want
        assert labelled

    @pytest.mark.parametrize("pats, row", [
        (["2413"], [1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662, 3475090, 22214707]),
        (["1342"], [1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662, 3475090, 22214707]),
        (["1234"], [1, 2, 6, 23, 103, 513, 2761, 15767, 94359, 586590, 3763290, 24792705]),
        (["2413", "3142"], [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718, 5293446]),
        (["12345"], [1, 2, 6, 24, 119, 694, 4582, 33324, 261808, 2190688, 19318688, 178108704]),
    ])
    def test_reference_rows_to_twelve(self, labelled, pats, row):
        # A022558, A005802, the large Schroeder numbers A006318 and A047889,
        # at n = 1..12, all by the label walk.
        pats = [parse_pattern(text) for text in pats]
        assert [generate.count(True, pats, n) for n in range(1, 13)] == row
        assert len(labelled) > 12


def _fixed_site(k: int) -> list:
    """The patterns of length k with |X| >= k or |Y| >= k."""
    return [pat for pat in all_patterns(k) if len(pat.x) >= k or len(pat.y) >= k]


class TestPlacements:
    """`generate.block_words` over `generate.blocks` places p at every site
    and fills the other letters in every order. For a fixed-site pattern
    these are its containers, each once, and `occurrence_total` of them.
    The oracle is the conftest signature table, which reads each word's
    occurrences from their definition; `construction_mask` places the
    pattern as `blocks` does, so it is not used here."""

    @staticmethod
    def _check(pat, n, want):
        words = [w for block in generate.blocks(pat, n) for w in generate.block_words(*block, n)]
        assert len(words) == len(set(words)) == occurrence_total(pat, n), (str(pat), n)
        assert sorted(words) == want, (str(pat), n)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_every_short_fixed_site_pattern(self, k):
        pats = _fixed_site(k)
        assert len(pats) == (4, 15, 96, 810)[k]
        for pat in pats:
            for n in range(8):
                self._check(pat, n, words_of(occurrence_mask(pat, n), n))

    def test_length_four(self):
        for pat in random.Random(35).sample(_fixed_site(4), 80):
            for n in range(7):
                self._check(pat, n, scan_matchers([pat], n))


class TestBlockKeys:
    """Under conjugacy and order, a count-only class-avoid call keys the
    containers of each pattern by `Relation.container_keys`, read from the
    shapes of the pattern's sites (`generate.cover_shapes`) without a word.
    Those keys must be the keys of the oracle's containers, read word by
    word by `cycle_type` and `order`: off the conftest signature table up to
    n = 7 and length 4, and off `construction_mask` beyond it."""

    KEYS = {"conjugacy": cycle_type, "order": order}

    def _check(self, rel, pat, n, words=None):
        got = RELATIONS[rel].container_keys(pat, n)
        words = scan_matchers([pat], n) if words is None else words
        assert got == set(map(self.KEYS[rel], words)), (rel, str(pat), n)

    @pytest.mark.parametrize("rel", ["conjugacy", "order"])
    def test_every_short_fixed_site_pattern(self, rel):
        pats = [pat for k in range(4) for pat in _fixed_site(k)]
        assert len(pats) == 925
        for pat in pats:
            for n in range(8):
                self._check(rel, pat, n)

    @pytest.mark.parametrize("rel", ["conjugacy", "order"])
    def test_every_short_other_pattern(self, rel):
        pats = [pat for k in range(4) for pat in all_patterns(k) if not generate.fixed_site(pat)]
        assert len(pats) == 759
        for pat in pats:
            for n in range(7):
                self._check(rel, pat, n)

    @pytest.mark.parametrize("rel", ["conjugacy", "order"])
    def test_seeded_length_four(self, rel):
        # Sites of length 4 cover m = 4..8 letters, so n = 8 is the first
        # degree that reads the shapes of every m; every fifth pattern runs
        # there, against the construction oracle.
        pats = random.Random(38).sample(list(all_patterns(4)), 60)
        for i, pat in enumerate(pats):
            for n in range(8 if i % 5 else 9):
                self._check(rel, pat, n)

    @pytest.mark.parametrize("rel", ["conjugacy", "order"])
    def test_12345(self, rel):
        for n in range(8):
            self._check(rel, pattern((1, 2, 3, 4, 5)), n)

    def test_1234_at_nine(self):
        pat = pattern((1, 2, 3, 4))
        words = scan_matchers([pat], 9)
        for rel in self.KEYS:
            self._check(rel, pat, 9, words)

    @pytest.mark.parametrize("n", [8, 9])
    def test_catalog_rows(self, n):
        rows = [entry for entry in CATALOG
                if entry.relation in self.KEYS and generate.fixed_site(entry.pat)]
        assert [entry.name for entry in rows] == [
            "derangements", "involutions", "transpositions", "fpf-involutions", "id-3cycles",
            "id-2cycles-3cycles", "order-products"]
        for entry in rows:
            self._check(entry.relation, entry.pat, n)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_cover_reach(self, k):
        # A site covers 1..m letters exactly for k <= m <= k + cover_reach:
        # no m with a shape lies beyond it, and none without one below it.
        for pat in all_patterns(k):
            reach = generate.cover_reach(pat)
            for m in range(k, 2 * k + 1):
                assert bool(generate.cover_shapes(pat, m)) == (m <= k + reach), (str(pat), m)

    def test_cover_reach_at_length_four(self):
        # Whether a site exists depends on X and Y alone: every pair, each
        # with a seeded p.
        rng = random.Random(39)
        slots = [frozenset(s) for size in range(6) for s in combinations(range(5), size)]
        for x, y in product(slots, slots):
            pat = pattern(rng.choice(list(permutations(range(1, 5)))), x, y)
            reach = generate.cover_reach(pat)
            for m in range(4, 9):
                assert bool(generate.cover_shapes(pat, m)) == (m <= 4 + reach), (str(pat), m)

    def test_catalog_rows_skip_degrees_without_sites(self, monkeypatch):
        # container_keys builds no shape set for an m that no site covers:
        # m = 5 and 6 of involutions, 6 of fpf-involutions and id-3cycles,
        # 2 of derangements and order-products.
        asked = []

        def record(pat, m, shapes=relations_module.cover_shapes):
            asked.append((str(pat), m))
            return shapes(pat, m)

        monkeypatch.setattr(relations_module, "cover_shapes", record)
        want = {"derangements": [1], "involutions": [3, 4], "fpf-involutions": [3, 4, 5],
                "id-3cycles": [3, 4, 5], "order-products": [1]}
        for entry in CATALOG:
            if entry.name in want:
                asked.clear()
                RELATIONS[entry.relation].container_keys(entry.pat, 8)
                assert asked == [(str(entry.pat), m) for m in want[entry.name]], entry.name


class TestFixedSiteCounts:
    """A plain count of one fixed-site pattern is read from its occurrence
    total, and must equal the number of words the walks list."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_every_short_fixed_site_pattern(self, k):
        for pat in _fixed_site(k):
            for n in range(8):
                got = generate.count(True, [pat], n), generate.count(False, [pat], n)
                want = len(generate.avoiders([pat], n)), len(generate.containers([pat], n))
                assert got == want, (str(pat), n)


class TestContainerCountsByInclusionExclusion:
    """A count of the words containing each of several classical patterns
    sums, over the subsets of the patterns, the avoider counts of each
    subset with alternating signs, and walks no prefix. A set holding a
    bivincular pattern still walks prefixes."""

    @pytest.fixture
    def open_walks(self, monkeypatch):
        """The degrees of the `_grow_open` walks made."""
        walks: list = []

        def record(avoid, checks, prefix, *args, grow=generate._grow_open):
            if not prefix:
                walks.append(len(args[0]) - 2)
            return grow(avoid, checks, prefix, *args)

        monkeypatch.setattr(generate, "_grow_open", record)
        return walks

    def test_classical_sets(self, open_walks):
        rng = random.Random(36)
        pool = _classical(2) + _classical(3) + _classical(4)
        cases = [(rng.sample(pool, rng.choice((2, 3))), n) for _ in range(20) for n in range(8)]
        cases += [(rng.sample(_classical(5), 2) + rng.sample(pool, 1), 7) for _ in range(5)]
        for pats, n in cases:
            both = (1 << math.factorial(n)) - 1
            for pat in pats:
                both &= (occurrence_mask if pat.k <= 4 else construction_mask)(pat, n)
            assert generate.count(False, pats, n) == both.bit_count(), ([str(p) for p in pats], n)
        assert not open_walks

    def test_against_construction(self):
        # construction_mask, from the other side: the words it places both
        # patterns in, counted at n = 8, past the signature table.
        pats = [pattern((2, 4, 1, 3)), pattern((3, 1, 4, 2))]
        both = construction_mask(pats[0], 8) & construction_mask(pats[1], 8)
        assert generate.count(False, pats, 8) == both.bit_count()

    def test_bivincular_sets_walk_prefixes(self, open_walks):
        pats = [pattern((2, 4, 1, 3)), pattern((2, 1), y=[1])]
        want = len(scan_matchers(pats, 6))
        assert generate.count(False, pats, 6) == want > 0
        assert open_walks == [6]


RELATION_NAMES = ("conjugacy", "order", "knuth", "toric", "descent")
#: The relations with `container_keys`: a count-only class-avoid call keys
#: its patterns' containers at once, and walks neither side.
CONTAINER_KEYED = ("conjugacy", "order")


@contextmanager
def _sides_walked():
    """Record, for each count-only class-closed call, the path it took: the
    walk of its requested side and the side it closed ("kept" when it keyed
    that walk's words, "other" when it dropped them and keyed the other
    side), or "at once" when it made no walk of its requested side and
    keyed the other side at once: under conjugacy and order every
    class-avoid call does so by `container_keys`, and under the other
    relations one whose occurrence bound holds, keying the blocks of a
    fixed-site pattern and walking the containers of any other
    (TestFixedSiteRoute)."""
    sides: list = []
    walked: list = []
    closed: list = []
    saved = (census_module.avoiders, census_module.containers, census_module._class_closed,
             census_module._closed_result)

    def recording(walk):
        def recorded(pats, n):
            walked.append(walk.__name__)
            return walk(pats, n)
        return recorded

    def keying(kept, rel, want_members):
        closed.append(True)
        return saved[2](kept, rel, want_members)

    def closing(avoid, pats, relation, n, want_members, budget):
        walked.clear()
        closed.clear()
        result = saved[3](avoid, pats, relation, n, want_members, budget)
        if not want_members:
            side = "avoiders" if avoid else "containers"
            if walked[:1] != [side]:
                assert not closed
                sides.append("at once")
            else:
                sides.append((side, "kept" if closed else "other"))
        return result

    census_module.avoiders, census_module.containers = map(recording, saved[:2])
    census_module._class_closed, census_module._closed_result = keying, closing
    try:
        yield sides
    finally:
        (census_module.avoiders, census_module.containers, census_module._class_closed,
         census_module._closed_result) = saved


def _words_mask(words, n: int) -> int:
    index = {w: i for i, w in enumerate(PERMS_BY_N[n])}
    return sum(1 << index[w] for w in words)


def _short_pattern_cells(rel, avoid_masks, class_masks):
    """Every pattern of length 1-3 at n = 1..5, avoiding and containing:
    (function, n, pattern, oracle triple), the oracle's closed classes
    computed once per side."""
    for n in range(1, 6):
        classes = class_masks(rel, n)
        full = (1 << math.factorial(n)) - 1
        for pat, per_n in avoid_masks.items():
            avoid = per_n[n]
            for fn, kept in ((class_avoiders, avoid), (class_matchers, full & ~avoid)):
                yield fn, n, pat, _oracle_triple(_closed_classes(kept, classes), n)


class TestClassClosedDifferential:
    """Class-closed avoiders and matchers against classes built by the
    oracles in conftest, which use neither the keys nor the class sizes.

    A call with members walks its side whole and closes it; it is checked
    here. A count-only call is checked in TestClassClosedCountOnly. Each
    path is compared with the oracle, never with the other."""

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_all_length3_patterns(self, rel, avoid_masks, class_masks):
        # The grid covers every pattern of length 1-3, not only length 3.
        for fn, n, pat, want in _short_pattern_cells(rel, avoid_masks, class_masks):
            got = fn([pat], rel, n, want_members=True)
            assert _as_triple(got) == want, (fn.__name__, n, str(pat))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_patterns(self, class_masks, data):
        k = data.draw(st.integers(0, 4))
        p = tuple(data.draw(st.permutations(list(range(1, k + 1)))))
        pat = pattern(p, x=data.draw(st.sets(st.integers(0, k))),
                      y=data.draw(st.sets(st.integers(0, k))))
        rel = data.draw(st.sampled_from(RELATION_NAMES))
        n = data.draw(st.integers(0, 7))
        avoid_mode = data.draw(st.booleans())
        occurs = occurrence_mask(pat, n)
        kept = ((1 << math.factorial(n)) - 1) & ~occurs if avoid_mode else occurs
        fn = class_avoiders if avoid_mode else class_matchers
        got = fn([pat], rel, n, want_members=True)
        assert _as_triple(got) == _oracle_triple(_closed_classes(kept, class_masks(rel, n)), n)


class TestClassClosedCountOnly:
    """Count-only class-closed calls read their counts from whichever side is
    smaller: when the occurrence bound proves the containers few, or when
    the requested side holds more than n!/2 words, they key the other side
    and subtract from n! and the class total. Under conjugacy and order a
    class-avoid call always keys the containers, by `container_keys`. They
    are compared with the oracle classes, and every path must be taken."""

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_all_length3_patterns(self, rel, avoid_masks, class_masks, monkeypatch):
        # The same grid as the members path, patterns of length 1-3. No
        # count-only call keys more than n!/2 words of its requested side.
        keyed, real = [], census_module._class_closed

        def bounded(kept, relation, want_members):
            if not want_members and kept:
                assert 2 * len(kept) <= math.factorial(len(kept[0])), len(kept)
                keyed.append(len(kept))
            return real(kept, relation, want_members)

        monkeypatch.setattr(census_module, "_class_closed", bounded)
        routes = {class_avoiders: set(), class_matchers: set()}
        with _sides_walked() as sides:
            for fn, n, pat, want in _short_pattern_cells(rel, avoid_masks, class_masks):
                case, before = (fn.__name__, n, str(pat)), len(sides)
                assert _counts(fn([pat], rel, n)) == want[:2], case
                assert len(sides) == before + 1, case
                routes[fn].add(sides[-1])
                if sides[-1] == "at once" and rel not in CONTAINER_KEYED:
                    # The bound holds only where the oracle's containers are few.
                    containers = math.factorial(n) - avoid_masks[pat][n].bit_count()
                    assert 2 * containers <= math.factorial(n), case
        walked = {(walk, side) for walk in ("avoiders", "containers") for side in ("kept", "other")}
        if rel in CONTAINER_KEYED:
            assert routes[class_avoiders] == {"at once"}
            assert routes[class_matchers] == {("containers", "kept"), ("containers", "other")}
        else:
            assert routes[class_avoiders] | routes[class_matchers] == walked | {"at once"}
        assert len(keyed) > 100

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_bound_tie(self, rel, avoid_masks, class_masks):
        # 1;x=0;y=0 occurs once in S_2, in 12, so the bound holds with
        # equality and both sides hold n!/2 = 1 word: for avoidance the
        # containers are keyed at once (by the pattern's one block, or by
        # its container keys under conjugacy and order), and for
        # containment the walk of exactly n!/2 containers is kept.
        pat = pattern((1,), x=[0], y=[0])
        with _sides_walked() as sides:
            got = class_avoiders([pat], rel, 2), class_matchers([pat], rel, 2)
        assert sides == ["at once", ("containers", "kept")]
        avoid = avoid_masks[pat][2]
        for res, kept in zip(got, (avoid, 3 & ~avoid)):
            assert _counts(res) == _oracle_triple(_closed_classes(kept, class_masks(rel, 2)), 2)[:2]

    # Degree zero, no patterns, and sets of several patterns, whose other
    # side is a union of one walk per pattern, are left out of the grid.
    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_degree_zero_and_no_patterns(self, rel, class_masks):
        cases = [([], n) for n in range(6)]
        cases += [([pat], 0) for k in range(4) for pat in all_patterns(k)]
        for pats, n in cases:
            classes = class_masks(rel, n)
            for fn, scan in ((class_avoiders, scan_avoiders), (class_matchers, scan_matchers)):
                closed = _closed_classes(_words_mask(scan(pats, n), n), classes)
                want = _oracle_triple(closed, n)[:2]
                got = _counts(fn(pats, rel, n))
                assert got == want == _counts(fn(pats, rel, n, want_members=True)), (
                    rel, fn.__name__, [str(p) for p in pats], n)
        # With no pattern every word avoids and contains: all of S_n, every class.
        assert _counts(class_avoiders([], rel, 4)) == (24, len(class_masks(rel, 4)))

    @settings(max_examples=60, deadline=None)
    @given(pats=st.lists(_patterns(max_k=4), min_size=2, max_size=3),
           rel=st.sampled_from(RELATION_NAMES), n=st.integers(0, 7), avoid_mode=st.booleans())
    # most words avoid both: the other side is the union of two container sets
    @example(pats=[pattern((1,), x=[0], y=[0]), pattern((1, 2), x=[0, 1], y=[0, 1])],
             rel="toric", n=7, avoid_mode=True)
    # most words contain both: the other side is the union of two avoider sets
    @example(pats=[pattern((1,)), pattern((2, 1))], rel="conjugacy", n=6, avoid_mode=False)
    def test_random_pattern_sets(self, class_masks, pats, rel, n, avoid_mode):
        scan = scan_avoiders if avoid_mode else scan_matchers
        fn = class_avoiders if avoid_mode else class_matchers
        closed = _closed_classes(_words_mask(scan(pats, n), n), class_masks(rel, n))
        assert _counts(fn(pats, rel, n)) == _oracle_triple(closed, n)[:2]

    def test_descent_class_total_reads_memoised_census(self, monkeypatch):
        # With more than n!/2 avoiders a descent call reads its class total
        # from the census, whose histogram is built once per relation and
        # degree.
        pat = pattern((3, 2, 1), x=[0, 1])
        want = class_avoiders([pat], "descent", 7, want_members=True)
        descent, built = RELATIONS["descent"], []

        def sizes(n):
            built.append(n)
            return descent.sizes(n)

        rel = Relation(descent.name, descent.key, descent.symmetries, descent.class_size, sizes,
                       descent.bounded, descent.pattern_class)
        with _sides_walked() as sides:
            got = class_avoiders([pat], rel, 7)
        assert sides == [("avoiders", "other")]
        assert _counts(got) == (want.count, want.class_count)
        assert built == [7]
        # A second census of the degree builds no histogram, and each result
        # owns its histogram: changing one leaves the next as it was.
        first = census(rel, 7)
        by_size = dict(first.by_size)
        first.by_size.clear()
        assert census(rel, 7).by_size == by_size == census(descent, 7).by_size
        assert built == [7]
        # The budget is checked on every call, also for a degree in the memo.
        with pytest.raises(permlab.BudgetExceeded):
            class_avoiders([pat], "descent", 7, budget=6)
        with pytest.raises(permlab.BudgetExceeded):
            census(rel, 7, budget=6)
        monkeypatch.setenv("PERMLAB_BUDGET_N", "6")
        with pytest.raises(permlab.BudgetExceeded):
            census(rel, 7)


class TestFixedSiteRoute:
    """A count-only class-avoid call that reaches the other side keys a
    pattern's containers by one of three routes. Under conjugacy and order
    it reads their keys from the pattern's site shapes
    (`Relation.container_keys`), with no walk, no word and no `rel.key`.
    Under the other relations it keys the blocks of a fixed-site pattern
    (`generate.blocks`), which are disjoint, word by word
    (`generate.block_words`), and walks the containers of any other."""

    @staticmethod
    def _record(monkeypatch, walks: bool) -> dict:
        """The arguments of each call of `blocks`, of `block_words`, of the
        container walk and of `container_keys`. Under conjugacy and order a
        call of `rel.key` fails the test, and so, for `walks` false, does a
        walk of either side."""
        calls: dict = {"blocks": [], "block_words": [], "containers": [], "container_keys": []}

        def recording(name, real):
            def recorded(*args):
                calls[name].append(args)
                return real(*args)
            return recorded

        def fail(*args):
            raise AssertionError(args)

        for name in ("blocks", "block_words", "containers"):
            monkeypatch.setattr(census_module, name, recording(name, getattr(census_module, name)))
        for name in CONTAINER_KEYED:
            rel = RELATIONS[name]
            monkeypatch.setitem(RELATIONS, name, Relation(
                rel.name, fail, rel.symmetries, rel.class_size, rel.sizes, rel.bounded,
                rel.pattern_class, recording("container_keys", rel.container_keys)))
        if not walks:
            monkeypatch.setattr(census_module, "avoiders", fail)
            monkeypatch.setattr(census_module, "containers", fail)
        return calls

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_placements_keyed_without_a_walk(self, rel, monkeypatch):
        # A fixed-site pattern whose occurrence bound holds makes no walk
        # under any relation. Under conjugacy and order it reads its
        # container keys, and under the others it keys its blocks.
        rng = random.Random(rel)
        pats = rng.sample(_fixed_site(2), 10) + rng.sample(_fixed_site(3), 20)
        pats += rng.sample(_fixed_site(4), 20)
        cases = [(pat, n) for pat in pats for n in range(7)
                 if 2 * occurrence_total(pat, n) <= math.factorial(n)]
        assert len(cases) > 100
        want = [_counts(class_avoiders([pat], rel, n, want_members=True)) for pat, n in cases]
        calls = self._record(monkeypatch, walks=False)
        got = [_counts(class_avoiders([pat], rel, n)) for pat, n in cases]
        assert got == want
        if rel in CONTAINER_KEYED:
            assert calls["container_keys"] == cases
            assert not calls["blocks"] and not calls["block_words"]
        else:
            assert calls["blocks"] == cases and calls["block_words"]
            assert not calls["container_keys"]

    def test_other_patterns_walk_their_containers(self, monkeypatch):
        # These patterns are not fixed-site: their positions and their values
        # both vary. Each occurs 600 or 1,800 <= 7!/2 times in S_7, so the
        # occurrence bound sends every call to the other side at once. Under
        # conjugacy and order it reads their container keys and walks
        # nothing; under the other relations it walks the containers once.
        texts = ["123;x=0,1;y=1,2", "123;x=0;y=0,1", "231;x=0,1;y=2,3", "132;x=0,1;y=1,2"]
        for pat, rel in product(map(parse_pattern, texts), RELATION_NAMES):
            assert not generate.fixed_site(pat) and occurrence_total(pat, 7) in (600, 1800)
            want = _counts(class_avoiders([pat], rel, 7, want_members=True))
            keyed = rel in CONTAINER_KEYED
            with monkeypatch.context() as patched:
                calls = self._record(patched, walks=not keyed)
                assert _counts(class_avoiders([pat], rel, 7)) == want, (str(pat), rel)
            assert not calls["blocks"] and not calls["block_words"], (str(pat), rel)
            if keyed:
                assert calls["container_keys"] == [(pat, 7)] and not calls["containers"], (str(pat), rel)
            else:
                assert calls["containers"] == [([pat], 7)] and not calls["container_keys"], (str(pat), rel)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_routes_of_short_patterns(self, rel, avoid_masks, class_masks, monkeypatch):
        # Every pattern of length 1-3 at n = 1..6, against the oracle. Under
        # conjugacy and order every count-only class-avoid call reads its
        # container keys and walks neither side. Under the other relations
        # only fixed-site patterns key their blocks, and only the others
        # walk their containers.
        keyed = rel in CONTAINER_KEYED
        calls = self._record(monkeypatch, walks=not keyed)
        cases = []
        for n in range(1, 7):
            classes = class_masks(rel, n)
            for pat, per_n in avoid_masks.items():
                want = _oracle_triple(_closed_classes(per_n[n], classes), n)[:2]
                assert _counts(class_avoiders([pat], rel, n)) == want, (str(pat), n)
                cases.append((pat, n))
        blocked = {generate.fixed_site(pat) for pat, _ in calls["blocks"]}
        walked = {generate.fixed_site(pat) for (pat,), _ in calls["containers"]}
        if keyed:
            assert calls["container_keys"] == cases
            assert not blocked and not walked and not calls["block_words"]
        else:
            assert blocked == {True} and walked == {False} and calls["block_words"]
            assert not calls["container_keys"]


class TestContainerKeyRoute:
    """A count-only class-avoid call under conjugacy and order makes no
    walk, no first-moment test and no `rel.key` call, whatever n, and the
    shapes of each (pattern, m) are built once per process."""

    @pytest.mark.parametrize("rel", CONTAINER_KEYED)
    def test_1234_at_nine(self, rel, monkeypatch):
        # Every cycle type and order of S_9 is met by a container of 1234
        # (TestBlockKeys::test_1234_at_nine), so no class avoids it.
        def no_bound(*args):
            raise AssertionError(args)

        calls = TestFixedSiteRoute._record(monkeypatch, walks=False)
        monkeypatch.setattr(census_module, "occurrence_total", no_bound)
        pat = pattern((1, 2, 3, 4))
        assert _counts(class_avoiders([pat], rel, 9)) == (0, 0)
        assert calls["container_keys"] == [(pat, 9)] and not calls["blocks"]

    def test_range_builds_each_shape_set_once(self, capsys):
        # 1234 has sites covering m = 4..8 letters; both relations and all
        # nine degrees share those five shape sets.
        generate.cover_shapes.cache_clear()
        for rel in CONTAINER_KEYED:
            assert permlab.cli.main(["enumerate", "--mode", "class-avoid", "--relation", rel,
                                     "--pattern", "1234", "--n", "1..9", "--emit", "json"]) == 0
        assert '"count": 0' in capsys.readouterr().out
        info = generate.cover_shapes.cache_info()
        assert (info.misses, info.currsize) == (5, 5)
        assert info.hits == 2 * sum(min(n, 8) - 3 for n in range(4, 10)) - 5


class TestContainerKeyCounts:
    """Count-only class-avoid calls under conjugacy and order against the
    oracle classes of conftest: the classes lying wholly inside the words
    that the signature table finds avoiding every pattern. Their counts
    are compared with the oracle's, never with another route's."""

    @staticmethod
    def _want(pats, n, classes):
        avoid = (1 << math.factorial(n)) - 1
        for pat in pats:
            avoid &= ~occurrence_mask(pat, n)
        closed = _closed_classes(avoid, classes)
        return sum(cls.bit_count() for cls in closed), len(closed)

    @pytest.mark.parametrize("rel", CONTAINER_KEYED)
    def test_every_short_pattern(self, rel, class_masks):
        # Every pattern of length 0 to 3 at n = 0..7: 1,684 patterns.
        pats = [pat for k in range(4) for pat in all_patterns(k)]
        for n in range(8):
            classes = class_masks(rel, n)
            for pat in pats:
                want = self._want([pat], n, classes)
                assert _counts(class_avoiders([pat], rel, n)) == want, (str(pat), n)

    @pytest.mark.parametrize("rel", CONTAINER_KEYED)
    def test_pattern_sets(self, rel, class_masks):
        # Sets of two or three patterns of length 0 to 4 at n = 0..7: the
        # containers are the union of each pattern's.
        rng = random.Random(rel)
        pool = [pat for k in range(4) for pat in all_patterns(k)]
        pool += rng.sample(list(all_patterns(4)), 200)
        for _ in range(40):
            pats = rng.sample(pool, rng.choice((2, 3)))
            for n in range(8):
                want = self._want(pats, n, class_masks(rel, n))
                assert _counts(class_avoiders(pats, rel, n)) == want, ([str(p) for p in pats], n)


class TestKnuthMatching:
    def test_counts_are_shifted_catalan(self):
        got = [class_matchers([KNUTH_MATCHING_PATTERN], "knuth", n).count
               for n in range(2, 8)]
        assert got == [_catalan(n - 1) for n in range(2, 8)]

    def test_member_characterization(self):
        # Every member starts with n-1 and the rest, read as a word, has no
        # increasing triple.
        from itertools import combinations, permutations, product

        from conftest import lis_length

        for n in (4, 5, 6):
            got = class_matchers([KNUTH_MATCHING_PATTERN], "knuth", n,
                                 want_members=True).members
            want = {
                (n - 1,) + rest
                for rest in permutations(
                    [v for v in range(1, n + 1) if v != n - 1])
                if lis_length(rest) < 3
            }
            assert set(got) == want


class TestStability:
    def test_classical_length3_knuth_stable(self):
        from itertools import combinations, permutations, product

        for p in permutations((1, 2, 3)):
            rep = stability(pattern(p), "knuth", 6)
            assert rep.stable, p
            assert rep.witness is None

    def test_vincular_run_unstable(self):
        rep = stability(VINCULAR_123, "knuth", 6)
        assert not rep.stable
        assert rep.witness_n == 4
        assert rep.witness == (1, 3, 2, 4)

    def test_witness_on_the_closed_side(self):
        # The whole Knuth class of 4213 avoids 132;y=0, yet 4213 contains
        # 312;y=0, the other member of the pattern class, so the witness
        # lies on the class-closed side, outside the plain one.
        pat = pattern((1, 3, 2), y=[0])
        rep = stability(pat, "knuth", 6)
        assert [str(q) for q in rep.pattern_class] == ["132;x=;y=0", "312;x=;y=0"]
        assert not rep.stable and rep.witness_n == 4 and rep.witness == (4, 2, 1, 3)
        closed = set(class_avoiders([pat], "knuth", 4, want_members=True).members)
        plain = set(avoid_all(rep.pattern_class, 4))
        assert closed - plain == {(4, 2, 1, 3)} and plain <= closed

    def test_witness_direction(self):
        # The witness avoids the whole pattern class but has a classmate
        # containing the original pattern.
        rep = stability(VINCULAR_123, "knuth", 4)
        closed = set(class_avoiders([VINCULAR_123], "knuth", 4,
                                    want_members=True).members)
        plain = set(avoid_all(rep.pattern_class, 4))
        assert closed <= plain
        assert rep.witness in plain - closed

    def test_toric_containment_sampled(self):
        rng = random.Random(11)
        pats = rng.sample(list(all_patterns(3)), 20)
        for pat in pats:
            rep = stability(pat, "toric", 5)
            plain = set(avoid_all(rep.pattern_class, 5))
            closed = set(class_avoiders([pat], "toric", 5, want_members=True).members)
            assert closed <= plain
            if rep.stable:
                assert closed == plain

    def test_relation_without_pattern_action(self):
        with pytest.raises(ValueError):
            stability(pattern((2, 1)), "conjugacy", 4)

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_no_degree_is_not_stable(self, n_max):
        with pytest.raises(ValueError):
            stability(pattern((2, 3, 1)), "knuth", n_max)

    def test_payload(self):
        rep = stability(VINCULAR_123, "knuth", 6)
        payload = rep.to_payload()
        assert payload["stable"] is False
        assert payload["witness"] == "1324"
        assert payload["witness_n"] == 4


def _oracle_orbit_sizes(symmetries, k: int) -> dict[tuple, int]:
    """{least pattern: orbit size} over the patterns (p, X, Y) of length k,
    as plain triples. The orbits are the classes of the group that the
    symmetry words generate, each word applied left to right with r, c and i
    taken from their definitions: (p^r, k - X, Y), (p^c, X, k - Y) and
    (p^i, Y, X). Least is by p, then sorted X, then sorted Y."""
    ops = {
        "r": lambda p, x, y: (p[::-1], frozenset(k - v for v in x), y),
        "c": lambda p, x, y: (tuple(k + 1 - v for v in p), x, frozenset(k - v for v in y)),
        "i": lambda p, x, y: (tuple(p.index(v) + 1 for v in range(1, k + 1)), y, x),
    }
    subsets = [frozenset(c) for m in range(k + 2) for c in combinations(range(k + 1), m)]
    left = {(p, x, y) for p in permutations(range(1, k + 1)) for x in subsets for y in subsets}
    out = {}
    while left:
        orbit, todo = set(), [left.pop()]
        while todo:
            pat = todo.pop()
            orbit.add(pat)
            for word in symmetries:
                image = pat
                for op in word:
                    image = ops[op](*image)
                if image not in orbit:
                    todo.append(image)
        left -= orbit
        out[min(orbit, key=lambda t: (t[0], sorted(t[1]), sorted(t[2])))] = len(orbit)
    return out


class TestSurvey:
    def test_orbit_counts_per_relation(self):
        want = {"toric": 212, "knuth": 392, "conjugacy": 424, "order": 424, "descent": 392}
        assert {rel: survey(rel, 3, n_range=range(1, 3)).orbit_count for rel in want} == want

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    @pytest.mark.parametrize("length", [0, 1, 2, 3])
    def test_orbits_against_definitions(self, rel, length):
        rows = survey(rel, length, n_range=range(1, 2)).rows
        assert {(row.pat.p, row.pat.x, row.pat.y): row.orbit_size for row in rows} == \
            _oracle_orbit_sizes(RELATIONS[rel].symmetries, length)

    def test_builds_one_pattern_per_row(self, monkeypatch):
        """Rows are reduced on integer codes: a pattern is built for each
        row's name only, and the survey's mask table once, not per degree."""
        from permlab.pattern import BivincularPattern

        built, tables = [], []
        init, mask_table = BivincularPattern.__init__, census_module.mask_table
        monkeypatch.setattr(BivincularPattern, "__init__",
                            lambda pat, *args: built.append(pat) or init(pat, *args))
        monkeypatch.setattr(census_module, "mask_table",
                            lambda *args: tables.append(args) or mask_table(*args))
        for merge_shift in (False, True):
            built.clear()
            tables.clear()
            res = survey("toric", 3, n_range=range(1, 6), merge_shift=merge_shift)
            assert (len(built), len(tables)) == (res.orbit_count, 1)

    def test_orbit_sizes_cover_all_patterns(self):
        res = survey("toric", 3, n_range=range(1, 3))
        assert res.pattern_count == 1536
        assert sum(row.orbit_size for row in res.rows) == 1536

    def test_merge_shift_trims_rows(self):
        res = survey("toric", 3, n_range=range(1, 3), merge_shift=True)
        assert res.orbit_count == 121
        assert sum(row.orbit_size for row in res.rows) == 1536

    def test_merge_shift_is_sound(self, avoid_masks, class_masks):
        # Merging is licensed by rank-in-Y shifts, which preserve the
        # class-closed avoider count degree by degree.
        for pat in all_patterns(3):
            if 3 not in pat.y:
                continue
            shifted = pat_shift(pat)
            for n in (3, 4, 5):
                classes = class_masks("toric", n)
                a = _oracle_triple(_closed_classes(avoid_masks[pat][n], classes), n)[0]
                b = _oracle_triple(_closed_classes(avoid_masks[shifted][n], classes), n)[0]
                assert a == b, (str(pat), n)

    def test_counts_constant_on_orbit(self):
        rng = random.Random(3)
        rel = RELATIONS["toric"]
        for pat in rng.sample(list(all_patterns(3)), 12):
            counts = {
                class_avoiders([apply_symmetry(pat, ops)], rel, 4).count
                for ops in rel.symmetries
            }
            assert len(counts) == 1, str(pat)

    def test_rows_tag_known_tables(self):
        res = survey("conjugacy", 3, n_range=range(1, 6))
        tagged = [row for row in res.rows if "A000124" in row.tables]
        assert tagged, "central polygonal row should be recognized"

    @pytest.mark.parametrize("length", [-1, -2])
    def test_negative_length(self, length):
        with pytest.raises(ValueError):
            survey("toric", length)

    @pytest.mark.parametrize("length", [6, 7, 9])
    def test_length_above_five_rejected_before_any_table(self, monkeypatch, capsys, length):
        """A survey longer than SURVEY_MAX_LENGTH = 5 raises ValueError (exit
        2 at the command line) before it builds its pattern codes: here
        building any fails the test, so the rejection allocates nothing."""
        from permlab.cli import main
        from permlab.pattern import PatternCodes

        def refuse(*args):
            raise AssertionError(f"pattern codes built for {args}")

        monkeypatch.setattr(PatternCodes, "__init__", refuse)
        monkeypatch.setattr(census_module, "_codes", refuse)
        with pytest.raises(AssertionError, match="pattern codes built"):
            survey("toric", 5, n_range=range(1, 2))  # length 5 reaches the patched builder
        message = f"pattern length must be at most 5, not {length}"
        with pytest.raises(ValueError, match=message):
            survey("toric", length, n_range=range(1, 2))
        assert census_module.SURVEY_MAX_LENGTH == 5
        capsys.readouterr()
        assert main(["survey", "--relation", "knuth", "--length", str(length)]) == 2
        assert capsys.readouterr() == ("", f"permlab: {message}\n")

    def test_shared_tables_do_not_leak(self, monkeypatch):
        """Every survey of one length reads one `PatternCodes`, whose tables
        are tuples. Surveys run in either order, with a merged toric survey
        and a survey of another length between them, give the payloads of
        surveys that each build their own codes, and leave the shared
        tables as they were."""
        degrees = range(1, 6)
        forward = {rel: survey(rel, 3, n_range=degrees).to_payload() for rel in RELATION_NAMES}
        codes = census_module._codes(3)
        tables = {name: dict(value) if isinstance(value, dict) else value
                  for name, value in vars(codes).items()}
        for name, value in tables.items():
            assert isinstance(value, (int, tuple, dict)), name
        assert all(isinstance(value, tuple) and all(isinstance(t, tuple) for t in value)
                   for value in tables["_ops"].values())
        merged = survey("toric", 3, n_range=degrees, merge_shift=True).to_payload()
        short = survey("order", 2, n_range=degrees).to_payload()
        backward = {rel: survey(rel, 3, n_range=degrees).to_payload()
                    for rel in reversed(RELATION_NAMES)}
        assert backward == forward
        assert census_module._codes(3) is codes
        assert {name: dict(value) if isinstance(value, dict) else value
                for name, value in vars(codes).items()} == tables
        # The same surveys, each from codes of its own.
        monkeypatch.setattr(census_module, "_codes", census_module.PatternCodes)
        assert {rel: survey(rel, 3, n_range=degrees).to_payload() for rel in RELATION_NAMES} == forward
        assert survey("toric", 3, n_range=degrees, merge_shift=True).to_payload() == merged
        assert survey("order", 2, n_range=degrees).to_payload() == short

    def test_payload(self):
        res = survey("descent", 1, n_range=range(1, 4))
        payload = res.to_payload()
        assert payload["relation"] == "descent"
        assert payload["pattern_count"] == 16
        assert len(payload["rows"]) == payload["orbit_count"]


class TestSurveyAgainstOracles:
    """Every survey row against the conftest oracles. A survey makes one pass
    over S_n per degree and gathers each class's occurrence masks by key;
    order keys (an int m) and descent keys (a set S) recur at several
    degrees with different classes, so classes leaking across degrees show
    here."""

    @staticmethod
    def _check(res, rel, degrees, class_masks):
        """Each row's count at each degree is the size of the oracle classes
        avoiding its pattern, by the signature table."""
        assert res.rows
        for row in res.rows:
            want = {}
            for n in degrees:
                avoid = ((1 << math.factorial(n)) - 1) & ~occurrence_mask(row.pat, n)
                want[n] = sum(cls.bit_count() for cls in _closed_classes(avoid, class_masks(rel, n)))
            assert row.counts == want, (rel, str(row.pat))
            assert list(row.counts) == list(degrees)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_length3(self, rel, class_masks):
        degrees = range(1, 6)
        self._check(survey(rel, 3, n_range=degrees), rel, degrees, class_masks)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_length2_to_six(self, rel, class_masks):
        degrees = range(1, 7)
        self._check(survey(rel, 2, n_range=degrees), rel, degrees, class_masks)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_length1_to_six(self, rel, class_masks):
        degrees = range(1, 7)
        self._check(survey(rel, 1, n_range=degrees), rel, degrees, class_masks)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_length0_to_six(self, rel, class_masks):
        degrees = range(1, 7)
        self._check(survey(rel, 0, n_range=degrees), rel, degrees, class_masks)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_length4(self, rel, class_masks):
        """Length 4 still lies within the signature table (TABLE_K = 4)."""
        degrees = range(1, 6)
        self._check(survey(rel, 4, n_range=degrees), rel, degrees, class_masks)

    @staticmethod
    def _rejects_merge(rel, length):
        """Under a relation other than toric the shift changes class-closed
        counts, so a merged survey is refused."""
        with pytest.raises(ValueError, match="only under toric equivalence"):
            survey(rel, length, n_range=range(1, 3), merge_shift=True)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    @pytest.mark.parametrize("length", [2, 3])
    def test_merge_shift(self, rel, length, class_masks):
        if rel != "toric":
            self._rejects_merge(rel, length)
            return
        degrees = range(1, 6)
        res = survey(rel, length, n_range=degrees, merge_shift=True)
        assert len(res.rows) < len(survey(rel, length, n_range=range(1, 2)).rows)
        self._check(res, rel, degrees, class_masks)

    @staticmethod
    def _merged_groups(rel, length):
        """(unmerged rows by pattern, merged rows, the groups of unmerged
        row patterns a merged survey should join). A group is the unmerged
        rows reached by following the shift from each row's pattern while
        its rank lies in Y, joined transitively."""
        degrees = range(1, 5)
        rows = {row.pat: row for row in survey(rel, length, n_range=degrees).rows}
        row_of = {q: pat for pat in rows
                  for q in (apply_symmetry(pat, ops) for ops in RELATIONS[rel].symmetries)}
        linked = {pat: set() for pat in rows}
        for pat in rows:
            cur = pat
            while cur.p and length in cur.y and pat_shift(cur) != pat:
                cur = pat_shift(cur)
                linked[pat].add(row_of[cur])
                linked[row_of[cur]].add(pat)
        groups, left = [], set(rows)
        while left:
            group, todo = set(), [left.pop()]
            while todo:
                cur = todo.pop()
                group.add(cur)
                todo.extend(linked[cur] - group)
            left -= group
            groups.append(group)
        return rows, survey(rel, length, n_range=degrees, merge_shift=True).rows, groups

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    @pytest.mark.parametrize("length", [2, 3])
    def test_merged_rows_named_by_least_absorbed(self, rel, length):
        from permlab.census import _pat_key

        if rel != "toric":
            self._rejects_merge(rel, length)
            return
        rows, merged, groups = self._merged_groups(rel, length)
        assert {row.pat: row.orbit_size for row in merged} == {
            min(group, key=_pat_key): sum(rows[p].orbit_size for p in group) for group in groups}
        assert len(merged) == len(groups)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    @pytest.mark.parametrize("length", [2, 3])
    def test_merged_rows_repeat_absorbed_counts(self, rel, length):
        if rel != "toric":
            self._rejects_merge(rel, length)
            return
        rows, merged, groups = self._merged_groups(rel, length)
        counts = {row.pat: row.counts for row in merged}
        for group in groups:
            (name,) = set(group) & set(counts)
            assert all(rows[p].counts == counts[name] for p in group), (rel, str(name))

    def test_each_word_drawn_once_per_degree(self, monkeypatch):
        drawn = []

        def counted(n):
            for w in s_n(n):
                drawn.append(w)
                yield w

        monkeypatch.setattr(census_module, "s_n", counted)
        for rel in ("order", "toric"):
            drawn.clear()
            survey(rel, 2, n_range=range(1, 5))
            assert drawn == [w for n in range(1, 5) for w in s_n(n)], rel


def _report(table_id, computed):
    """A report comparing `computed` (degree -> count) with a reference row,
    the degrees of the row it leaves out marked skipped."""
    table = SEQUENCE_TABLES[table_id]
    degrees = range(table.start, table.start + len(table.values))
    return SequenceCheckReport(table_id, table.start, table.values,
                               {n: c for n, c in computed.items() if n in degrees},
                               tuple(n for n in degrees if n not in computed))


class TestSequenceCheck:
    def test_dict_comparator(self):
        rep = _report("A000166", {1: 0, 2: 1, 3: 2, 4: 9})
        assert rep.ok
        assert rep.skipped == (5, 6, 7, 8, 9)

    def test_list_comparator(self):
        values = [1, 2, 4, 7, 11]  # aligned to the row's first degree
        rep = _report("A000124", dict(enumerate(values, start=SEQUENCE_TABLES["A000124"].start)))
        assert rep.ok

    def test_mismatch_detected(self):
        rep = _report("A000166", {1: 0, 2: 1, 3: 5})
        assert not rep.ok

    def test_recompute_with_budget(self):
        rep = sequence_check("A000124", budget=6)
        assert rep.ok
        assert set(rep.computed) == {1, 2, 3, 4, 5, 6}
        assert rep.skipped == (7, 8, 9)

    def test_nothing_computed_is_not_ok(self):
        rep = sequence_check("A000124", budget=0)
        assert rep.computed == {}
        assert rep.skipped == tuple(range(1, 10))
        assert not rep.ok
        assert not _report("A000124", {20: 211}).ok

    def test_recompute_class_count_row(self):
        rep = sequence_check("A000041", budget=5)
        assert rep.ok
        assert rep.computed[5] == 7

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            sequence_check("A999999")

    def test_pinned_conjugacy_rows_walk_neither_side(self, monkeypatch):
        # A count-only class-avoid call under conjugacy or order keys the
        # containers from the pattern's site shapes at every degree, so
        # neither its avoiders nor its containers are walked: the four rows
        # whose pattern is pinned to position n or chained to an anchor, and
        # every other class-avoid row of those relations.
        def no_walk(pats, n):
            raise AssertionError(([str(p) for p in pats], n))

        monkeypatch.delenv("PERMLAB_BUDGET_N", raising=False)
        monkeypatch.setattr(census_module, "avoiders", no_walk)
        monkeypatch.setattr(census_module, "containers", no_walk)
        rows = [entry.table for entry in CATALOG
                if entry.mode == "class-avoid" and entry.relation in CONTAINER_KEYED]
        assert {"transpositions", "fpf-involutions", "id-3cycles", "id-2cycles-3cycles",
                "A000124"} < set(rows)
        for table_id in rows:
            rep = sequence_check(table_id)
            assert rep.ok and sorted(rep.computed) == list(range(1, 10)), table_id
            assert not rep.skipped, table_id

    def test_every_table_has_recompute_path(self):
        for table_id in SEQUENCE_TABLES:
            rep = sequence_check(table_id, budget=4)
            assert rep.ok, table_id

    def test_payload(self):
        rep = _report("A000166", {1: 0, 2: 1, 3: 2})
        payload = rep.to_payload()
        assert payload["ok"] is True
        assert payload["computed"] == {"1": 0, "2": 1, "3": 2}


class TestSigmaViaAvoiders:
    def test_matches_arithmetic(self):
        for n in range(1, 9):
            assert sigma_via_avoiders(n) == sigma_arith(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_degree_below_one(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            sigma_via_avoiders(n)

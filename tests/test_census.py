"""Class-closed enumeration, stability, survey, and sequence checking."""

import gc
import inspect
import math
import random
from contextlib import contextmanager
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import permlab
import permlab.census as census_module
from conftest import (PERMS_BY_N, construction_mask, occurrence_mask, scan_avoiders,
                      scan_matchers, words_of)
from permlab.catalog import KNUTH_MATCHING_PATTERN, SEQUENCE_TABLES
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
from permlab.core import s_n
from permlab import generate
from permlab.pattern import all_patterns, pattern
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
    pytest.param(lambda: generate.containers([_231], -2, cap=0), id="containers"),
    pytest.param(lambda: generate.count(True, [], -1), id="count"),
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
            generate.count(True, [pattern((2, 4, 1, 3))], 6)  # the avoider-only loop
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCappedWalk:
    """Given a cap, `avoiders` and `containers` return the uncapped list when
    it has at most `cap` words and None, not a partial list, otherwise."""

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
    def test_cap_at_the_size(self, walk):
        over = 0
        for pats, n in self._cases():
            full = walk(pats, n)
            assert generate.count(walk is generate.avoiders, pats, n) == len(full), (
                [str(p) for p in pats], n)
            assert walk(pats, n, len(full)) == full, ([str(p) for p in pats], n)
            assert walk(pats, n, math.factorial(n)) == full, ([str(p) for p in pats], n)
            if full:
                assert walk(pats, n, len(full) - 1) is None, ([str(p) for p in pats], n)
                assert walk(pats, n, 0) is None
                over += 1
        assert over > 100

    def test_no_reference_cycles_when_over(self):
        pats = [pattern((2, 1, 3), y=[1]), pattern((1, 2), x=[0], y=[1, 2])]
        avoided, contained = len(generate.avoiders(pats, 6)), len(generate.containers(pats, 6))
        gc.collect()
        gc.disable()
        try:
            assert generate.avoiders(pats, 6, avoided // 2) is None
            assert generate.containers(pats, 6, contained // 2) is None
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

    @pytest.mark.parametrize("avoid, pat, n", [
        (True, pattern((2, 3, 1)), 9),
        (True, pattern((2, 4, 1, 3)), 8),
        (False, pattern((2, 4, 1, 3)), 7),
        (True, pattern((2, 3, 1), y=[0]), 8),
        (False, pattern((1, 3, 2), x=[3], y=[0, 1, 3]), 8),
        (False, pattern((2, 1), x=[1], y=[0, 2]), 7),
    ])
    def test_count_walk_enters_the_word_walks_prefixes(self, entered, avoid, pat, n):
        # Counting changes only what is done with a kept child's completions,
        # not which prefixes are grown: for 231 at n = 9, the 7,072 above.
        assert generate.count(avoid, [pat], n) == len(
            (generate.avoiders if avoid else generate.containers)([pat], n))
        words = set(entered)
        entered.clear()
        generate.count(avoid, [pat], n)
        assert entered == words and entered
        if str(pat) == "231;x=;y=":
            assert len(entered) == 7072

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
        # A call reads its children off the bitmask of unplaced values
        # through a cache with one entry per set of unplaced values entered.
        generate._unplaced.cache_clear()
        assert generate.count(True, [pattern((2, 3, 1))], 9) == _catalan(9)
        assert len(generate.avoiders([pattern((2, 3, 1))], 9)) == _catalan(9)
        assert 1 <= generate._unplaced.cache_info().currsize <= 2 ** 9


RELATION_NAMES = ("conjugacy", "order", "knuth", "toric", "descent")


@contextmanager
def _sides_walked():
    """Record, for each count-only class-closed call, the walk it capped and
    the side it counted from: "kept" when that walk stayed within its cap,
    "other" when it went over and the other side was walked instead."""
    sides: list[tuple[str, str]] = []
    saved = census_module.avoiders, census_module.containers

    def recording(walk):
        def capped(pats, n, cap=None):
            out = walk(pats, n, cap)
            if cap is not None:
                sides.append((walk.__name__, "kept" if out is not None else "other"))
            return out
        return capped

    census_module.avoiders, census_module.containers = map(recording, saved)
    try:
        yield sides
    finally:
        census_module.avoiders, census_module.containers = saved


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

    A call with members walks its side uncapped and closes it; it is checked
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
    smaller: past n!/2 kept words they key the other side and subtract from
    n! and the class total. They are compared with the oracle classes, and
    both sides must be taken."""

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_all_length3_patterns(self, rel, avoid_masks, class_masks):
        # The same grid as the members path, patterns of length 1-3.
        calls = 0
        with _sides_walked() as sides:
            for fn, n, pat, want in _short_pattern_cells(rel, avoid_masks, class_masks):
                assert _counts(fn([pat], rel, n)) == want[:2], (fn.__name__, n, str(pat))
                calls += 1
        assert len(sides) == calls
        assert set(sides) == {(walk, side) for walk in ("avoiders", "containers")
                              for side in ("kept", "other")}

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
        # Past the cap a descent call reads its class total from the census,
        # whose histogram is built once per relation and degree.
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


class TestKnuthMatching:
    def test_counts_are_shifted_catalan(self):
        got = [class_matchers([KNUTH_MATCHING_PATTERN], "knuth", n).count
               for n in range(2, 8)]
        assert got == [_catalan(n - 1) for n in range(2, 8)]

    def test_member_characterization(self):
        # Every member starts with n-1 and the rest, read as a word, has no
        # increasing triple.
        from itertools import combinations, permutations

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
        from itertools import combinations, permutations

        for p in permutations((1, 2, 3)):
            rep = stability(pattern(p), "knuth", 6)
            assert rep.stable, p
            assert rep.witness is None

    def test_vincular_run_unstable(self):
        rep = stability(VINCULAR_123, "knuth", 6)
        assert not rep.stable
        assert rep.witness_n == 4
        assert rep.witness == (1, 3, 2, 4)

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
        from permlab.pattern import pat_shift

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
        from permlab.pattern import apply_symmetry
        from permlab.relations import RELATIONS

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
        from permlab.pattern import apply_symmetry, pat_shift
        from permlab.relations import RELATIONS

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

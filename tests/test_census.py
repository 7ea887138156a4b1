"""Class-closed enumeration, stability, survey, and sequence checking."""

import gc
import inspect
import math
import random
from contextlib import contextmanager
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import permlab
import permlab.census as census_module
from conftest import PERMS_BY_N, occurrence_mask, scan_avoiders, scan_matchers, words_of
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
from permlab.arith import sigma_arith
from permlab.core import s_n
from permlab import generate
from permlab.generate import occurrence_masks
from permlab.pattern import all_patterns, pattern


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

    def test_empty_patterns_and_degree_zero(self):
        for pat in list(all_patterns(0)) + list(all_patterns(1)):
            for n in range(0, 4):
                assert avoid_all([pat], n) == scan_avoiders([pat], n), (str(pat), n)
                assert match_all([pat], n) == scan_matchers([pat], n), (str(pat), n)

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
    def test_random_pattern_sets(self, pats, n):
        assert avoid_all(pats, n) == scan_avoiders(pats, n)
        assert match_all(pats, n) == scan_matchers(pats, n)

    def test_no_reference_cycles(self):
        pats = [pattern((2, 1, 3), y=[1]), pattern((1, 2), x=[0], y=[1, 2])]
        avoid_all(pats, 5), match_all(pats, 5)
        gc.collect()
        gc.disable()
        try:
            avoid_all(pats, 6), match_all(pats, 6)
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
        return cases

    @pytest.mark.parametrize("walk", [generate.avoiders, generate.containers])
    def test_cap_at_the_size(self, walk):
        over = 0
        for pats, n in self._cases():
            full = walk(pats, n)
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
        """The prefixes the avoider walk enters, recorded as it goes."""
        seen: set = set()
        grow = generate._grow_avoiders

        def record(live_at, horizon, prefix, *rest):
            seen.add(tuple(prefix))
            return grow(live_at, horizon, prefix, *rest)

        monkeypatch.setattr(generate, "_grow_avoiders", record)
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

    def test_entered_prefixes_at_nine(self, entered):
        # The live prefixes of 231 at n = 9; a walk that drops a child only
        # once an occurrence ends at its new letter enters 51,822.
        assert len(generate.avoiders([pattern((2, 3, 1))], 9)) == _catalan(9)
        assert len(entered) == 11934

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


@st.composite
def _one_length_patterns(draw):
    k = draw(st.integers(0, 4))
    return draw(st.lists(_patterns(k, k), min_size=1, max_size=40))


class TestOccurrenceMasks:
    """`occurrence_masks` reads position subsets against a signature memo;
    the oracle is the conftest signature table, which shares none of its
    code."""

    @settings(max_examples=40, deadline=None)
    @given(pats=_one_length_patterns(), n=st.integers(0, 7))
    # 0 and k in X and in Y; then an occurrence filling all positions and values
    @example(pats=[pattern((1, 3, 2), x=[0, 3], y=[0, 3]), pattern((1, 3, 2), x=[1])], n=5)
    @example(pats=[pattern((2, 1), x=[0, 1, 2], y=[0, 1, 2]), pattern((1, 2), y=[2])], n=2)
    @example(pats=[pattern(()), pattern((), x=[0]), pattern((), y=[0])], n=0)  # k = 0
    @example(pats=[pattern(()), pattern((), x=[0]), pattern((), y=[0])], n=3)
    @example(pats=[pattern((2, 4, 1, 3)), pattern((1, 2, 3, 4), x=[4])], n=3)  # k > n
    def test_against_engine(self, pats, n):
        masks = list(occurrence_masks(pats, n))
        assert len(masks) == math.factorial(n)
        want = [occurrence_mask(pat, n) for pat in pats]
        for idx, (w, mask) in enumerate(zip(s_n(n), masks)):
            assert [mask >> i & 1 for i in range(len(pats))] == [
                occurs >> idx & 1 for occurs in want], w
            assert mask >> len(pats) == 0

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            list(occurrence_masks([pattern((1, 2)), pattern((1,))], 3))


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


class TestKnuthMatching:
    def test_counts_are_shifted_catalan(self):
        got = [class_matchers([KNUTH_MATCHING_PATTERN], "knuth", n).count
               for n in range(2, 8)]
        assert got == [_catalan(n - 1) for n in range(2, 8)]

    def test_member_characterization(self):
        # Every member starts with n-1 and the rest, read as a word, has no
        # increasing triple.
        from itertools import permutations

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
        from itertools import permutations

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


class TestSurvey:
    def test_orbit_counts_per_relation(self):
        assert survey("toric", 3, n_range=range(1, 3)).orbit_count == 212
        assert survey("knuth", 3, n_range=range(1, 3)).orbit_count == 392
        assert survey("conjugacy", 3, n_range=range(1, 3)).orbit_count == 424

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
    def _check(res, rel, degrees, avoid_masks, class_masks):
        assert res.rows
        for row in res.rows:
            want = {n: _oracle_triple(_closed_classes(avoid_masks[row.pat][n],
                                                      class_masks(rel, n)), n)[0]
                    for n in degrees}
            assert row.counts == want, (rel, str(row.pat))
            assert list(row.counts) == list(degrees)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_length3(self, rel, avoid_masks, class_masks):
        degrees = range(1, 6)
        self._check(survey(rel, 3, n_range=degrees), rel, degrees, avoid_masks, class_masks)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_length2_to_six(self, rel, avoid_masks, class_masks):
        degrees = range(1, 7)
        self._check(survey(rel, 2, n_range=degrees), rel, degrees, avoid_masks, class_masks)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    def test_length1_to_six(self, rel, avoid_masks, class_masks):
        degrees = range(1, 7)
        self._check(survey(rel, 1, n_range=degrees), rel, degrees, avoid_masks, class_masks)

    @staticmethod
    def _rejects_merge(rel, length):
        """Under a relation other than toric the shift changes class-closed
        counts, so a merged survey is refused."""
        with pytest.raises(ValueError, match="only under toric equivalence"):
            survey(rel, length, n_range=range(1, 3), merge_shift=True)

    @pytest.mark.parametrize("rel", RELATION_NAMES)
    @pytest.mark.parametrize("length", [2, 3])
    def test_merge_shift(self, rel, length, avoid_masks, class_masks):
        if rel != "toric":
            self._rejects_merge(rel, length)
            return
        degrees = range(1, 6)
        res = survey(rel, length, n_range=degrees, merge_shift=True)
        assert len(res.rows) < len(survey(rel, length, n_range=range(1, 2)).rows)
        self._check(res, rel, degrees, avoid_masks, class_masks)

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

"""Class-closed avoidance and containment enumeration.

Everything here is built on one two-pass scheme: first generate the
permutations that avoid (or contain) the patterns by extending prefixes one
letter at a time and dropping a prefix as soon as an occurrence ends at its
new letter, then close the kept permutations under the relation by tallying
class keys against the relation's closed-form class sizes. A class is
counted for avoidance when every member avoids, and for containment when
every member matches; counts report permutations in the union of counted
classes, with the class tally carried alongside.

A class-closed request with members walks the side it asks for and closes
it. A count-only request may read either side: a class is counted exactly
when none of its members lies on the other side (the words containing some
pattern, for avoidance), so keying the other side gives the count as n!
less the sizes of the classes it touches, and the class count as the
number of classes in the relation's census less their number. For
avoidance the words containing a pattern number at most its occurrences
over all of S_n (`occurrence_total`; the first-moment bound), so when those
totals sum to at most n!/2 the containers are keyed at once. Otherwise the
requested side is walked whole; if it holds more than n!/2 words they are
dropped and the other side is keyed instead, so a count-only request never
keys more than n!/2 words of its own side.

The other side is keyed by one rule. The containers of a pattern are the
words of its blocks (`permlab.generate.blocks`): p placed at a site,
positions that X admits and values that Y admits, with the other letters
in any order. Where no walk is needed, the blocks are keyed:

- under conjugacy and order, for every pattern: `Relation.block_keys` keys
  a whole block in closed form, so blocks that overlap cost nothing. The
  completions of its placed letters join their open paths into cycles, so
  its cycle types are its closed cycles with each coarsening of the path
  lengths, and its orders their lcms;
- under Knuth, toric and descent, for a fixed-site pattern, of length k
  with |X| >= k or |Y| >= k: its anchors fix the positions or the values
  of every occurrence, so its blocks are disjoint, and their words
  (`permlab.generate.block_words`) are keyed one by one.

Otherwise the other side is walked: the containers of any other pattern,
and the avoiders for containment.

A survey asks this of hundreds of patterns at once. It first reduces them
to one row per symmetry orbit on integer codes (`PatternCodes`, one per
pattern length and process): each symmetry maps p and the pair (X, Y)
through one table each, and the least image over the relation's symmetries
gives each code the least code of its orbit, which names its row. A pattern
is built only for each row's name. The survey then makes one pass over S_n
per degree: each word is keyed once and gets one bitmask of the rows whose
pattern occurs in it (`signature_masks`, which computes one signature per
letter tuple), each class gathers the OR of its members' masks, and a row's
count is the size of the classes whose OR lacks its bit, summed for all
rows at once in binary counter planes. No class size is needed there, since
every class is seen whole. A row's reference rows are read from an index of
their values (`match_tables`), once per distinct count sequence.

Plain avoidance and containment (no relation) need no keys. Without
members they are counted by the same walk in its count mode, which adds the
number of completions of each kept prefix and builds no word; with members
the words come from `avoid_all` or `match_all`. Avoiders of patterns such
as 231, 321, 132 and 213;y=1, whose kernels read only the set of unplaced
values and have no deciding value, are counted once per such set: the set
alone fixes how many completions of a prefix are kept. Avoiders of other
classical patterns, such as 2413, are counted once per label of unplaced
count and partial occurrences. The avoiders of one fixed-site pattern are
n! less its occurrence total, with no walk. Containers of one pattern are
counted as n! less its avoiders, and those of several classical patterns
by inclusion-exclusion over avoider counts (see `permlab.generate`).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Hashable

from .catalog import CATALOG, DIVISOR_PATTERN, SEQUENCE_TABLES, match_tables
from .core import Word, format_perm, s_n
from .generate import avoiders, block_words, blocks, containers, count, fixed_site
from .pattern import (BivincularPattern, PatternCodes, mask_table, occurrence_total,
                      signature_masks)
from .relations import RELATIONS, Relation, census, check_budget, resolve_budget


def _as_relation(relation: Relation | str) -> Relation:
    if isinstance(relation, Relation):
        return relation
    try:
        return RELATIONS[relation]
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}") from None


class EnumerationResult:
    """Outcome of one enumeration: counts always, members on request."""

    __slots__ = ("mode", "relation", "patterns", "n", "count", "class_count", "members")

    def __init__(self, mode: str, relation: str, patterns: tuple[BivincularPattern, ...], n: int,
                 count: int, class_count: int, members: tuple[Word, ...] | None) -> None:
        self.mode = mode
        self.relation = relation
        self.patterns = patterns
        self.n = n
        self.count = count
        self.class_count = class_count
        self.members = members

    def __eq__(self, other: object):
        """Two results are equal when all their fields are."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def to_payload(self) -> dict:
        payload: dict = {
            "mode": self.mode,
            "relation": self.relation,
            "patterns": [str(p) for p in self.patterns],
            "n": self.n,
            "count": self.count,
            "class_count": self.class_count,
        }
        if self.members is not None:
            payload["members"] = [format_perm(w) for w in self.members]
        return payload


def avoid_all(pats: list[BivincularPattern] | tuple[BivincularPattern, ...], n: int,
              *, budget: int | None = None) -> list[Word]:
    """Permutations of 1..n avoiding every given pattern, in lex order."""
    check_budget(n, budget)
    return avoiders(pats, n)


def match_all(pats: list[BivincularPattern] | tuple[BivincularPattern, ...], n: int,
              *, budget: int | None = None) -> list[Word]:
    """Permutations of 1..n containing every given pattern, in lex order."""
    check_budget(n, budget)
    return containers(pats, n)


def _class_closed(kept: list[Word], rel: Relation,
                  want_members: bool) -> tuple[int, int, tuple[Word, ...] | None]:
    """(permutations, classes, members or None) of the classes lying wholly
    inside `kept`, a lex-ordered list of permutations of one degree.

    Each kept permutation is keyed once and a class lies inside `kept`
    exactly when its key's tally equals its closed-form size; the members
    are then the kept words with such a key, still in lex order.
    """
    n = len(kept[0]) if kept else 0
    keys = [rel.key(w) for w in kept]
    tally = Counter(keys)
    closed = {k for k, t in tally.items() if t == rel.class_size(n, k)}
    count = sum(tally[k] for k in closed)
    members = tuple(w for w, k in zip(kept, keys) if k in closed) if want_members else None
    return count, len(closed), members


def _closed_result(avoid: bool, pats, relation: Relation | str, n: int, want_members: bool,
                   budget: int | None) -> EnumerationResult:
    """The classes all of whose members avoid (or, for `avoid` false,
    contain) every pattern. With members, the requested side is walked and
    closed. Without, the other side is keyed instead when the patterns'
    occurrence totals sum to at most n!/2 (avoidance only) or the requested
    side holds more than n!/2 words. Each pattern's part of the other side
    is keyed by its blocks where no walk is needed, and walked otherwise
    (see the module docstring)."""
    rel = _as_relation(relation)
    pats = tuple(pats)
    check_budget(n, budget)
    total = math.factorial(n)
    walk, other = (avoiders, containers) if avoid else (containers, avoiders)
    few_containers = (avoid and not want_members
                      and 2 * sum(occurrence_total(pat, n) for pat in pats) <= total)
    kept = None if few_containers else walk(pats, n)
    if kept is not None and not want_members and 2 * len(kept) > total:
        kept = None  # the other side is the smaller: drop these words, key it
    if kept is not None:
        count, class_count, members = _class_closed(kept, rel, want_members)
    else:
        block_keys = rel.block_keys or (
            lambda positions, letters, n: map(rel.key, block_words(positions, letters, n)))
        touched = set()
        for pat in pats:
            if avoid and (rel.block_keys or fixed_site(pat)):
                for positions, letters in blocks(pat, n):
                    touched.update(block_keys(positions, letters, n))
            else:
                touched.update(map(rel.key, other([pat], n)))
        count = total - sum(rel.class_size(n, k) for k in touched)
        class_count = census(rel, n, budget=budget).class_count - len(touched)
        members = None
    return EnumerationResult("class-avoid" if avoid else "class-match", rel.name, pats, n,
                             count, class_count, members)


def class_avoiders(pats, relation: Relation | str, n: int, *,
                   want_members: bool = False, budget: int | None = None) -> EnumerationResult:
    """Union of relation classes in which every member avoids every pattern."""
    return _closed_result(True, pats, relation, n, want_members, budget)


def class_matchers(pats, relation: Relation | str, n: int, *,
                   want_members: bool = False, budget: int | None = None) -> EnumerationResult:
    """Union of relation classes in which every member contains every pattern."""
    return _closed_result(False, pats, relation, n, want_members, budget)


def _plain_result(avoid: bool, pats, n: int, want_members: bool,
                  budget: int | None) -> EnumerationResult:
    """Each permutation is its own class. Without members the walk only
    counts, as the module docstring describes."""
    pats = tuple(pats)
    if want_members:
        members = tuple((avoid_all if avoid else match_all)(pats, n, budget=budget))
        kept = len(members)
    else:
        check_budget(n, budget)
        kept, members = count(avoid, pats, n), None
    return EnumerationResult("avoid" if avoid else "class-match", "none", pats, n, kept, kept,
                             members)


def plain_avoiders(pats, n: int, *, want_members: bool = False,
                   budget: int | None = None) -> EnumerationResult:
    """Ordinary avoidance, no relation: each permutation is its own class."""
    return _plain_result(True, pats, n, want_members, budget)


def plain_matchers(pats, n: int, *, want_members: bool = False,
                   budget: int | None = None) -> EnumerationResult:
    """Ordinary containment, no relation: each permutation is its own class."""
    return _plain_result(False, pats, n, want_members, budget)


def sigma_via_avoiders(n: int, *, budget: int | None = None) -> int:
    """Divisor sum recovered by full enumeration: total the position of the
    letter 1 over the class-closed avoiders of the divisor pattern under the
    cyclic relation."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    result = class_avoiders([DIVISOR_PATTERN], "toric", n, want_members=True, budget=budget)
    return sum(w.index(1) + 1 for w in result.members)


class StabilityReport:
    """Whether class-closed avoidance agrees with plain avoidance of the
    pattern's own class, degree by degree up to n_max."""

    __slots__ = ("pat", "relation", "n_max", "pattern_class", "stable", "witness_n", "witness")

    def __init__(self, pat: BivincularPattern, relation: str, n_max: int,
                 pattern_class: tuple[BivincularPattern, ...], stable: bool, witness_n: int | None,
                 witness: Word | None) -> None:
        self.pat = pat
        self.relation = relation
        self.n_max = n_max
        self.pattern_class = pattern_class
        self.stable = stable
        self.witness_n = witness_n
        self.witness = witness

    def to_payload(self) -> dict:
        payload: dict = {
            "pattern": str(self.pat),
            "relation": self.relation,
            "n_max": self.n_max,
            "pattern_class": [str(p) for p in self.pattern_class],
            "stable": self.stable,
        }
        if not self.stable:
            payload["witness_n"] = self.witness_n
            payload["witness"] = format_perm(self.witness)
        return payload


def _pat_key(pat: BivincularPattern):
    return (pat.p, tuple(sorted(pat.x)), tuple(sorted(pat.y)))


def stability(pat: BivincularPattern, relation: Relation | str, n_max: int, *,
              budget: int | None = None) -> StabilityReport:
    """Compare class-closed avoiders of `pat` with plain avoiders of its
    induced pattern class for every degree up to n_max.

    The check fails at the first degree where the two sets differ, and the
    witness is the least word of their symmetric difference, on either
    side. The class-closed side need not lie inside the plain one: under
    Knuth equivalence with X or Y non-empty, the whole class of a word may
    avoid `pat` while the word contains another member of the pattern
    class (the class of 4213 avoids 132;y=0, yet 4213 contains 312;y=0).
    Under toric equivalence it lay inside for every pattern of length at
    most 3 at n <= 6.
    """
    rel = _as_relation(relation)
    if rel.pattern_class is None:
        raise ValueError(f"relation {rel.name!r} does not act on patterns")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, not {n_max}")
    ptilde = tuple(sorted(rel.pattern_class(pat), key=_pat_key))
    for n in range(1, n_max + 1):
        check_budget(n, budget)
        closed = set(class_avoiders([pat], rel, n, want_members=True, budget=budget).members)
        plain = set(avoid_all(ptilde, n, budget=budget))
        if closed != plain:
            witness = min(closed.symmetric_difference(plain))
            return StabilityReport(pat, rel.name, n_max, ptilde, False, n, witness)
    return StabilityReport(pat, rel.name, n_max, ptilde, True, None, None)


class SurveyRow:
    """One orbit of a survey: the pattern naming it, the number of patterns
    it covers, its count per degree and the reference rows those match."""

    __slots__ = ("pat", "orbit_size", "counts", "tables")

    def __init__(self, pat: BivincularPattern, orbit_size: int, counts: dict[int, int],
                 tables: tuple[str, ...]) -> None:
        self.pat = pat
        self.orbit_size = orbit_size
        self.counts = counts
        self.tables = tables

    def to_payload(self) -> dict:
        return {
            "pattern": str(self.pat),
            "orbit_size": self.orbit_size,
            "counts": {str(n): c for n, c in sorted(self.counts.items())},
            "tables": list(self.tables),
        }


class SurveyResult:
    """A survey of every pattern of one length: one row per orbit."""

    __slots__ = ("relation", "length", "pattern_count", "rows")

    def __init__(self, relation: str, length: int, pattern_count: int,
                 rows: list[SurveyRow]) -> None:
        self.relation = relation
        self.length = length
        self.pattern_count = pattern_count
        self.rows = rows

    @property
    def orbit_count(self) -> int:
        return len(self.rows)

    def to_payload(self) -> dict:
        return {
            "relation": self.relation,
            "length": self.length,
            "pattern_count": self.pattern_count,
            "orbit_count": self.orbit_count,
            "rows": [row.to_payload() for row in self.rows],
        }


#: The longest pattern a survey takes. Length 5 has 491,520 pattern codes,
#: and length k + 1 has 4(k + 1) times as many as length k: 11,796,480 at 6.
SURVEY_MAX_LENGTH = 5


@lru_cache(maxsize=None)
def _codes(length: int) -> PatternCodes:
    """The codes of one pattern length, built once per process and shared by
    every survey of that length."""
    return PatternCodes(length)


def survey(relation: Relation | str, length: int, *, n_range=range(1, 6),
           merge_shift: bool = False, budget: int | None = None) -> SurveyResult:
    """Class-closed avoidance counts for all patterns of one length, one row
    per symmetry orbit of the relation.

    `length` must lie in 0..SURVEY_MAX_LENGTH; a longer one raises
    ValueError before any table is built.

    Rows are reduced on integer codes (`PatternCodes`, built once per length
    and process and shared by every survey). `rel.symmetries` form a group,
    so a code's orbit is the set of its images under them, and
    `PatternCodes.least` gives every code the least code of its orbit from
    the symmetries' tables on p and on the pair (X, Y); counting those gives
    the orbit sizes. A row is named by its least code, which is its least
    pattern by `_pat_key`. A `BivincularPattern` is built only for each
    row's name.

    `merge_shift` additionally merges the orbits that the shift map links,
    following it from each orbit's least pattern while the rank lies in Y;
    this trims rows that repeat an earlier row's numbers. Toric classes are
    closed under the value shift, so only there does the shift preserve
    class-closed counts, and any other relation raises ValueError. A row's
    `orbit_size` counts the patterns it covers.

    Each degree is one pass over S_n that tests every row's pattern at once
    (`signature_masks`, reading a table of the rows' (X bits, Y bits, row
    bit) built once per survey) and keys each word once by `rel.key`. Each
    class then adds the mask of the rows it avoids, times its size, into
    binary counter planes, from which each row's count is read out once.
    A row's reference rows are looked up once per distinct count sequence
    (`match_tables`).
    """
    rel = _as_relation(relation)
    if merge_shift and rel.name != "toric":
        raise ValueError("the shift preserves class-closed counts only under toric "
                         f"equivalence, so rows cannot be merged along it under {rel.name}")
    if length < 0:
        raise ValueError(f"pattern length must be at least 0, not {length}")
    if length > SURVEY_MAX_LENGTH:
        raise ValueError(f"pattern length must be at most {SURVEY_MAX_LENGTH}, not {length}")
    degrees = list(n_range)
    for n in degrees:  # fail on a degree over budget before doing any work
        check_budget(n, budget)
    codes = _codes(length)
    least = codes.least(rel.symmetries)  # code -> the least code of its orbit
    if merge_shift:
        # Each row becomes a tree of `least` links whose root, its least
        # code, names it; then least[c] is the root of c's row.
        def find(code: int) -> int:
            while least[code] != code:
                code = least[code]
            return code

        for cur in sorted(set(least)):
            for _ in range(length + 2):
                # The shift preserves counts only when the rank lies in Y.
                if not codes.rank_in_y(cur):
                    break
                nxt = codes.shift(cur)
                a, b = sorted((find(cur), find(nxt)))
                least[b] = a
                cur = nxt
        least = [find(code) for code in range(codes.count)]
    row_size = Counter(least)  # a row's least code -> the number of patterns it covers
    row_codes = sorted(row_size)
    table = mask_table(length, (codes.triple(code) + (1 << bit,) for bit, code in enumerate(row_codes)))

    counts: list[dict[int, int]] = [{} for _ in row_codes]
    key = rel.key
    everything = (1 << len(row_codes)) - 1
    for n in degrees:
        # One pass over S_n: each class gathers the OR of its members'
        # occurrence masks and its member count.
        classes: dict[Hashable, list[int]] = {}
        for w, mask in zip(s_n(n), signature_masks(table, length, n)):
            k = key(w)
            entry = classes.get(k)
            if entry is None:
                classes[k] = [mask, 1]
            else:
                entry[0] |= mask
                entry[1] += 1
        # A row's class-closed avoiders are the members of the classes whose
        # OR lacks the row's bit. planes[j] holds bit j of every row's count:
        # each class adds each set bit of its size to the rows it avoids, by a
        # ripple-carry add on the planes. No count passes n!, so no carry
        # leaves them.
        planes = [0] * math.factorial(n).bit_length()
        for seen, size in classes.values():
            avoided = everything & ~seen
            for j in range(size.bit_length()):
                if size >> j & 1:
                    carry, i = avoided, j
                    while carry:
                        planes[i], carry = planes[i] ^ carry, planes[i] & carry
                        i += 1
        # Row i's count, in binary, is bit i of each plane, highest plane first.
        digits = [format(plane, f"0{len(counts)}b")[::-1] for plane in reversed(planes)]
        for row_counts, bits in zip(counts, zip(*digits)):
            row_counts[n] = int("".join(bits), 2)
    tables: dict[tuple[int, ...], tuple[str, ...]] = {}
    rows = []
    for code, row_counts in zip(row_codes, counts):
        seq = tuple(row_counts.values())
        if seq not in tables:
            tables[seq] = tuple(match_tables(row_counts))
        rows.append(SurveyRow(codes.pattern(code), row_size[code], row_counts, tables[seq]))
    return SurveyResult(rel.name, length, codes.count, rows)


class SequenceCheckReport:
    """A reference row recomputed: the expected values from degree `start`
    on, the computed count per degree, and the degrees skipped."""

    __slots__ = ("id", "start", "expected", "computed", "skipped")

    def __init__(self, id: str, start: int, expected: tuple[int, ...], computed: dict[int, int],
                 skipped: tuple[int, ...]) -> None:
        self.id = id
        self.start = start
        self.expected = expected
        self.computed = computed
        self.skipped = skipped

    @property
    def ok(self) -> bool:
        """Every compared degree agrees, and at least one was compared."""
        return bool(self.computed) and all(
            self.computed[n] == self.expected[n - self.start] for n in self.computed)

    def to_payload(self) -> dict:
        return {
            "id": self.id,
            "start": self.start,
            "expected": list(self.expected),
            "computed": {str(n): c for n, c in sorted(self.computed.items())},
            "skipped": list(self.skipped),
            "ok": self.ok,
        }


_CLASS_COUNT_IDS = {"A000041": "conjugacy", "A009490": "order", "A002619": "toric"}


def sequence_check(table_id: str, *, budget: int | None = None) -> SequenceCheckReport:
    """Recompute an embedded reference row degree by degree. Degrees beyond
    the enumeration budget are reported as skipped.
    """
    try:
        table = SEQUENCE_TABLES[table_id]
    except KeyError:
        raise ValueError(f"unknown sequence id {table_id!r}") from None
    limit = resolve_budget(budget)
    computed = {}
    skipped: list[int] = []
    for n in range(table.start, table.start + len(table.values)):
        if n > limit:
            skipped.append(n)
        else:
            computed[n] = _recompute(table_id, n, budget)
    return SequenceCheckReport(table_id, table.start, table.values, computed, tuple(skipped))


def _recompute(table_id: str, n: int, budget: int | None) -> int:
    if table_id in _CLASS_COUNT_IDS:
        return census(RELATIONS[_CLASS_COUNT_IDS[table_id]], n, budget=budget).class_count
    for entry in CATALOG:
        if entry.table == table_id:
            fn = class_matchers if entry.mode == "class-match" else class_avoiders
            return fn([entry.pat], entry.relation, n, budget=budget).count
    raise ValueError(f"no recomputation rule for sequence {table_id!r}")

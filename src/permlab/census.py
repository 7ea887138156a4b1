"""Class-closed avoidance and containment enumeration.

Everything here is built on one two-pass scheme: first generate the
permutations that avoid (or contain) the patterns by extending prefixes one
letter at a time and dropping a prefix as soon as an occurrence ends at its
new letter, then close the kept permutations under the relation by tallying
class keys against the relation's closed-form class sizes. A class is
counted for avoidance when every member avoids, and for containment when
every member matches; counts report permutations in the union of counted
classes, with the class tally carried alongside.

Each class-closed request makes one walk call on the side it asks for:
uncapped when members are wanted, and capped at n!/2 words when only counts
are. A class is counted exactly when none of its members lies on the other
side (the words containing some pattern, for avoidance), so once a capped
walk passes n!/2 words it is dropped and the other side is keyed instead:
the count is n! less the sizes of the classes it touches, and the class
count the relation's class total less their number.

A survey asks this of hundreds of patterns at once, so it makes one pass
over S_n per degree instead: each word is keyed once and gets one bitmask
of the patterns occurring in it, each class gathers the OR of its members'
masks, and a pattern's count is the size of the classes whose OR lacks its
bit. No class size is needed there, since every class is seen whole.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable

from .catalog import CATALOG, DIVISOR_PATTERN, SEQUENCE_TABLES, match_tables
from .core import Word, format_perm, s_n
from .generate import avoiders, containers, occurrence_masks
from .pattern import BivincularPattern, all_patterns, apply_symmetry, pat_shift
from .relations import RELATIONS, Relation, census, check_budget, resolve_budget


def _as_relation(relation: Relation | str) -> Relation:
    if isinstance(relation, Relation):
        return relation
    try:
        return RELATIONS[relation]
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}") from None


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one enumeration: counts always, members on request."""

    mode: str
    relation: str
    patterns: tuple[BivincularPattern, ...]
    n: int
    count: int
    class_count: int
    members: tuple[Word, ...] | None

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
    """Close one walk of the requested side, or past the n!/2 cap of a
    count-only walk read the other side, as the module docstring describes.
    The other side is the union of one walk per pattern: its containers for
    avoidance, its avoiders for containment."""
    rel = _as_relation(relation)
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    pats = tuple(pats)
    check_budget(n, budget)
    total = math.factorial(n)
    walk, other = (avoiders, containers) if avoid else (containers, avoiders)
    kept = walk(pats, n, None if want_members else total // 2)
    if kept is not None:
        count, class_count, members = _class_closed(kept, rel, want_members)
    else:
        touched = set()
        for pat in pats:
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


def plain_avoiders(pats, n: int, *, want_members: bool = False,
                   budget: int | None = None) -> EnumerationResult:
    """Ordinary avoidance, no relation: each permutation is its own class."""
    pats = tuple(pats)
    kept = avoid_all(pats, n, budget=budget)
    return EnumerationResult("avoid", "none", pats, n, len(kept), len(kept),
                             tuple(kept) if want_members else None)


def plain_matchers(pats, n: int, *, want_members: bool = False,
                   budget: int | None = None) -> EnumerationResult:
    """Ordinary containment, no relation: each permutation is its own class."""
    pats = tuple(pats)
    kept = match_all(pats, n, budget=budget)
    return EnumerationResult("class-match", "none", pats, n, len(kept), len(kept),
                             tuple(kept) if want_members else None)


def sigma_via_avoiders(n: int, *, budget: int | None = None) -> int:
    """Divisor sum recovered by full enumeration: total the position of the
    letter 1 over the class-closed avoiders of the divisor pattern under the
    cyclic relation."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    result = class_avoiders([DIVISOR_PATTERN], "toric", n, want_members=True, budget=budget)
    return sum(w.index(1) + 1 for w in result.members)


@dataclass(frozen=True)
class StabilityReport:
    """Whether class-closed avoidance agrees with plain avoidance of the
    pattern's own class, degree by degree up to n_max."""

    pat: BivincularPattern
    relation: str
    n_max: int
    pattern_class: tuple[BivincularPattern, ...]
    stable: bool
    witness_n: int | None
    witness: Word | None

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

    Containment of the class-closed side in the plain side always holds; the
    check fails exactly when some permutation avoids the whole pattern class
    while a relation classmate of it contains `pat`.
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


@dataclass
class SurveyRow:
    pat: BivincularPattern
    orbit_size: int
    counts: dict[int, int]
    tables: tuple[str, ...]

    def to_payload(self) -> dict:
        return {
            "pattern": str(self.pat),
            "orbit_size": self.orbit_size,
            "counts": {str(n): c for n, c in sorted(self.counts.items())},
            "tables": list(self.tables),
        }


@dataclass
class SurveyResult:
    relation: str
    length: int
    pattern_count: int
    rows: list[SurveyRow]

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


def survey(relation: Relation | str, length: int, *, n_range=range(1, 6),
           merge_shift: bool = False, budget: int | None = None) -> SurveyResult:
    """Class-closed avoidance counts for all patterns of one length, one row
    per symmetry orbit of the relation.

    Each degree is one pass over S_n that tests every row's pattern at once
    (`occurrence_masks`) and keys each word once by `rel.key`.

    `merge_shift` additionally merges the orbits that the shift map links,
    following it from each orbit's least pattern while the rank lies in Y;
    this trims rows that repeat an earlier row's numbers. Toric classes are
    closed under the value shift, so only there does the shift preserve
    class-closed counts, and any other relation raises ValueError. A row is
    named by the least pattern (by `_pat_key`) it covers, and its
    `orbit_size` counts the patterns it covers.
    """
    rel = _as_relation(relation)
    if merge_shift and rel.name != "toric":
        raise ValueError("the shift preserves class-closed counts only under toric "
                         f"equivalence, so rows cannot be merged along it under {rel.name}")
    if length < 0:
        raise ValueError(f"pattern length must be at least 0, not {length}")
    pats = list(all_patterns(length))
    # Each pattern maps to its row's name, the least pattern of its row (while
    # orbits merge, to a pattern nearer that name).
    row_of: dict[BivincularPattern, BivincularPattern] = {}
    for pat in pats:
        if pat not in row_of:
            orbit = {apply_symmetry(pat, ops) for ops in rel.symmetries}
            row_of.update(dict.fromkeys(orbit, min(orbit, key=_pat_key)))

    if merge_shift:
        def find(pat: BivincularPattern) -> BivincularPattern:
            while row_of[pat] != pat:
                pat = row_of[pat]
            return pat

        for cur in [pat for pat, rep in row_of.items() if pat == rep]:
            for _ in range(length + 2):
                # The shift preserves counts only when the rank lies in Y.
                if not cur.p or length not in cur.y:
                    break
                nxt = pat_shift(cur)
                least, larger = sorted((find(cur), find(nxt)), key=_pat_key)
                row_of[larger] = least
                cur = nxt
        for pat in row_of:
            row_of[pat] = find(pat)
    sizes = Counter(row_of.values())
    row_reps = sorted(sizes, key=_pat_key)

    degrees = list(n_range)
    for n in degrees:  # fail on a degree over budget before doing any work
        check_budget(n, budget)
    counts: list[dict[int, int]] = [{} for _ in row_reps]
    key = rel.key
    for n in degrees:
        # One pass over S_n: each class gathers the OR of its members'
        # occurrence masks and its member count. A row's class-closed avoiders
        # are the members of the classes whose OR lacks the row's bit.
        classes: dict[Hashable, list[int]] = {}
        for w, mask in zip(s_n(n), occurrence_masks(row_reps, n)):
            k = key(w)
            entry = classes.get(k)
            if entry is None:
                classes[k] = [mask, 1]
            else:
                entry[0] |= mask
                entry[1] += 1
        for i, row_counts in enumerate(counts):
            row_counts[n] = sum(size for seen, size in classes.values() if not seen >> i & 1)
    rows = [SurveyRow(rep, sizes[rep], row_counts, tuple(match_tables(row_counts)))
            for rep, row_counts in zip(row_reps, counts)]
    return SurveyResult(rel.name, length, len(pats), rows)


@dataclass
class SequenceCheckReport:
    id: str
    start: int
    expected: tuple[int, ...]
    computed: dict[int, int]
    skipped: tuple[int, ...]

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

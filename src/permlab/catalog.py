"""Named bivincular patterns and the embedded reference sequences.

Every pattern constant here was transcribed from a hook/underline picture, so
this file keeps them all in one place with the operational meaning of each
transcription spelled out; the regression suite pins each one to its reference
row. Hook semantics: 0 in X pins the occurrence to start at position 1, k in X
pins it to end at position n, interior x in X forces adjacent positions;
same for Y on the value side (0: lowest value is 1, k: highest value is n,
interior y: consecutive values).

Sequence tables hold reference rows exactly as published (OEIS ids where one
exists, descriptive slugs otherwise); `start` is the degree n of the first
value.
"""

from __future__ import annotations

from .pattern import BivincularPattern, pattern


def k_cycle_pattern(k: int) -> BivincularPattern:
    """(23..k1, {0..k-1}, {0..k-1}): occurs iff the cycle of 1 is exactly a
    k-cycle on 1..k sitting in the first k positions; under conjugacy its
    class-avoiders are the permutations with no k-cycle."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return pattern(tuple(range(2, k + 1)) + (1,), x=range(k), y=range(k))


def bounded_cycle_pattern(k: int) -> BivincularPattern:
    """(23..k1, {0..k-2}, {0..k-1}): occurs iff 1 maps to 2, ..., k-1 maps to k
    at the front with letter 1 somewhere later, i.e. the cycle of 1 has length
    at least k; class-avoiders under conjugacy have all cycles shorter than k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return pattern(tuple(range(2, k + 1)) + (1,), x=range(k - 1), y=range(k))


#: (1, {0}, {0}) - occurs iff the first letter is 1. Conjugacy class-avoiders:
#: derangements. Order class-avoiders: permutations that are not products of
#: incommensurate-length cycles realizing a fixed point somewhere in the class.
DERANGEMENT_PATTERN = k_cycle_pattern(1)

#: (231, {0,1}, {0,1,2}) - occurs iff the word starts 2,3 with 1 later; the
#: conjugacy class-avoiders are the involutions (all cycles shorter than 3).
INVOLUTION_PATTERN = bounded_cycle_pattern(3)

#: (21, {1}, {0,2}) - occurs iff the largest letter is immediately followed by
#: the smallest; conjugacy class-avoiders count 1 + C(n,2) from n = 3 on.
TRANSPOSITION_PATTERN = pattern((2, 1), x=[1], y=[0, 2])

#: (231, {}, {3}) - a 231 pattern whose top letter is the maximum n; conjugacy
#: class-avoiders are the permutations moving at most two letters.
CENTRAL_POLYGONAL_PATTERN = pattern((2, 3, 1), y=[3])

#: (132, {3}, {0,1,3}) - occurrence: letter 2 at the last position with 1
#: before it and the maximum somewhere between; tied to fixed-point-free
#: involutions under conjugacy.
FPF_INVOLUTION_PATTERN = pattern((1, 3, 2), x=[3], y=[0, 1, 3])

#: (132, {3}, {1,2,3}) - conjugacy class-avoiders are the identity plus the
#: 3-cycles: counts 1 + 2C(n,3).
THREE_CYCLE_PATTERN = pattern((1, 3, 2), x=[3], y=[1, 2, 3])

#: (231, {0}, {1,2,3}) - conjugacy class-avoiders are the identity, the
#: 2-cycles and the 3-cycles: counts 1 + C(n,2) + 2C(n,3).
TWO_THREE_CYCLE_PATTERN = pattern((2, 3, 1), x=[0], y=[1, 2, 3])

#: (231, {}, {0}) - a 231 pattern using the letter 1; Knuth class-avoiders are
#: the permutations whose insertion tableau is a hook with 2 in its first row,
#: plus the reversed identity.
GRAPH_PATTERN = pattern((2, 3, 1), y=[0])

#: (12, {0}, {1,2}) - the value n-1 at position 1 with n somewhere after it;
#: the Knuth classes all of whose members match are counted by shifted
#: Catalan numbers.
KNUTH_MATCHING_PATTERN = pattern((1, 2), x=[0], y=[1, 2])

#: (1, {0}, {0}) under the toric relation: class-avoiders biject with circular
#: words on 0..n having no successor pair.
MODULAR2_PATTERN = DERANGEMENT_PATTERN

#: (12, {0,1}, {0,1}) - the letters 1,2 at positions 1,2; toric class-avoiders
#: biject with circular words on 0..n having no three cyclically consecutive
#: increments of 1.
MODULAR3_PATTERN = pattern((1, 2), x=[0, 1], y=[0, 1])

#: (213, {}, {1,3}) - a 213 pattern with the low pair consecutive in value and
#: the top letter equal to n; toric class-avoiders are exactly the natural
#: permutations, phi(n+1) of them.
TOTIENT_PATTERN = pattern((2, 1, 3), y=[1, 3])

#: (213, {}, {1}) - a 213 pattern with the low pair consecutive in value;
#: toric class-avoiders are exactly the divisor permutations, d(n) of them.
DIVISOR_PATTERN = pattern((2, 1, 3), y=[1])

class SequenceTable:
    """A reference row: values[i] corresponds to degree start + i."""

    __slots__ = ("id", "start", "values", "source")

    def __init__(self, id: str, start: int, values: tuple[int, ...], source: str) -> None:
        self.id = id
        self.start = start
        self.values = values
        self.source = source

    def value_at(self, n: int) -> int | None:
        idx = n - self.start
        return self.values[idx] if 0 <= idx < len(self.values) else None


SEQUENCE_TABLES: dict[str, SequenceTable] = {
    t.id: t
    for t in (
        SequenceTable("A000166", 1, (0, 1, 2, 9, 44, 265, 1854, 14833, 133496), "OEIS A000166: derangements"),
        SequenceTable("A000085", 1, (1, 2, 4, 10, 26, 76, 232, 764, 2620), "OEIS A000085: involutions / Young tableaux with n cells"),
        SequenceTable("A000124", 1, (1, 2, 4, 7, 11, 16, 22, 29, 37), "OEIS A000124: central polygonal numbers"),
        SequenceTable("A112849", 1, (1, 2, 4, 11, 36, 127, 463, 1717, 6436), "OEIS A112849, aligned here to degree 1"),
        SequenceTable("A000041", 1, (1, 2, 3, 5, 7, 11, 15, 22, 30), "OEIS A000041: partitions of n"),
        SequenceTable("A009490", 1, (1, 2, 3, 4, 6, 6, 9, 11, 14), "OEIS A009490: distinct orders of permutations of n letters"),
        SequenceTable("A002619", 0, (1, 1, 2, 3, 8, 24, 108, 640, 4492), "OEIS A002619: toric class totals"),
        SequenceTable("A000757", 1, (0, 1, 1, 8, 36, 229, 1625, 13208), "OEIS A000757: circular words without successor pairs"),
        SequenceTable("A165962", 1, (1, 1, 5, 18, 95, 600, 4307, 35168), "OEIS A165962: circular words without modular 3-runs"),
        SequenceTable("A000079", 1, (1, 2, 4, 8, 16, 32, 64, 128, 256), "OEIS A000079: powers of two (2^(n-1) here)"),
        SequenceTable("A000108", 2, (1, 2, 5, 14, 42, 132, 429, 1430), "OEIS A000108: Catalan numbers, shifted to start at degree 2"),
        SequenceTable("A000325", 1, (1, 2, 5, 12, 27, 58, 121, 248, 503), "OEIS A000325: 2^n - n"),
        SequenceTable("transpositions", 1, (1, 1, 4, 7, 11, 16, 22, 29, 37), "identity-or-transposition classes: 1 + C(n,2) from n = 3"),
        SequenceTable("fpf-involutions", 1, (1, 2, 3, 4, 1, 16, 1, 106, 1), "fixed-point-free involution classes; n = 3 exceeds the generic count"),
        SequenceTable("id-3cycles", 1, (1, 2, 3, 9, 21, 41, 71, 113, 169), "identity plus 3-cycles: 1 + 2C(n,3)"),
        SequenceTable("id-2cycles-3cycles", 1, (1, 2, 4, 15, 31, 56, 92, 141, 205), "identity, 2-cycles and 3-cycles: 1 + C(n,2) + 2C(n,3)"),
        SequenceTable("order-products", 1, (0, 1, 2, 6, 44, 0, 1644, 7728, 84384), "order classes avoiding a leading fixed point"),
    )
}


class CatalogEntry:
    """A pattern/relation pair pinned to a reference row (or a label)."""

    __slots__ = ("name", "pat", "relation", "mode", "table", "note")

    def __init__(self, name: str, pat: BivincularPattern, relation: str, mode: str,
                 table: str | None, note: str) -> None:
        self.name = name
        self.pat = pat
        self.relation = relation
        self.mode = mode  # class-avoid | class-match
        self.table = table
        self.note = note


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("derangements", DERANGEMENT_PATTERN, "conjugacy", "class-avoid", "A000166",
                 "classes avoiding a leading fixed point: derangements"),
    CatalogEntry("involutions", INVOLUTION_PATTERN, "conjugacy", "class-avoid", "A000085",
                 "classes with all cycles shorter than 3: involutions"),
    CatalogEntry("transpositions", TRANSPOSITION_PATTERN, "conjugacy", "class-avoid", "transpositions",
                 "identity and single transpositions from n = 3 on"),
    CatalogEntry("central-polygonal", CENTRAL_POLYGONAL_PATTERN, "conjugacy", "class-avoid", "A000124",
                 "permutations moving at most two letters"),
    CatalogEntry("fpf-involutions", FPF_INVOLUTION_PATTERN, "conjugacy", "class-avoid", "fpf-involutions",
                 "fixed-point-free involutions plus identity at even degrees"),
    CatalogEntry("id-3cycles", THREE_CYCLE_PATTERN, "conjugacy", "class-avoid", "id-3cycles",
                 "identity plus 3-cycles"),
    CatalogEntry("id-2cycles-3cycles", TWO_THREE_CYCLE_PATTERN, "conjugacy", "class-avoid", "id-2cycles-3cycles",
                 "identity plus 2-cycles plus 3-cycles"),
    CatalogEntry("order-products", DERANGEMENT_PATTERN, "order", "class-avoid", "order-products",
                 "order classes in which no member starts with a fixed point"),
    CatalogEntry("knuth-231", pattern((2, 3, 1)), "knuth", "class-avoid", "A000079",
                 "hook insertion tableaux filled by reading: 2^(n-1)"),
    CatalogEntry("graph-pattern", GRAPH_PATTERN, "knuth", "class-avoid", "A112849",
                 "hook P with 2 in the first row, plus the reversed identity"),
    CatalogEntry("knuth-matching", KNUTH_MATCHING_PATTERN, "knuth", "class-match", "A000108",
                 "classes whose every member matches: shifted Catalan"),
    CatalogEntry("toric-successors", MODULAR2_PATTERN, "toric", "class-avoid", "A000757",
                 "circular words without successor pairs"),
    CatalogEntry("toric-modular3", MODULAR3_PATTERN, "toric", "class-avoid", "A165962",
                 "circular words without modular 3-runs"),
    CatalogEntry("totient", TOTIENT_PATTERN, "toric", "class-avoid", None,
                 "natural permutations: phi(n+1) class-avoiders"),
    CatalogEntry("divisors", DIVISOR_PATTERN, "toric", "class-avoid", None,
                 "divisor permutations: d(n) class-avoiders"),
    CatalogEntry("descent-321", pattern((3, 2, 1)), "descent", "class-avoid", "A000325",
                 "at most one descent: 2^n - n"),
)


def _rows_by_value() -> dict[tuple[int, int], tuple[str, ...]]:
    index: dict[tuple[int, int], tuple[str, ...]] = {}
    for table in SEQUENCE_TABLES.values():
        for n, value in enumerate(table.values, table.start):
            index[n, value] = index.get((n, value), ()) + (table.id,)
    return index


#: (degree, value) -> the ids of the rows holding that value at that degree
_ROWS_BY_VALUE = _rows_by_value()


def match_tables(counts: dict[int, int]) -> list[str]:
    """Ids of embedded rows consistent with the given degree -> count map.

    A table matches when at least three degrees overlap and every overlapping
    value agrees. Each (degree, count) pair is looked up in `_ROWS_BY_VALUE`,
    so a table is read only when it agrees at three or more degrees, and then
    only for the range of degrees it covers: it matches when it agrees at
    every degree of `counts` in that range.
    """
    hits: dict[str, int] = {}
    for item in counts.items():
        for id in _ROWS_BY_VALUE.get(item, ()):
            hits[id] = hits.get(id, 0) + 1
    out = []
    for id, hit in hits.items():
        table = SEQUENCE_TABLES[id]
        if hit >= 3 and hit == len(counts.keys() & range(table.start, table.start + len(table.values))):
            out.append(id)
    return sorted(out)

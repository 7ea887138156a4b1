"""Shared oracles and fixtures.

The oracles here deliberately avoid the code paths they are meant to check.
Occurrence is decided from its definition: `oracle_occurrences` filters
position subsets, and the signature table behind `occurrence_mask`,
`scan_avoiders`, `scan_matchers` and `avoid_masks` records, for each word of
S_n with n <= 7 and each subset of at most 4 positions, the subset's
standardized letters and its exact X- and Y-sets. Past the table (n = 8, or
k > 4), `construction_mask` builds the words holding an occurrence by
placing the pattern at every admissible choice of positions and values.
Nothing of the package's occurrence code (the plan behind `matches` and the
prefix walks, the signature reading behind `occurrences` and
`occurrence_masks`) is used there, so none of it is ever checked against
code it shares. Divisor sums come from a sieve. Classes are built without
the relations' keys, class sizes or the package's toric shift, none of
which (`cycle_type`, `order`, `rsk`, `descent_set`, `oplus`) is imported:
conjugacy by cycle-type generation, order as unions of those, Knuth by
closure under elementary moves, descent by grouping S_n on which adjacent
letters fall, and toric by rotating the circle 0|pi. The brute-force
helpers the package itself does not need (group product, toric orbits,
inverse insertion, tableau listing, the toric class total) live here too.
Expected values frozen into the tests were produced by these oracles or
quoted from the embedded reference rows.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter
from typing import Hashable, Iterator, Sequence

import pytest

from permlab.arith import divisors, totient
from permlab.core import Word, s_n
from permlab.pattern import BivincularPattern, all_patterns
from permlab.relations import ClassCensus, Relation
from permlab.tableau import Rows, Shape, knuth_class, partitions, shape_of


def oracle_occurrences(pat: BivincularPattern, w: Word) -> list[tuple[int, ...]]:
    """Occurrences by brute filter: every position subset of size k, checked
    against the order-isomorphism and both adjacency rules with the boundary
    conventions i0 = j0 = 0 and i_{k+1} = j_{k+1} = n+1."""
    n = len(w)
    k = pat.k
    out = []
    for comb in itertools.combinations(range(1, n + 1), k):
        vals = tuple(w[i - 1] for i in comb)
        ranks = sorted(vals)
        if tuple(ranks.index(v) + 1 for v in vals) != pat.p:
            continue
        ei = (0,) + comb + (n + 1,)
        if any(ei[x + 1] != ei[x] + 1 for x in pat.x):
            continue
        js = (0,) + tuple(ranks) + (n + 1,)
        if any(js[y + 1] != js[y] + 1 for y in pat.y):
            continue
        out.append(comb)
    return out


def sieve_sigma(limit: int) -> list[int]:
    """Divisor sums 0..limit by the harmonic sieve."""
    out = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            out[m] += d
    return out


def lis_length(w: Word) -> int:
    """Longest increasing subsequence length, patience-style."""
    piles: list[int] = []
    for v in w:
        i = bisect.bisect_left(piles, v)
        if i == len(piles):
            piles.append(v)
        else:
            piles[i] = v
    return len(piles)


def place_by_steps(k: int, n: int) -> Word:
    """Independent construction of the degree-n word with index k: drop the
    letters 1, 2, ... at positions k, 2k, ... around a cycle of length n+1,
    skipping the empty slot 0."""
    slots: list[int] = [0] * (n + 1)
    pos = 0
    for v in range(1, n + 1):
        pos = (pos + k) % (n + 1)
        slots[pos] = v
    assert slots[0] == 0
    return tuple(slots[1:])


def compose(sigma: Sequence[int], tau: Sequence[int]) -> Word:
    """Group product: result(i) = sigma(tau(i)).

    >>> compose((2, 4, 6, 1, 3, 5), (3, 6, 2, 5, 1, 4))
    (6, 5, 4, 3, 2, 1)
    """
    if len(sigma) != len(tau):
        raise ValueError("length mismatch")
    return tuple(sigma[t - 1] for t in tau)


def toric_class(pi: Sequence[int]) -> frozenset[Word]:
    """Orbit of pi under the toric shift, as one-line words: add each m to
    every letter of 0|pi mod n+1 and read the circle from 0.

    >>> sorted(toric_class((1, 2, 4, 3)))[:2]
    [(1, 2, 4, 3), (1, 3, 2, 4)]
    """
    circle = (0, *pi)
    size = len(circle)
    out = set()
    for m in range(size):
        # After adding m, the letter -m is the one that becomes 0.
        start = circle.index(-m % size)
        out.add(tuple((circle[(start + i) % size] + m) % size for i in range(1, size)))
    return frozenset(out)


def toric_class_total(n: int) -> int:
    """Number of classes of S_n under the cyclic relation, by a closed form
    independent of the cycle-type counting formula: (1/(n+1)^2) * sum over
    factorizations kp = n+1 of totient(p)^2 * k! * p^k.

    >>> [toric_class_total(n) for n in range(7)]
    [1, 1, 2, 3, 8, 24, 108]
    """
    m = n + 1
    total = sum(totient(m // k) ** 2 * math.factorial(k) * (m // k) ** k for k in divisors(m))
    count, rem = divmod(total, m * m)
    assert rem == 0, (n, total)
    return count


def is_standard(rows: Rows) -> bool:
    """Standard tableau check: partition shape, rows and columns strictly
    increasing, letters exactly 1..n."""
    shape = shape_of(rows)
    if list(shape) != sorted(shape, reverse=True) or (shape and shape[-1] == 0):
        return False
    letters = [v for row in rows for v in row]
    if sorted(letters) != list(range(1, len(letters) + 1)):
        return False
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(upper[c] >= lower[c] for c in range(len(lower))):
            return False
    return True


def inverse_rsk(p: Rows, q: Rows) -> Word:
    """The permutation with insertion tableau p and recording tableau q, by
    reverse bumping.

    >>> inverse_rsk(((1, 3), (2, 4)), ((1, 2), (3, 4)))
    (2, 4, 1, 3)
    """
    if shape_of(p) != shape_of(q):
        raise ValueError("shape mismatch")
    if not is_standard(p) or not is_standard(q):
        raise ValueError("nonstandard tableau")
    work = [list(row) for row in p]
    where = {label: r for r, row in enumerate(q) for label in row}
    out: list[int] = []
    for step in range(sum(shape_of(p)), 0, -1):
        r = where[step]
        cur = work[r].pop()
        for t in range(r - 1, -1, -1):
            row = work[t]
            idx = bisect.bisect_left(row, cur) - 1
            row[idx], cur = cur, row[idx]
        out.append(cur)
    return tuple(reversed(out))


@functools.cache
def standard_tableaux(shape: Shape) -> tuple[Rows, ...]:
    """All standard Young tableaux of a partition shape, by removing the
    corner that holds n."""
    n = sum(shape)
    if n == 0:
        return ((),)
    out: list[Rows] = []
    for r, part in enumerate(shape):
        below = shape[r + 1] if r + 1 < len(shape) else 0
        if part == below:
            continue
        smaller = shape[:r] + ((part - 1,) if part > 1 else ()) + shape[r + 1 :]
        for sub in standard_tableaux(smaller):
            rows = list(sub)
            if r < len(rows):
                rows[r] = rows[r] + (n,)
            else:
                rows.append((n,))
            out.append(tuple(rows))
    return tuple(out)


PERMS_BY_N = {n: list(s_n(n)) for n in range(0, 8)}

#: The signature table covers S_0..S_7 and position subsets of size 0..4.
TABLE_N, TABLE_K = 7, 4


def _bits(members) -> int:
    return sum(1 << v for v in members)


@functools.cache
def signature_table() -> dict[tuple[int, Word], list[tuple[int, int, int]]]:
    """Occurrence from its definition, tabulated once per test run.

    A k-subset i_1 < ... < i_k of the positions of a word w of S_n has a
    signature: its letters standardized to p, the set of x in 0..k with
    i_{x+1} = i_x + 1, and the set of y in 0..k with j_{y+1} = j_y + 1, where
    j_1 < ... < j_k are the subset's letters sorted and i_0 = j_0 = 0,
    i_{k+1} = j_{k+1} = n+1. The table maps (n, p) to a list of (X-set bits,
    Y-set bits, bitmask over lex S_n of the words having that signature),
    for n <= TABLE_N and k <= min(n, TABLE_K).
    """
    table: dict[tuple[int, Word], list[tuple[int, int, int]]] = {}
    for n in range(TABLE_N + 1):
        for k in range(min(n, TABLE_K) + 1):
            holders: dict[tuple[Word, int, int], set[int]] = {}
            for idx, w in enumerate(PERMS_BY_N[n]):
                for comb in itertools.combinations(range(1, n + 1), k):
                    letters = [w[i - 1] for i in comb]
                    ranks = sorted(letters)
                    p = tuple(ranks.index(v) + 1 for v in letters)
                    ei = (0, *comb, n + 1)
                    js = (0, *ranks, n + 1)
                    xs = _bits(x for x in range(k + 1) if ei[x + 1] == ei[x] + 1)
                    ys = _bits(y for y in range(k + 1) if js[y + 1] == js[y] + 1)
                    holders.setdefault((p, xs, ys), set()).add(idx)
            for (p, xs, ys), idxs in holders.items():
                table.setdefault((n, p), []).append((xs, ys, _bits(idxs)))
    return table


def occurrence_mask(pat: BivincularPattern, n: int) -> int:
    """Bitmask over lex S_n of the words in which pat occurs: those with a
    signature of pat's p whose X- and Y-sets contain pat's X and Y. Needs
    n <= TABLE_N and pat.k <= TABLE_K; a pattern longer than n never occurs."""
    if n > TABLE_N or pat.k > TABLE_K:
        raise ValueError(f"{pat} at n = {n} lies outside the signature table")
    want_x, want_y = _bits(pat.x), _bits(pat.y)
    out = 0
    for xs, ys, words in signature_table().get((n, pat.p), ()):
        if not (want_x & ~xs or want_y & ~ys):
            out |= words
    return out


@functools.cache
def lex_words(n: int) -> list[Word]:
    """S_n in lex order."""
    return PERMS_BY_N[n] if n in PERMS_BY_N else list(s_n(n))


def words_of(mask: int, n: int) -> list[Word]:
    """The words of S_n whose lex index has its bit set in mask, in lex order."""
    return [w for i, w in enumerate(lex_words(n)) if mask >> i & 1]


def _adjacent_subsets(adj: frozenset[int], k: int, n: int) -> list[tuple[int, ...]]:
    """The k-subsets e_1 < ... < e_k of 1..n with e_{a+1} = e_a + 1 for every
    a in adj, where e_0 = 0 and e_{k+1} = n+1."""
    out = []
    for comb in itertools.combinations(range(1, n + 1), k):
        ends = (0, *comb, n + 1)
        if all(ends[a + 1] == ends[a] + 1 for a in adj):
            out.append(comb)
    return out


@functools.cache
def _cell_masks(n: int) -> dict[tuple[int, int], int]:
    """(position i, letter v) -> bitmask over lex S_n of the words with the
    letter v at position i."""
    cells = {}
    for i in range(1, n + 1):
        column = [w[i - 1] for w in reversed(lex_words(n))]  # the last word is the top bit
        for v in range(1, n + 1):
            cells[i, v] = int("".join(["1" if letter == v else "0" for letter in column]), 2)
    return cells


def construction_mask(pat: BivincularPattern, n: int) -> int:
    """Bitmask over lex S_n of the words in which pat occurs, built from the
    definition the other way round: choose the positions i_1 < ... < i_k
    that satisfy X and the values j_1 < ... < j_k that satisfy Y (with
    i_0 = j_0 = 0 and i_{k+1} = j_{k+1} = n+1), place p by putting the value
    j_{p_s} at position i_s, and set the bit of every completion, the words
    holding each placed letter at its position. Any n, any k.

    >>> words_of(construction_mask(BivincularPattern((1, 2), y=frozenset({1})), 3), 3)
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    """
    cells = _cell_masks(n)
    everything = (1 << len(lex_words(n))) - 1
    out = 0
    for positions in _adjacent_subsets(pat.x, pat.k, n):
        for values in _adjacent_subsets(pat.y, pat.k, n):
            completions = everything
            for i, rank in zip(positions, pat.p):
                completions &= cells[i, values[rank - 1]]
            out |= completions
    return out


def _occurs_mask(pat: BivincularPattern, n: int) -> int:
    if n <= TABLE_N and pat.k <= TABLE_K:
        return occurrence_mask(pat, n)
    return construction_mask(pat, n)


def scan_avoiders(pats: Sequence[BivincularPattern], n: int) -> list[Word]:
    """Permutations of S_n avoiding every pattern, in lex order, from the
    signature table, or from `construction_mask` beyond it (n = 8 in the
    random walk tests)."""
    hit = 0
    for pat in pats:
        hit |= _occurs_mask(pat, n)
    return words_of(((1 << len(lex_words(n))) - 1) & ~hit, n)


def scan_matchers(pats: Sequence[BivincularPattern], n: int) -> list[Word]:
    """Permutations of S_n containing every pattern, in the same way."""
    kept = (1 << len(lex_words(n))) - 1
    for pat in pats:
        kept &= _occurs_mask(pat, n)
    return words_of(kept, n)


@pytest.fixture(scope="session")
def avoid_masks() -> dict[BivincularPattern, dict[int, int]]:
    """For every pattern of length 1..3 and every degree 1..6, the bitmask of
    avoiding permutations over lex-ordered S_n, from the signature table."""
    return {pat: {n: ((1 << len(PERMS_BY_N[n])) - 1) & ~occurrence_mask(pat, n)
                  for n in range(1, 7)}
            for k in (1, 2, 3) for pat in all_patterns(k)}


def perms_with_cycle_type(n: int, parts: Sequence[int]) -> Iterator[Word]:
    """All permutations of S_n with the given cycle lengths.

    Cycles are rooted at their smallest element and built in increasing leader
    order, so each permutation appears exactly once.
    """
    parts = tuple(sorted(parts, reverse=True))
    if sum(parts) != n:
        raise ValueError(f"cycle lengths {parts} do not sum to {n}")

    def rec(unused: tuple[int, ...], lengths: tuple[int, ...]) -> Iterator[tuple[Word, ...]]:
        if not unused:
            yield ()
            return
        leader, rest = unused[0], unused[1:]
        for length in sorted(set(lengths)):
            idx = lengths.index(length)
            remaining = lengths[:idx] + lengths[idx + 1 :]
            for companions in itertools.combinations(rest, length - 1):
                taken = set(companions)
                left = tuple(v for v in rest if v not in taken)
                for arrangement in itertools.permutations(companions):
                    head = ((leader,) + arrangement,)
                    for tail in rec(left, remaining):
                        yield head + tail

    for cycs in rec(tuple(range(1, n + 1)), parts):
        word = list(range(1, n + 1))
        for cyc in cycs:
            for i, v in enumerate(cyc):
                word[v - 1] = cyc[(i + 1) % len(cyc)]
        yield tuple(word)


def oracle_classes(rel_name: str, n: int) -> list[frozenset[Word]]:
    """The classes of S_n under a relation, built without its key or class
    size: conjugacy from cycle-type generation, order as unions of conjugacy
    classes with one lcm, Knuth by closure under elementary moves, descent by
    grouping S_n on the descent set, toric as shift orbits."""
    if rel_name == "conjugacy":
        return [frozenset(perms_with_cycle_type(n, lam)) for lam in partitions(n)]
    if rel_name == "order":
        by_lcm: dict[int, set[Word]] = {}
        for lam in partitions(n):
            by_lcm.setdefault(math.lcm(*lam), set()).update(perms_with_cycle_type(n, lam))
        return [frozenset(cls) for cls in by_lcm.values()]
    if rel_name == "descent":
        by_descents: dict[tuple[bool, ...], set[Word]] = {}
        for w in s_n(n):
            by_descents.setdefault(tuple(a > b for a, b in zip(w, w[1:])), set()).add(w)
        return [frozenset(cls) for cls in by_descents.values()]
    grow = {"knuth": knuth_class, "toric": toric_class}[rel_name]
    seen: set[Word] = set()
    out = []
    for w in s_n(n):
        if w not in seen:
            cls = frozenset(grow(w))
            seen |= cls
            out.append(cls)
    return out


@pytest.fixture(scope="session")
def class_masks():
    """Callable (relation name, n) -> list of class bitmasks over lex S_n,
    in the order of each class's lex-least member."""
    cache: dict[tuple[str, int], list[int]] = {}

    def build(rel_name: str, n: int) -> list[int]:
        key = (rel_name, n)
        if key not in cache:
            index = {w: i for i, w in enumerate(PERMS_BY_N[n])}
            masks = [sum(1 << index[u] for u in cls) for cls in oracle_classes(rel_name, n)]
            cache[key] = sorted(masks, key=lambda m: m & -m)
        return cache[key]

    return build


def brute_census(rel: Relation, n: int) -> ClassCensus:
    """Census by exhaustively keying S_n; reference path for any relation."""
    by_size = Counter(Counter(rel.key(pi) for pi in s_n(n)).values())
    return ClassCensus(relation=rel.name, n=n, by_size=dict(sorted(by_size.items())))


def class_representatives(rel: Relation, n: int) -> Iterator[Word]:
    """One canonical (key-minimal) member per class, in lex order."""
    seen: set[Hashable] = set()
    for pi in s_n(n):
        k = rel.key(pi)
        if k not in seen:
            seen.add(k)
            yield pi

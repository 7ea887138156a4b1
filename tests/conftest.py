"""Shared oracles and fixtures.

The oracles here deliberately avoid the code paths they are meant to check:
occurrence search is a plain filter over position subsets, avoider and
matcher lists come from scanning S_n with the single-word engine instead of
extending prefixes, divisor sums come from a sieve, and classes are built
without the relations' keys or class sizes (cycle-type generation,
Knuth-move closure, descent-set grouping, toric orbits). Expected values
frozen into the tests were produced by these oracles or quoted from the
embedded reference rows.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Hashable, Iterator, Sequence

import pytest

from permlab.core import Word, descent_set, s_n, toric_class
from permlab.pattern import BivincularPattern, all_patterns, avoids, matches
from permlab.relations import ClassCensus, Relation
from permlab.tableau import knuth_class, partitions


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
    import bisect

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


PERMS_BY_N = {n: list(s_n(n)) for n in range(0, 8)}


def scan_avoiders(pats: Sequence[BivincularPattern], n: int) -> list[Word]:
    """Avoiders of every pattern by running the single-word engine on each
    permutation of S_n in lex order."""
    return [w for w in s_n(n) if all(avoids(p, w) for p in pats)]


def scan_matchers(pats: Sequence[BivincularPattern], n: int) -> list[Word]:
    """Permutations of S_n containing every pattern, by the same scan."""
    return [w for w in s_n(n) if all(matches(p, w) for p in pats)]


@pytest.fixture(scope="session")
def avoid_masks() -> dict[BivincularPattern, dict[int, int]]:
    """For every pattern of length 1..3 and every degree 1..6, the bitmask of
    avoiding permutations over lex-ordered S_n."""
    masks: dict[BivincularPattern, dict[int, int]] = {}
    for k in (1, 2, 3):
        for pat in all_patterns(k):
            per_n = {}
            for n in range(1, 7):
                m = 0
                for idx, w in enumerate(PERMS_BY_N[n]):
                    if avoids(pat, w):
                        m |= 1 << idx
                per_n[n] = m
            masks[pat] = per_n
    return masks


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
        by_set: dict[frozenset[int], set[Word]] = {}
        for w in s_n(n):
            by_set.setdefault(descent_set(w), set()).add(w)
        return [frozenset(cls) for cls in by_set.values()]
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

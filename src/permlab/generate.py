"""Avoiders and containers of bivincular patterns, generated by prefix extension.

Rather than test each of the n! permutations with the single-word engine of
`permlab.pattern`, the permutations are grown one absolute value at a time,
smallest letter first, so they come out in lex order. Every constraint can be
decided on a prefix (values are absolute, and k in X only means the last slot
sits at position n), so an occurrence in a prefix persists in each of its
completions. Each new letter is checked in one of two ways:

- A position-free pattern, of length k >= 2 whose last slot L is neither
  chained to the slot before it nor pinned to position n, is checked for
  occurrences of its first k-1 slots ending at the letter. Each leaves L a
  window of values, and if an unplaced value lies in one, that value comes
  later and completes an occurrence in every completion: the prefix is
  dead, and is dropped before anything is grown from it. A partial
  occurrence that forces nothing when it ends never does later, as the
  unplaced values only shrink, so only those ending at the new letter are
  tested, and a whole occurrence never ends at a kept prefix's new letter.
  This is the "gap" test of Zeilberger's enumeration schemes (Ann. Comb. 2,
  1998).
- Any other pattern is checked for occurrences ending at the letter: the
  last slot is pinned to it, then the other slots are searched to its left.

This is the generating-tree method of J. West (Discrete Math. 157, 1996)
applied to bivincular patterns.

The walks are module-level recursive functions with explicit arguments: a
nested function calling itself would form a reference cycle that keeps each
call's result alive until the cyclic garbage collector runs.

`occurrence_masks` answers the opposite question, which of many patterns of
one length occur in each word of S_n, by reading every position subset of
the word once against a memo of subset signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .core import Word
from .pattern import BivincularPattern, _compile, _empty_pattern_occurs


@dataclass(frozen=True, slots=True)
class _Tail:
    """Plan for finding an occurrence whose last slot sits at a given position.

    Values are held in a per-search list: index 0 is the virtual rank 0 (value
    0), index 1 the virtual rank k+1 (value n+1), and index 2+j the value of
    the j-th slot placed. The slots are placed in this order: first the last
    slot and the slots chained to it by X, each pinned to a known position
    counted back from the end, then the remaining slots left to right. Each
    step names the values bounding it from below and above (the nearest ranks
    already placed) and, when its Y-run already holds a placed rank, the value
    it is offset from (ref, or -1) and by how much (delta).

    A gap plan is for a position-free pattern: k >= 2 and its last slot L is
    neither chained to the slot before it nor pinned to position n. Its
    pinned and free steps then find an occurrence of the first k-1 slots
    ending at the given position, and a last free step, marked by chain None,
    takes L's value from the values still unplaced: any later position can
    hold it.
    """

    pinned: tuple[tuple[int, int, int, int], ...]             # (ref, delta, lo, hi)
    free: tuple[tuple[int, int, int, int, bool | None], ...]  # (ref, delta, lo, hi, chain)
    fixed_start: bool   # the slots searched in the prefix are chained from position 1
    at_end: bool        # k in X: the last slot sits at position n
    fills_values: bool  # Y holds 0..k: the occurrence's values are 1..n
    gap: bool           # a gap plan


@lru_cache(maxsize=None)
def _tail(pat: BivincularPattern) -> _Tail:
    # The plan is built afresh, not through _compile's cache, so that listing
    # avoiders keeps one cached object per pattern rather than two.
    plan = _compile.__wrapped__(pat)
    slots = plan.slots
    k = len(slots)
    gap = k >= 2 and not slots[-1].chain and not slots[-1].last
    end = k - gap  # the slots searched in the prefix
    npinned = 1
    while npinned < end and slots[end - npinned].chain:
        npinned += 1
    order = list(range(end - 1, end - 1 - npinned, -1)) + list(range(end - npinned)) + [k - 1] * gap
    placed = {0: 0, k + 1: 1}  # rank -> index of its value
    run_ref: dict[int, tuple[int, int]] = {}  # run -> (value index, rank)
    if plan.anchor_low is not None:
        run_ref[plan.anchor_low] = (0, 0)
    if plan.anchor_high is not None:
        run_ref[plan.anchor_high] = (1, k + 1)
    steps = []
    for j, s in enumerate(order):
        slot = slots[s]
        ref, rank0 = run_ref.get(slot.run, (-1, slot.rank))
        lo = placed[max(r for r in placed if r < slot.rank)]
        hi = placed[min(r for r in placed if r > slot.rank)]
        placed[slot.rank] = 2 + j
        run_ref.setdefault(slot.run, (2 + j, slot.rank))
        steps.append((ref, slot.rank - rank0, lo, hi, slot.chain if s < end else None))
    return _Tail(
        pinned=tuple(step[:4] for step in steps[:npinned]),
        free=tuple(steps[npinned:]),
        fixed_start=npinned == end and slots[0].chain,
        at_end=slots[-1].last,
        fills_values=plan.anchor_low is not None and plan.anchor_low == plan.anchor_high,
        gap=gap,
    )


def _window(pat: BivincularPattern, n: int) -> tuple[int, int]:
    """The positions m at which the plan's search can end: where an
    occurrence ends or, for a gap plan, where its first k-1 slots end. Empty
    (first > last) when the pattern cannot occur at all."""
    k = pat.k
    if k == 0 or k > n:
        return 1, 0
    tail = _tail(pat)
    first, last = k - tail.gap, n - tail.gap
    if tail.fixed_start:
        last = first
    if tail.at_end:
        first = n
    if tail.fills_values and n != k:
        return 1, 0
    return first, last


def _ends_at(tail: _Tail, m: int, prefix: list[int], posv: list[int], vals: list[int],
             rest: int) -> bool:
    """True iff an occurrence ends at position m of `prefix`, whose letters
    are indexed by value in `posv` (0 for a letter not yet placed). For a gap
    plan: iff an occurrence of all slots but the last ends there and leaves
    the last slot a value in the bitmask `rest`, so that every completion
    holds an occurrence."""
    j = 2
    for ref, delta, lo, hi in tail.pinned:
        v = prefix[m + 1 - j]
        if (ref >= 0 and v != vals[ref] + delta) or not vals[lo] < v < vals[hi]:
            return False
        vals[j] = v
        j += 1
    free = tail.free  # a gap plan's last free step takes no position in the prefix
    return not free or _place_free(free, 0, j, m + 3 + tail.gap - j - len(free), 0,
                                   prefix, posv, vals, rest)


def _place_free(free, i: int, j: int, limit: int, prev: int,
                prefix: list[int], posv: list[int], vals: list[int], rest: int) -> bool:
    """Place free step i (value index j) right of position `prev` and at most
    at position limit + i, then the steps after it. A gap plan's last step
    is met when its window holds a value of `rest`."""
    ref, delta, lo, hi, chain = free[i]
    lo, hi = vals[lo], vals[hi]
    top = limit + i
    last = i + 1 == len(free)
    if ref >= 0:
        v = vals[ref] + delta
        if not lo < v < hi:
            return False
        if chain is None:
            return rest >> v & 1 == 1
        pos = posv[v]
        if pos <= prev or pos > top or (chain and pos != prev + 1):
            return False
    elif chain:
        pos = prev + 1
        if pos > top:
            return False
        v = prefix[prev]
        if not lo < v < hi:
            return False
    elif last:
        if chain is None:
            return rest & ((1 << hi) - (2 << lo)) != 0
        for v in prefix[prev:top]:
            if lo < v < hi:
                return True
        return False
    else:
        for pos in range(prev + 1, top + 1):
            v = prefix[pos - 1]
            if lo < v < hi:
                vals[j] = v
                if _place_free(free, i + 1, j + 1, limit, pos, prefix, posv, vals, rest):
                    return True
        return False
    vals[j] = v
    return last or _place_free(free, i + 1, j + 1, limit, pos, prefix, posv, vals, rest)


def _checks(pats: tuple[BivincularPattern, ...], n: int) -> list[tuple]:
    """(first, last, tail, value buffer, letter) for each pattern that can
    occur in a word of length n, where `letter` is the value the last slot
    searched in the prefix must take, or 0 when it is free."""
    out = []
    for pat in pats:
        first, last = _window(pat, n)
        if first <= last:
            tail = _tail(pat)
            vals = [0, n + 1] + [0] * pat.k
            ref, delta = tail.pinned[0][:2]
            out.append((first, last, tail, vals, vals[ref] + delta if ref >= 0 else 0))
    return out


def _gapped_at(checks: list[tuple], n: int) -> list[bool]:
    """For each position m, whether a gap plan's search can end there, so
    that the walk needs the mask of the unplaced values."""
    return [any(c[2].gap and c[0] <= m <= c[1] for c in checks) for m in range(n + 1)]


class _OverCap(Exception):
    """Raised inside a capped walk that would emit more words than its cap."""


def avoiders(pats: Iterable[BivincularPattern], n: int,
             cap: int | None = None) -> list[Word] | None:
    """The permutations of 1..n avoiding every pattern, in lex order, or None
    if there are more than `cap` of them.

    Prefixes are extended one letter at a time, smallest letter first. A
    child is dropped as soon as a position-free pattern occurs in every
    completion of it (see the module docstring), or an occurrence of any
    other pattern ends at its new letter. Past the last position where a
    check can end, every completion is kept. A capped walk stops as soon as
    the words it would emit pass the cap.

    >>> from permlab.pattern import pattern
    >>> avoiders([pattern((2, 3, 1))], 3)
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)]
    >>> avoiders([pattern((2, 3, 1))], 3, cap=4) is None
    True
    """
    pats = tuple(pats)
    if any(pat.k == 0 and _empty_pattern_occurs(pat, n) for pat in pats):
        return []
    checks = _checks(pats, n)
    live_at = [([(tail, vals, letter) for first, last, tail, vals, letter in checks
                 if first <= m <= last], gapped)
               for m, gapped in enumerate(_gapped_at(checks, n))]
    horizon = max((last for _, last, _, _, _ in checks), default=0)
    out: list[Word] = []
    try:
        _grow_avoiders(live_at, horizon, [], [0] * (n + 2), list(range(1, n + 1)), out, cap)
    except _OverCap:
        return None
    return out


def _grow_avoiders(live_at, horizon: int, prefix: list[int], posv: list[int],
                   free: list[int], out: list[Word], cap: int | None) -> None:
    m = len(prefix) + 1
    if m > horizon:
        if cap is not None and len(out) + factorial(len(free)) > cap:
            raise _OverCap
        out.extend(map(tuple(prefix).__add__, permutations(free)))
        return
    live, gapped = live_at[m]
    # The new letter never lies in a window for L, so the unplaced values
    # before it is placed serve every child.
    rest = _bits(free) if gapped else 0
    for i, v in enumerate(free):
        prefix.append(v)
        posv[v] = m
        for tail, vals, letter in live:
            if (not letter or letter == v) and _ends_at(tail, m, prefix, posv, vals, rest):
                break
        else:
            _grow_avoiders(live_at, horizon, prefix, posv, free[:i] + free[i + 1:], out, cap)
        prefix.pop()
        posv[v] = 0


def containers(pats: Iterable[BivincularPattern], n: int,
               cap: int | None = None) -> list[Word] | None:
    """The permutations of 1..n containing every pattern, in lex order: S_n
    minus the union of the patterns' avoider sets. None if there are more
    than `cap` of them.

    The walk is that of `avoiders`, keeping per prefix the patterns not yet
    found in it. A position-free pattern counts as found as soon as every
    completion holds it, and any other once an occurrence ends at the new
    letter. A prefix in which all are found contributes every completion,
    and one holding a pattern whose search can no longer end anywhere is
    dropped.

    >>> from permlab.pattern import pattern
    >>> containers([pattern((2, 3, 1))], 3)
    [(2, 3, 1)]
    >>> containers([], 3, cap=5) is None
    True
    """
    pats = tuple(pats)
    if any(pat.k == 0 and not _empty_pattern_occurs(pat, n) for pat in pats):
        return []
    checks = _checks(pats, n)
    if len(checks) < sum(pat.k > 0 for pat in pats):
        return []
    out: list[Word] = []
    until = min((last for _, last, _, _, _ in checks), default=n)
    try:
        _grow_containers(tuple(checks), until, _gapped_at(checks, n), [], [0] * (n + 2),
                         list(range(1, n + 1)), out, cap)
    except _OverCap:
        return None
    return out


def _grow_containers(needed, until: int, gapped_at: list[bool], prefix: list[int],
                     posv: list[int], free: list[int], out: list[Word], cap: int | None) -> None:
    """`needed` holds the checks of the patterns not yet found in `prefix`;
    past position `until`, the search of one of them can no longer end."""
    if not needed:
        if cap is not None and len(out) + factorial(len(free)) > cap:
            raise _OverCap
        out.extend(map(tuple(prefix).__add__, permutations(free)))
        return
    m = len(prefix) + 1
    rest = _bits(free) if gapped_at[m] else 0
    for i, v in enumerate(free):
        prefix.append(v)
        posv[v] = m
        left = needed
        for check in needed:
            first, last, tail, vals, letter = check
            if first <= m <= last and (not letter or letter == v) and _ends_at(
                    tail, m, prefix, posv, vals, rest):
                left = tuple(c for c in left if c is not check)
        reach = until if left is needed else min((c[1] for c in left), default=m + 1)
        if reach > m:
            _grow_containers(left, reach, gapped_at, prefix, posv, free[:i] + free[i + 1:], out,
                             cap)
        prefix.pop()
        posv[v] = 0


def _bits(members: Iterable[int]) -> int:
    return sum(1 << v for v in members)


def occurrence_masks(pats: Sequence[BivincularPattern], n: int) -> Iterator[int]:
    """For each permutation of 1..n in lex order, the mask whose bit i is set
    iff pats[i] occurs in it; the patterns all have one length k.

    Each k-subset of positions has a signature: its letters' standardization
    p, the set of x in 0..k with i_{x+1} = i_x + 1 and the set of y with
    j_{y+1} = j_y + 1, under the conventions i_0 = j_0 = 0 and
    i_{k+1} = j_{k+1} = n+1. A pattern occurs at the subset exactly when it
    has that p and its X and Y lie within those sets. The mask of every
    signature met is memoised by (X-set, letters), so a word costs C(n, k)
    lookups.

    >>> from permlab.pattern import pattern
    >>> list(occurrence_masks([pattern((1, 2)), pattern((2, 1), x=[1])], 3))
    [1, 3, 3, 3, 3, 2]
    """
    k = pats[0].k if pats else 0
    if any(pat.k != k for pat in pats):
        raise ValueError("the patterns must all have one length")
    by_p: dict[Word, list[tuple[int, int, int]]] = {}
    for i, pat in enumerate(pats):
        by_p.setdefault(pat.p, []).append((_bits(pat.x), _bits(pat.y), 1 << i))
    # Positions are 0-based here, so i_0 and i_{k+1} become -1 and n.
    subsets = [(comb, _bits(x for x in range(k + 1) if ends[x + 1] == ends[x] + 1))
               for comb in combinations(range(n), k) for ends in [(-1, *comb, n)]]
    memo: dict[tuple[int, Word], int] = {}
    for w in permutations(range(1, n + 1)):
        mask = 0
        for comb, xs in subsets:
            letters = tuple([w[i] for i in comb])
            hit = memo.get((xs, letters))
            if hit is None:
                hit = memo[xs, letters] = _signature_mask(by_p, xs, letters, n)
            mask |= hit
        yield mask


def _signature_mask(by_p, xs: int, letters: Word, n: int) -> int:
    """The mask of the patterns occurring at a position subset with X-set xs
    and these letters."""
    ranks = sorted(letters)
    p = tuple(ranks.index(v) + 1 for v in letters)
    js = (0, *ranks, n + 1)
    ys = _bits(y for y in range(len(letters) + 1) if js[y + 1] == js[y] + 1)
    return sum(bit for x, y, bit in by_p.get(p, ()) if not (x & ~xs or y & ~ys))

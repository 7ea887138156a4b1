"""Avoiders and containers of bivincular patterns, generated by prefix extension.

Rather than put each of the n! permutations to `permlab.pattern.matches`,
the permutations are grown one absolute value at a time, smallest letter
first, so they come out in lex order. Every constraint can be decided on a
prefix (values are absolute, and k in X only means the last slot sits at
position n), so an occurrence in a prefix persists in each of its
completions. Each new letter is checked by the pattern's plan, the one
`matches` runs, in one of two ways:

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

from itertools import permutations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .core import Word
from .pattern import (BivincularPattern, _bits, _check, _empty_pattern_occurs, _ends_at,
                      _position_subsets, _signature_mask)


def _checks(pats: tuple[BivincularPattern, ...], n: int) -> list[tuple]:
    """The search (`pattern._check`) of each pattern that can occur in a
    word of length n."""
    return [check for check in (_check(pat, n) for pat in pats) if check]


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


def occurrence_masks(pats: Sequence[BivincularPattern], n: int) -> Iterator[int]:
    """For each permutation of 1..n in lex order, the mask whose bit i is set
    iff pats[i] occurs in it; the patterns all have one length k.

    Each k-subset of positions is read for its signature
    (`pattern._signature_mask`). The mask of every signature met is
    memoised by (X-set, letters), so a word costs C(n, k) lookups.

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
    subsets = _position_subsets(n, k)
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

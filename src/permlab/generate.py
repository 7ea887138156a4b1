"""Avoiders and containers of bivincular patterns, generated by prefix extension.

Rather than put each of the n! permutations to `permlab.pattern.matches`,
the permutations are grown one absolute value at a time, smallest letter
first, so they come out in lex order. Every constraint can be decided on a
prefix (values are absolute, and k in X only means the last slot sits at
position n), so an occurrence in a prefix persists in each of its
completions. Each new letter is checked by the pattern's kernel, the
compiled plan `matches` runs, in one of two ways:

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

Past the horizon, the last position where a check can end, every completion
is kept: the loop keeping a child there emits them. The walks are
module-level recursive functions with explicit arguments: a nested function
calling itself would form a reference cycle that keeps each call's result
alive until the cyclic garbage collector runs. Each call takes the bitmask of
the values not yet placed, which a gap test reads.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import Iterable

from .core import Word
from .pattern import BivincularPattern, _check, _empty_pattern_occurs


class _OverCap(Exception):
    """Raised inside a capped walk that would emit more words than its cap."""


def avoiders(pats: Iterable[BivincularPattern], n: int,
             cap: int | None = None) -> list[Word] | None:
    """The permutations of 1..n avoiding every pattern, in lex order, or None
    if there are more than `cap` of them.

    Prefixes are extended one letter at a time, smallest letter first. A
    child is dropped as soon as a position-free pattern occurs in every
    completion of it (see the module docstring), or an occurrence of any
    other pattern ends at its new letter. Past the horizon every completion
    is kept. A capped walk stops as soon as the words it would emit pass the
    cap.

    >>> from permlab.pattern import pattern
    >>> avoiders([pattern((2, 3, 1))], 3)
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)]
    >>> avoiders([pattern((2, 3, 1))], 3, cap=4) is None
    True
    """
    pats = tuple(pats)
    if any(pat.k == 0 and _empty_pattern_occurs(pat, n) for pat in pats):
        return []
    checks = [check for pat in pats if (check := _check(pat, n))]
    if not checks:
        return None if cap is not None and factorial(n) > cap else list(permutations(range(1, n + 1)))
    live_at = [[(ends_at, letter) for first, last, ends_at, letter in checks
                if first <= m <= last] for m in range(n + 1)]
    horizon = max(last for _, last, _, _ in checks)
    out: list[Word] = []
    try:
        _grow_avoiders(live_at, horizon, [], [0] * (n + 2), list(range(1, n + 1)), (2 << n) - 2,
                       out, cap)
    except _OverCap:
        return None
    return out


def _grow_avoiders(live_at, horizon: int, prefix: list[int], posv: list[int],
                   free: list[int], rest: int, out: list[Word], cap: int | None) -> None:
    """`rest` has the bits of the unplaced values, `free`. The new letter
    never lies in a window for L, so each child's gap test reads it."""
    m = len(prefix) + 1
    top = m + len(free)  # n + 1
    live = live_at[m]
    for i, v in enumerate(free):
        prefix.append(v)
        posv[v] = m
        for ends_at, letter in live:
            if (not letter or letter == v) and ends_at(m, prefix, posv, top, rest):
                break
        else:
            left = free[:i] + free[i + 1:]
            if m < horizon:
                _grow_avoiders(live_at, horizon, prefix, posv, left, rest ^ 1 << v, out, cap)
            elif cap is not None and len(out) + factorial(len(left)) > cap:
                raise _OverCap
            else:
                out.extend(map(tuple(prefix).__add__, permutations(left)))
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
    checks = [check for pat in pats if (check := _check(pat, n))]
    if len(checks) < sum(pat.k > 0 for pat in pats):
        return []
    out: list[Word] = []
    until = min((last for _, last, _, _ in checks), default=n)
    try:
        _grow_containers(tuple(checks), until, [], [0] * (n + 2), list(range(1, n + 1)),
                         (2 << n) - 2, out, cap)
    except _OverCap:
        return None
    return out


def _grow_containers(needed, until: int, prefix: list[int], posv: list[int], free: list[int],
                     rest: int, out: list[Word], cap: int | None) -> None:
    """`needed` holds the checks of the patterns not yet found in `prefix`;
    past position `until`, the search of one of them can no longer end.
    `rest` is as in `_grow_avoiders`."""
    if not needed:
        if cap is not None and len(out) + factorial(len(free)) > cap:
            raise _OverCap
        out.extend(map(tuple(prefix).__add__, permutations(free)))
        return
    m = len(prefix) + 1
    top = m + len(free)  # n + 1
    for i, v in enumerate(free):
        prefix.append(v)
        posv[v] = m
        left = needed
        for check in needed:
            first, last, ends_at, letter = check
            if first <= m <= last and (not letter or letter == v) and ends_at(
                    m, prefix, posv, top, rest):
                left = tuple(c for c in left if c is not check)
        reach = until if left is needed else min((c[1] for c in left), default=m + 1)
        if reach > m:
            _grow_containers(left, reach, prefix, posv, free[:i] + free[i + 1:], rest ^ 1 << v,
                             out, cap)
        prefix.pop()
        posv[v] = 0


"""Avoiders and containers of bivincular patterns, generated by prefix extension.

Rather than put each of the n! permutations to `permlab.pattern.matches`,
the permutations are grown one absolute value at a time, smallest letter
first, so they come out in lex order. Every constraint can be decided on a
prefix (values are absolute, and k in X only means the last slot sits at
position n), so an occurrence in a prefix persists in each of its
completions. A prefix's next letter is checked by the pattern's kernel, the
compiled plan `matches` runs, which gives at once the bitmask of the
unplaced values whose placing there ends what it seeks, in one of two ways:

- A position-free pattern, of length k >= 2 whose last slot L is neither
  chained to the slot before it nor pinned to position n, is checked for
  occurrences of its first k-1 slots ending at the new letter. Each leaves
  L a window of values, and if an unplaced value other than the new letter
  lies in one, that value comes later and completes an occurrence in every
  completion: the child is dead, and is dropped before anything is grown
  from it. A partial occurrence that forces nothing when it ends never does
  later, as the unplaced values only shrink, so only those ending at the
  new letter are tested, and a whole occurrence never ends at a kept
  prefix's new letter. This is the "gap" test of Zeilberger's enumeration
  schemes (Ann. Comb. 2, 1998).
- Any other pattern is checked for occurrences ending at the new letter:
  the last slot is pinned to it, then the other slots are searched to its
  left.

A pattern may have a deciding value d (`permlab.pattern._check`): a value
that every occurrence holds at the slot its kernel pins to the new letter
or, for a gap plan, at its last slot L, because Y ties that slot to 0 or
n+1. Once d is placed the pattern is decided for every completion: it
occurs if the kernel fires there or fired before, and never otherwise.

This is the generating-tree method of J. West (Discrete Math. 157, 1996)
applied to bivincular patterns (Bousquet-Melou, Claesson, Dukes and Kitaev,
JCTA 117, 2010), whose value anchors give the deciding values. As there, a
node's admissible children are found as one set: each call holds the
values not yet placed only as the bitmask `rest`, runs each live kernel
once on it, and gets back the bitmask of the children that kernel fires on.

One loop, `_grow_open`, walks both sides over the checks still open in a
prefix. A check closes when its kernel fires, when its deciding value is
placed without a firing, or at its last position. A firing drops the child
of an avoider walk and a closure without one drops that of a container
walk; once no check is open, the loop keeping the child emits its
completions. Avoider walks whose patterns have no deciding value run the
leaner `_grow_avoiders`, which reads the kernels live at each position from
a table, grows only the set bits of `rest` that no kernel fires on,
smallest first, and keeps every completion past the last position where a
check can end. The walks are module-level recursive functions with
explicit arguments: a nested function calling itself would form a
reference cycle that keeps each call's result alive until the cyclic
garbage collector runs.

Both loops run in one of two modes. The word mode, behind `avoiders` and
`containers`, emits each kept prefix's completions as words. The count
mode, behind `count`, adds their number, (n - m)! for a prefix of length
m, to a running total, and builds no word: it enters the same prefixes and
runs the same kernels. At the last position it grows, `_grow_avoiders`
adds (n - m)! times the number of children its kernels keep.

A count of avoiders takes the first of three walks that applies. The first
two walk labels instead of prefixes, so that two prefixes with equal labels
share one entry of a memo that lives for one `count` call and maps each
label met, as a bitmask, to its number of kept completions.

- The set walk, `_count_unplaced`, for patterns without a deciding value
  whose kernels read only m, n+1 and `rest` (no step is pinned to a
  position before m, and the plan has no free step or one loop, which
  becomes a bitmask of the placed values; `_reads_rest_only`), such as
  231, 321, 132 and 213;y=1. As m = n + 1 - |rest|, the children a prefix
  keeps, and so its number of kept completions, depend only on its set of
  unplaced values, the label of West's generating tree. The sets it
  expands are those of the prefixes the prefix walk enters.
- The label walk, `_count_labels`, for classical patterns (X = Y = {}) of
  which at least one is not counted by the set walk, such as 2413 and
  1234. Its label is r, the number of unplaced values, and the threats:
  the partial occurrences that can still grow, each recorded only by the
  gap indices (the number of unplaced values below) of the matched values
  that are the nearest rank neighbours of an unmatched slot (`_Threats`).
  This is exact, as in the enumeration schemes of Zeilberger and of Vatter
  (CPC 17, 2008): an occurrence splits into a part in the prefix and one
  in later letters, which compare only through those gap indices. Each
  threat met at each r is one bit, so a label is one bitmask, and a
  child's label is the OR of its threats' moves (`_threat_moves`), -1 when
  the child is dead. No kernel runs.
- Otherwise the prefix walk, `_grow_avoiders` or `_grow_open`.

A container count of one pattern, or of several classical patterns, is
the sum over the subsets S of the patterns of (-1)^|S| times the avoider
count of S, with n! for the empty set: the words containing every pattern
are those avoiding none. For one pattern that is n! less its avoider
count, which takes the same walk. A container count of several patterns
of which one is not classical walks prefixes.

A pattern's sites are the positions X admits and values Y admits; `blocks`
gives each with the letters p places there, standing for the words that
hold them (`block_words`). A word lies in one block per occurrence in it.
A fixed-site pattern (`fixed_site`) occurs at most once per word, so its
blocks are disjoint, and `count` reads its avoiders as n! less
`occurrence_total`. Class closure (`permlab.census`) keys the words of its
blocks in place of a container walk under Knuth, toric and descent; under
conjugacy and order it keys every pattern's containers from the shapes of
its sites (`cover_shapes`, read by `permlab.relations` for each number of
letters covered up to the pattern's length plus `cover_reach`).
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from itertools import combinations, permutations, repeat
from math import factorial
from operator import add, itemgetter, or_
from typing import Iterable, Iterator, Sequence

from .core import Word, open_paths
from .pattern import (BivincularPattern, _check, _empty_pattern_occurs, _members, _reads_rest_only,
                      _slots, _tail, occurrence_total)


def avoiders(pats: Iterable[BivincularPattern], n: int) -> list[Word]:
    """The permutations of 1..n avoiding every pattern, in lex order.

    Prefixes are extended one letter at a time, smallest letter first. A
    child is dropped as soon as a position-free pattern occurs in every
    completion of it (see the module docstring), or an occurrence of any
    other pattern ends at its new letter. Once no pattern can occur any
    more, every completion is kept.

    >>> from permlab.pattern import pattern
    >>> avoiders([pattern((2, 3, 1))], 3)
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)]
    """
    checks = _checks(True, pats, n)
    return [] if checks is None else _walk(True, checks, n, True)


def containers(pats: Iterable[BivincularPattern], n: int) -> list[Word]:
    """The permutations of 1..n containing every pattern, in lex order.

    The walk is that of `avoiders` with the roles of the two outcomes
    swapped: a child is dropped as soon as some pattern can no longer occur
    in any completion of it, and once every pattern is found, every
    completion is kept.

    >>> from permlab.pattern import pattern
    >>> containers([pattern((2, 3, 1))], 3)
    [(2, 3, 1)]
    """
    checks = _checks(False, pats, n)
    return [] if checks is None else _walk(False, checks, n, True)


def fixed_site(pat: BivincularPattern) -> bool:
    """Whether `pat`, of length k, has |X| >= k or |Y| >= k: its anchors
    leave at most one gap free, so all its occurrences use the same
    positions, or the same values, and a word holds at most one."""
    return len(pat.x) >= pat.k or len(pat.y) >= pat.k


def blocks(pat: BivincularPattern, n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The sites of `pat` in S_n, one (positions, letters) pair each: the
    word holds letters[s] at positions[s], and its other letters take the
    other positions in every order. A site of a pattern whose first k - 1
    slots fill the positions 1..k-1 and whose values have one site gives
    one block of k - 1 letters for every position of its last slot.

    >>> from permlab.pattern import pattern
    >>> list(blocks(pattern((2, 1), x=[1], y=[0, 2]), 3))
    [((1, 2), (3, 1)), ((2, 3), (3, 1))]
    >>> list(blocks(pattern((1, 2), x=[0], y=[0, 1]), 4))
    [((1,), (1,))]
    """
    k = pat.k
    value_sites = list(_sites(pat.y, k, n))
    if k and len(value_sites) == 1 and pat.x == frozenset(range(k - 1)):
        # The first k - 1 slots fill the positions 1..k-1 and the last slot
        # may take any later one: its sites hold every order of the letters
        # after those.
        yield tuple(range(1, k)), tuple(value_sites[0][i - 1] for i in pat.p[:-1])
        return
    for positions in _sites(pat.x, k, n):
        for values in value_sites:
            yield positions, tuple(values[i - 1] for i in pat.p)


def _sites(adjacent: frozenset[int], k: int, n: int) -> Iterator[tuple[int, ...]]:
    """The k-subsets e_1 < ... < e_k of 1..n with e_{a+1} = e_a + 1 for each
    a in `adjacent`, where e_0 = 0 and e_{k+1} = n + 1."""
    if len(adjacent) >= k:
        # At most one gap g, between e_g and e_{g+1}, is free, and the n - k
        # values left out all fall into it.
        if n == k or n > k and len(adjacent) == k:
            g = min(set(range(k + 1)).difference(adjacent), default=k)
            yield (*range(1, g + 1), *range(n - k + g + 1, n + 1))
        return
    for site in combinations(range(1, n + 1), k):
        if _admits(adjacent, site, n):
            yield site


def _admits(adjacent: frozenset[int], site, n: int) -> bool:
    """Whether e_{a+1} = e_a + 1 for each a in `adjacent`, where e_1 < ... <
    e_k is `site`, e_0 = 0 and e_{k+1} = n + 1."""
    ends = (0, *site, n + 1)
    return all(ends[a + 1] == ends[a] + 1 for a in adjacent)


@lru_cache(maxsize=None)
def cover_shapes(pat: BivincularPattern, m: int) -> tuple[tuple[tuple[Word, Word], bool], ...]:
    """The shapes of the sites of `pat` in S_m whose positions and values
    cover 1..m, for k <= m <= 2k, each paired with whether it grows. A shape
    is the closed cycles and open paths (`open_paths`) of the positions
    sent to the values p places there. A site of any degree becomes one of
    these when the letters it leaves out, paths of one node, are dropped:
    anchors only force gaps empty. Its values are the m - k letters outside
    its positions and 2k - m of these. It grows when a letter fits between
    t and t + 1 for some t in 0..m, in a free gap of the positions and of
    the values: then its shape recurs at each degree n > m with n - m paths
    of one node added. A shape's sites are read only until one grows.

    >>> from permlab.pattern import pattern
    >>> [dict(cover_shapes(pattern((2, 1), x=[1], y=[0, 2]), m)) for m in (2, 3, 4)]
    [{((2,), ()): False}, {((), (3,)): True}, {((), (2, 2)): True}]
    """
    k, by_x = pat.k, len(pat.x) >= len(pat.y)  # the more anchored side leaves fewer sites
    shapes: dict[tuple[Word, Word], bool] = {}
    for site in _sites(pat.x if by_x else pat.y, k, m):
        outside = [v for v in range(1, m + 1) if v not in site]
        for inside in combinations(site, 2 * k - m):
            other = sorted((*outside, *inside))
            if _admits(pat.y if by_x else pat.x, other, m):
                positions, values = (site, other) if by_x else (other, site)
                shape = open_paths(positions, [values[i - 1] for i in pat.p], m)
                if not shapes.get(shape):
                    shapes[shape] = any(bisect(positions, t) not in pat.x
                                        and bisect(values, t) not in pat.y for t in range(m + 1))
    return tuple(shapes.items())


def cover_reach(pat: BivincularPattern) -> int:
    """The largest m - k for which `cover_shapes(pat, m)` has a shape: hi - lo
    for the least and greatest slots lo and hi that X or Y leaves free, or 0
    unless both leave one. Read 1..m upward as a path from (0, 0) to (k, k)
    whose letters that are a position and a value step (1, 1), those only a
    position (1, 0) at a row not in Y, and those only a value (0, 1) at a
    column not in X. It leaves and meets the diagonal only at free slots, so
    takes at most hi - lo steps (1, 0). It takes that many at row lo, then
    as many (0, 1) at column hi, if lo is not in Y and hi not in X; else it
    passes through a free slot of the other side between them (or takes the
    mirror). A step (1, 0) and a step (0, 1) with only steps (1, 1) between
    them merge, so every smaller m - k has a shape too.

    >>> from permlab.pattern import pattern
    >>> cover_reach(pattern((2, 3, 1), x=[0, 1], y=[0, 1, 2])), cover_reach(pattern((1, 2)))
    (1, 2)
    """
    free_x, free_y = _slots(pat.k) - pat.x, _slots(pat.k) - pat.y
    free = free_x | free_y
    return max(free) - min(free) if free_x and free_y else 0


def block_words(positions: tuple[int, ...], letters: tuple[int, ...], n: int) -> Iterator[Word]:
    """The words of S_n holding letters[s] at positions[s] for each s, the
    block (positions, letters) as `blocks` gives it. At the positions
    1..len(letters) these are the placed letters followed by each order of
    the rest; elsewhere each such tuple is gathered into place.

    >>> from permlab.pattern import pattern
    >>> [w for block in blocks(pattern((2, 1), x=[1], y=[0, 2]), 3) for w in block_words(*block, 3)]
    [(3, 1, 2), (2, 3, 1)]
    """
    rest = sorted(set(range(1, n + 1)).difference(letters))
    if not positions or positions[-1] == len(positions):
        return map(letters.__add__, permutations(rest))
    # Each order of the rest followed by the placed letters, read in word order.
    order = list(range(len(rest)))
    for s, i in enumerate(positions):
        order.insert(i - 1, len(rest) + s)
    return map(itemgetter(*order), map(add, permutations(rest), repeat(letters)))


def count(avoid: bool, pats: Iterable[BivincularPattern], n: int) -> int:
    """The number of permutations of 1..n avoiding (or, for `avoid` false,
    containing) every pattern: the length of `avoiders(pats, n)` (or of
    `containers(pats, n)`), found without building a word by the first
    route of the module docstring that applies.

    >>> from permlab.pattern import pattern
    >>> count(True, [pattern((2, 3, 1))], 9), count(False, [pattern((2, 3, 1))], 9)
    (4862, 358018)
    >>> count(True, [pattern((2, 4, 1, 3))], 9)
    91245
    >>> count(False, [pattern((2, 4, 1, 3)), pattern((3, 1, 4, 2))], 9)
    221976
    >>> count(True, [pattern((2, 1), x=[1], y=[0, 2])], 9)  # 9! - 8!
    322560
    """
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    pats = tuple(pats)
    if not avoid and (len(pats) == 1 or all(not pat.x and not pat.y for pat in pats)):
        return sum((-1) ** size * count(True, subset, n)
                   for size in range(len(pats) + 1) for subset in combinations(pats, size))
    if avoid and len(pats) == 1 and fixed_site(pats[0]):
        return factorial(n) - occurrence_total(pats[0], n)
    by_rest = all(_reads_rest_only(_tail(pat)) for pat in pats if pat.k)
    if avoid and not by_rest and all(pat.k and not pat.x and not pat.y for pat in pats):
        threats = _Threats([pat.p for pat in pats])
        start = sum(threats[root, 0, n] for root, pat in zip(threats.roots, pats) if pat.k <= n)
        return _count_labels(threats, n, start, {})
    checks = _checks(avoid, pats, n)
    if checks is None:
        return 0
    return _walk(avoid, checks, n, False, by_rest)


def _checks(avoid: bool, pats: Iterable[BivincularPattern], n: int) -> list | None:
    """The `_check` tuples of the patterns of length k >= 1 for the avoider
    (or container) walk, or None when no word of S_n is kept: a pattern of
    length 0 occurs (or does not), or, for containers, a pattern cannot
    occur at all. A negative degree is a ValueError."""
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    pats = tuple(pats)
    if any(pat.k == 0 and _empty_pattern_occurs(pat, n) == avoid for pat in pats):
        return None
    checks = [check for pat in pats if (check := _check(pat, n))]
    if not avoid and len(checks) < sum(pat.k > 0 for pat in pats):
        return None
    return checks


def _walk(avoid: bool, checks: list, n: int, words: bool, by_rest: bool = False) -> list[Word] | int:
    """The words of the avoider (or container) walk over `checks`; or, for
    `words` false, only their number. `by_rest`, set by `count` when every
    kernel reads only `rest`, counts an avoider walk without a deciding
    value over the sets of unplaced values (`_count_unplaced`)."""
    if not checks:
        return list(permutations(range(1, n + 1))) if words else factorial(n)
    out: list = [] if words else [0]
    start = ([], [0] * (n + 2), (2 << n) - 2, out, words)
    if avoid and not any(decider for *_, decider in checks):
        live_at = [[kill for first, last, kill, _ in checks if first <= m <= last]
                   for m in range(n + 1)]
        horizon = max(check[1] for check in checks)
        if by_rest:
            return _count_unplaced(live_at, horizon, n + 1, (2 << n) - 2, {})
        _grow_avoiders(live_at, horizon, *start)
    else:
        _grow_open(avoid, tuple(checks), *start)
    return out if words else out[0]


@lru_cache(maxsize=None)
def _unplaced(rest: int) -> tuple[int, ...]:
    """The values whose bits are set in `rest`, increasing: the children of
    a walk call, or the tails of the completions it emits. The cache holds
    one entry per set of values read so, each a set of unplaced values or
    the part of one that kernels keep, so at most 2^n for walks of degree up
    to n."""
    return tuple(_members(rest, rest.bit_length() - 1))


def _grow_avoiders(live_at, horizon: int, prefix: list[int], posv: list[int], rest: int,
                   out: list, words: bool) -> None:
    """The avoider walk of checks without a deciding value: at position m
    only the kernels in `live_at[m]` run, and past the horizon, the largest
    `last`, every completion is kept. `rest` has the bits of the unplaced
    values; each kernel runs once and drops the values whose placing at m
    ends an occurrence, and the bits left are the children kept, in
    increasing order. The completions kept go into `out`, as words or, for
    `words` false, as a number added to `out[0]`."""
    m = len(prefix) + 1
    top = len(posv) - 1  # n + 1
    alive = rest
    for kill in live_at[m]:
        alive &= ~kill(m, prefix, posv, top, rest)
    if m < horizon:
        for v in _unplaced(alive):
            prefix.append(v)
            posv[v] = m
            _grow_avoiders(live_at, horizon, prefix, posv, rest ^ 1 << v, out, words)
            prefix.pop()
            posv[v] = 0
    elif not words:
        out[0] += alive.bit_count() * factorial(top - 1 - m)
    else:
        for v in _unplaced(alive):
            prefix.append(v)
            _emit(prefix, rest ^ 1 << v, out)
            prefix.pop()


def _count_unplaced(live_at, horizon: int, top: int, rest: int, memo: dict) -> int:
    """The number of completions that `_grow_avoiders` keeps below a
    prefix whose unplaced values are the bits of `rest`, for kernels that
    read only m = top - |rest|, top and rest, so that the number depends on
    `rest` alone. Each `rest` met is expanded once and its number stored in
    `memo`, whose keys are thus the sets of unplaced values of the prefixes
    that `_grow_avoiders` enters."""
    m = top - rest.bit_count()
    alive = rest
    for kill in live_at[m]:
        alive &= ~kill(m, None, None, top, rest)
    if m < horizon:
        total = 0
        for v in _unplaced(alive):
            child = rest ^ 1 << v
            total += memo[child] if child in memo else _count_unplaced(live_at, horizon, top, child, memo)
    else:
        total = alive.bit_count() * factorial(top - 1 - m)
    memo[rest] = total
    return total


class _Threats(dict):
    """The threat automaton of some classical patterns, and the threats one
    label walk (`_count_labels`) meets: the i-th, `met[i]`, maps to 1 << i,
    and `rows[i]` is its move row, None until a label holding it is expanded.

    A state sid is a pattern p of length k with its first j < k slots
    matched. A threat in it, at r unplaced values, is (sid, *padded) with
    padded = (0, *gaps, r): the gap indices of the matched values that are
    the nearest lower or upper rank neighbour of an unmatched slot, by
    increasing rank. An unmatched slot whose rank lies above i of those
    ranks has window i, the unplaced values of ranks padded[i] <= rho <
    padded[i+1]. `states[sid]` is (next, need, windows, longer, recipe):
    the window of p[j]; need = k - j; the windows of all unmatched slots;
    the state with one slot more matched, or None when p[j] is the last;
    and the getter of that state's padded gaps from this one's followed by
    the new value. `roots` holds each pattern's state of no slot matched."""

    def __init__(self, perms: list[Word]) -> None:
        super().__init__()
        self.states, self.roots, self.met, self.rows = [], [], [], []
        for p in perms:
            k, base = len(p), len(self.states)
            self.roots.append(base)
            # A matched value is the nearest lower (upper) neighbour of an
            # unmatched one exactly when the value above (below) it is unmatched.
            kept = [sorted(a for a in p[:j] if {a - 1, a + 1} & set(p[j:])) for j in range(k)]
            for j in range(k):
                windows = [bisect(kept[j], u) for u in p[j:]]
                longer = recipe = None
                if j + 1 < k:
                    longer, fresh = base + j + 1, len(kept[j]) + 2
                    recipe = itemgetter(0, *[kept[j].index(a) + 1 if a != p[j] else fresh
                                             for a in kept[j + 1]], fresh - 1)
                self.states.append((windows[0], k - j, tuple(sorted(set(windows))), longer, recipe))

    def __missing__(self, key: tuple) -> int:
        bit = self[key] = 1 << len(self.met)
        self.met.append(key)
        self.rows.append(None)
        return bit


def _count_labels(threats: _Threats, r: int, label: int, memo: dict) -> int:
    """The number of completions kept below a prefix with r unplaced values
    and the threats whose bits make up `label`. Each label met is expanded
    once and its number stored in `memo`, keyed by its bitmask; each of its
    threats' move rows is computed once. A label without threats has r!
    completions, and at r = 0 no threat is left."""
    if not label:
        return factorial(r)
    kids, rest = None, label
    while rest:
        i = rest.bit_length() - 1
        rest ^= 1 << i
        row = threats.rows[i]
        if row is None:
            threat = threats.met[i]
            row = threats.rows[i] = _threat_moves(threats, threat[-1], threat)
        kids = row if kids is None else map(or_, kids, row)
    total = 0
    for child in kids:
        if child > 0:
            got = memo.get(child)
            total += _count_labels(threats, r - 1, child, memo) if got is None else got
        elif not child:
            total += factorial(r - 1)
    memo[label] = total
    return total


def _threat_moves(threats: _Threats, r: int, threat: tuple) -> tuple[int, ...]:
    """For each rank rho < r of the value placed next, the OR of the bits of
    the threats that `threat` leaves in the child, or -1, which stays -1
    when ORed, if the child is dead: an occurrence ends at it, or a threat
    short of only its last slot leaves that slot a window. The threat
    stays, with the gap indices above rho lowered, while no window of its
    unmatched slots is empty and it has no more slots to fill than values;
    it grows a slot when its next slot's window holds rho. Between two
    neighbouring gap values the same gaps are lowered, so the threat that
    stays is found once there."""
    sid = threat[0]
    window, need, windows, longer, recipe = threats.states[sid]
    gaps = threat[1:]
    low, high = gaps[window], gaps[window + 1]
    bounds = sorted(set(gaps))
    row: list[int] = []
    for a, b in zip(bounds, bounds[1:]):  # each interval a <= rho < b
        shifted = [g - (g > a) for g in gaps]
        stay = threats[(sid, *shifted)] if need < r and _open(shifted, windows) else 0
        if not low <= a < high:
            row += [stay] * (b - a)
        elif longer is None:
            row += [-1] * (b - a)
        else:
            longer_need, longer_windows = threats.states[longer][1:3]
            shifted.append(a)
            for rho in range(a, b):
                shifted[-1] = rho
                grown = recipe(shifted)
                if not _open(grown, longer_windows):
                    row.append(stay)
                elif longer_need == 1:
                    row.append(-1)
                else:
                    row.append(stay | threats[(longer, *grown)] if longer_need < r else stay)
    return tuple(row)


def _open(gaps: Sequence[int], windows: tuple[int, ...]) -> bool:
    """Whether each window i of the padded `gaps` holds an unplaced value."""
    for i in windows:
        if gaps[i] >= gaps[i + 1]:
            return False
    return True


def _grow_open(avoid: bool, checks: tuple, prefix: list[int], posv: list[int], rest: int,
               out: list, words: bool) -> None:
    """The walk of either side (see the module docstring) over the checks
    still open in `prefix`. `rest`, `out` and `words` are as in
    `_grow_avoiders`. Each open check's kernel runs once, if m lies in its
    window, and gives the children it fires on; a check closes on those,
    on its deciding value, and on every child at its last position. In
    count mode the children that close every check are counted at once."""
    m = len(prefix) + 1
    top = len(posv) - 1  # n + 1
    drop = some = 0
    every = rest
    closes = []
    for first, last, kill, decider in checks:
        if m < first:
            fired, done = 0, 1 << decider  # bit 0 is no value
        else:
            fired = kill(m, prefix, posv, top, rest)
            done = rest if m >= last else fired | 1 << decider
        drop |= fired if avoid else done & ~fired
        some |= done
        every &= done
        closes.append(done)
    alive = rest & ~drop
    if every & alive and not words:
        out[0] += (alive & every).bit_count() * factorial(top - 1 - m)
        alive &= ~every
    for v in _unplaced(alive):
        prefix.append(v)
        posv[v] = m
        if some >> v & 1:
            pending = tuple([check for check, done in zip(checks, closes) if not done >> v & 1])
            if pending:
                _grow_open(avoid, pending, prefix, posv, rest ^ 1 << v, out, words)
            else:
                _emit(prefix, rest ^ 1 << v, out)
        else:
            _grow_open(avoid, checks, prefix, posv, rest ^ 1 << v, out, words)
        prefix.pop()
        posv[v] = 0


def _emit(prefix: list[int], left: int, out: list) -> None:
    """Add to `out` every completion of `prefix` by the values of the
    bitmask `left`, in lex order."""
    out.extend(map(tuple(prefix).__add__, permutations(_unplaced(left))))

"""Bivincular patterns, the occurrence test, and the pattern symmetry algebra.

A bivincular pattern is a triple (p, X, Y): a classical pattern p of length k
plus adjacency constraints X, Y subsets of {0..k}. An occurrence in a word w of
length n is an index tuple i_1 < ... < i_k whose letters are order-isomorphic
to p, subject to

    x in X  =>  i_{x+1} = i_x + 1   with the conventions i_0 = 0, i_{k+1} = n+1
    y in Y  =>  j_{y+1} = j_y + 1   where j_1 < ... < j_k are the occurrence
                                    values, j_0 = 0, j_{k+1} = n+1

so 0 and k in X (resp. Y) pin the occurrence to the ends of the position
(resp. value) range. With X = Y = {} this is the classical notion.

A pattern is compiled once, into a plan (`_tail`) that finds an occurrence
ending at a given position m. The last slot and the slots chained to it by X
are pinned to the positions before m; the others are searched left to right.
Y partitions the ranks into runs of consecutive values, and once one rank of
a run is placed every other rank's value is known. One plan serves both
callers: `matches` tries each end position of a whole word, and the walks of
`permlab.generate` try the newest letter of each prefix they grow.
`occurrences` lists the position subsets whose signature (standardized
letters, X-set and Y-set) admits the pattern, the test `occurrence_masks`
makes for many patterns at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from .core import Word, check_perm, complement, format_perm, inverse, oplus, parse_perm, reverse
from .errors import ParseError

Occurrence = tuple[int, ...]


@dataclass(frozen=True)
class BivincularPattern:
    """The triple (p, X, Y). Immutable and hashable."""

    p: Word
    x: frozenset[int] = frozenset()
    y: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_perm(self.p))
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        k = len(self.p)
        if not all(0 <= v <= k for v in self.x | self.y):
            raise ParseError(f"adjacency sets must lie in 0..{k}")

    @property
    def k(self) -> int:
        return len(self.p)

    def __str__(self) -> str:
        return format_pattern(self)


def pattern(p: Sequence[int], x: Iterable[int] = (), y: Iterable[int] = ()) -> BivincularPattern:
    """Convenience constructor taking any iterables.

    >>> str(pattern((2, 3, 1), x=[0, 1], y=[0, 1, 2]))
    '231;x=0,1;y=0,1,2'
    """
    return BivincularPattern(tuple(p), frozenset(x), frozenset(y))


def parse_pattern(text: str) -> BivincularPattern:
    """Parse `<perm>[;x=<ints>][;y=<ints>]` with comma-separated ints.

    An omitted or empty clause means the empty set.

    >>> parse_pattern("3421;x=2,3;y=1,2,4")
    BivincularPattern(p=(3, 4, 2, 1), x=frozenset({2, 3}), y=frozenset({1, 2, 4}))
    """
    head, *clauses = text.strip().split(";")
    sets: dict[str, frozenset[int]] = {}
    for clause in clauses:
        key, eq, rhs = clause.strip().partition("=")
        if key not in ("x", "y") or not eq or key in sets:
            raise ParseError(f"bad pattern clause: {clause!r}")
        try:
            sets[key] = frozenset(int(s) for s in rhs.split(",") if s)
        except ValueError as exc:
            raise ParseError(f"bad pattern clause: {clause!r}") from exc
    return BivincularPattern(parse_perm(head), sets.get("x", frozenset()), sets.get("y", frozenset()))


def format_pattern(pat: BivincularPattern) -> str:
    """Inverse of parse_pattern; both clauses are always emitted.

    >>> format_pattern(pattern((2, 3, 1)))
    '231;x=;y='
    """

    def ints(s: frozenset[int]) -> str:
        return ",".join(str(v) for v in sorted(s))

    return f"{format_perm(pat.p)};x={ints(pat.x)};y={ints(pat.y)}"


def _bits(members: Iterable[int]) -> int:
    return sum(1 << v for v in members)


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
    k, p, x = pat.k, pat.p, pat.x
    gap = k >= 2 and k - 1 not in x and k not in x
    end = k - gap  # the slots searched in the prefix
    npinned = 1
    while npinned < end and end - npinned in x:
        npinned += 1
    order = list(range(end - 1, end - 1 - npinned, -1)) + list(range(end - npinned)) + [k - 1] * gap
    # Y splits the ranks 0..k+1 into runs of consecutive values: y in Y joins
    # ranks y and y+1. The virtual ranks 0 and k+1 hold the values 0 and n+1.
    run = [0]
    for rank in range(1, k + 2):
        run.append(run[-1] + (rank - 1 not in pat.y))
    placed = {0: 0, k + 1: 1}  # rank -> index of its value
    run_ref = {run[0]: (0, 0), run[k + 1]: (1, k + 1)}  # run -> (value index, rank)
    steps = []
    for j, s in enumerate(order):
        rank = p[s]
        ref, rank0 = run_ref.get(run[rank], (-1, rank))
        lo = placed[max(r for r in placed if r < rank)]
        hi = placed[min(r for r in placed if r > rank)]
        placed[rank] = 2 + j
        run_ref.setdefault(run[rank], (2 + j, rank))
        steps.append((ref, rank - rank0, lo, hi, s in x if s < end else None))
    return _Tail(
        pinned=tuple(step[:4] for step in steps[:npinned]),
        free=tuple(steps[npinned:]),
        fixed_start=npinned == end and 0 in x,
        at_end=k in x,
        fills_values=run[0] == run[k + 1],
        gap=gap,
    )


def _check(pat: BivincularPattern, n: int) -> tuple[int, int, _Tail, list[int], int] | None:
    """(first, last, tail, value buffer, letter) for a search of pat in a
    word of length n, or None when pat, of length k >= 1, cannot occur there.
    The search can end at the positions first..last: where an occurrence
    ends or, for a gap plan, where its first k-1 slots end. `letter` is the
    value the last slot searched in the prefix must take, or 0 when it is
    free."""
    k = pat.k
    if k == 0 or k > n:
        return None
    tail = _tail(pat)
    first, last = k - tail.gap, n - tail.gap
    if tail.fixed_start:
        last = first
    if tail.at_end:
        first = n
    if first > last or (tail.fills_values and n != k):
        return None
    vals = [0, n + 1] + [0] * k
    ref, delta = tail.pinned[0][:2]
    return first, last, tail, vals, vals[ref] + delta if ref >= 0 else 0


def _ends_at(tail: _Tail, m: int, prefix: Sequence[int], posv: list[int], vals: list[int],
             rest: int) -> bool:
    """True iff an occurrence ends at position m of `prefix`, whose letters
    are indexed by value in `posv` (0 for a letter not yet placed). For a gap
    plan: iff an occurrence of all slots but the last ends there and leaves
    the last slot a value in the bitmask `rest`, so that every completion
    holds an occurrence. Letters past position m are never read."""
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
                prefix: Sequence[int], posv: list[int], vals: list[int], rest: int) -> bool:
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


def _empty_pattern_occurs(pat: BivincularPattern, n: int) -> bool:
    # For k = 0 the conventions give i_1 = j_1 = n+1, so a hook demands n = 0.
    return (0 not in pat.x or n == 0) and (0 not in pat.y or n == 0)


@lru_cache(maxsize=None)
def _position_subsets(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each k-subset of the positions of a word of length n, 0-based, with
    the bits of its X-set: the x in 0..k with i_{x+1} = i_x + 1, where i_0
    and i_{k+1} become -1 and n."""
    return tuple((comb, _bits(x for x in range(k + 1) if ends[x + 1] == ends[x] + 1))
                 for comb in combinations(range(n), k) for ends in [(-1, *comb, n)])


def _signature_mask(by_p, xs: int, letters: Word, n: int) -> int:
    """The mask of the patterns occurring at a position subset with X-set xs
    and these letters. by_p maps p to (X bits, Y bits, pattern bit) triples.

    The subset's signature is its letters' standardization p, its X-set and
    its Y-set: the y in 0..k with j_{y+1} = j_y + 1, where j_1 < ... < j_k
    are the letters sorted, j_0 = 0 and j_{k+1} = n+1. A pattern occurs at
    the subset exactly when it has that p and its X and Y lie within those
    sets."""
    ranks = sorted(letters)
    same_p = by_p.get(tuple([ranks.index(v) + 1 for v in letters]))
    if not same_p:
        return 0
    js = (0, *ranks, n + 1)
    ys = _bits(y for y in range(len(letters) + 1) if js[y + 1] == js[y] + 1)
    return sum(bit for x, y, bit in same_p if not (x & ~xs or y & ~ys))


def occurrences(pat: BivincularPattern, pi: Sequence[int]) -> list[Occurrence]:
    """All occurrences of pat in pi as 1-based position tuples, lex sorted:
    none unless `matches` finds one, else every position subset whose
    signature admits pat.

    >>> occurrences(pattern((1, 2, 3)), (2, 4, 1, 6, 3, 5))
    [(1, 2, 4), (1, 2, 6), (1, 5, 6), (3, 5, 6)]
    >>> occurrences(pattern((1, 2), y=[1]), (2, 4, 1, 3))
    [(1, 4)]
    """
    w = tuple(pi)
    if not matches(pat, w):
        return []
    by_p = {pat.p: [(_bits(pat.x), _bits(pat.y), 1)]}
    return [tuple([i + 1 for i in comb]) for comb, xs in _position_subsets(len(w), pat.k)
            if _signature_mask(by_p, xs, tuple([w[i] for i in comb]), len(w))]


def matches(pat: BivincularPattern, pi: Sequence[int]) -> bool:
    """True iff pat occurs in pi: an occurrence ends at some position m of
    the plan's window or, for a gap plan, an occurrence of its first k-1
    slots ends there and a later letter fits its last slot."""
    w = tuple(pi)
    n = len(w)
    if pat.k == 0:
        return _empty_pattern_occurs(pat, n)
    check = _check(pat, n)
    if check is None:
        return False
    first, last, tail, vals, _ = check
    posv = [0] * (n + 1)
    for i, v in enumerate(w, start=1):
        posv[v] = i
    rest = _bits(w[first:]) if tail.gap else 0  # the letters after position m
    for m in range(first, last + 1):
        if _ends_at(tail, m, w, posv, vals, rest):
            return True
        if tail.gap:
            rest ^= 1 << w[m]
    return False


def avoids(pat: BivincularPattern, pi: Sequence[int]) -> bool:
    """True iff pat does not occur in pi."""
    return not matches(pat, pi)


def pat_reverse(pat: BivincularPattern) -> BivincularPattern:
    """(p, X, Y)^r = (p^r, k - X, Y)."""
    k = pat.k
    return BivincularPattern(reverse(pat.p), frozenset(k - v for v in pat.x), pat.y)


def pat_complement(pat: BivincularPattern) -> BivincularPattern:
    """(p, X, Y)^c = (p^c, X, k - Y)."""
    k = pat.k
    return BivincularPattern(complement(pat.p), pat.x, frozenset(k - v for v in pat.y))


def pat_inverse(pat: BivincularPattern) -> BivincularPattern:
    """(p, X, Y)^i = (p^i, Y, X)."""
    return BivincularPattern(inverse(pat.p), pat.y, pat.x)


SYMMETRY_OPS = {"r": pat_reverse, "c": pat_complement, "i": pat_inverse}


def apply_symmetry(pat: BivincularPattern, ops: str) -> BivincularPattern:
    """Apply a composition such as "rc" left to right: first r, then c."""
    for op in ops:
        pat = SYMMETRY_OPS[op](pat)
    return pat


def pat_shift(pat: BivincularPattern) -> BivincularPattern:
    """The toric shift on patterns: (p + 1, (X - l) mod r+1, (Y + 1) mod r+1),
    where r = k is the rank and l is the position of the rank in p.

    >>> str(pat_shift(parse_pattern("3421;x=2,3;y=1,2,4")))
    '3214;x=0,1;y=0,2,3'
    """
    k = pat.k
    if k == 0:
        return pat
    ell = pat.p.index(k) + 1
    mod = k + 1
    return BivincularPattern(
        oplus(pat.p, 1),
        frozenset((v - ell) % mod for v in pat.x),
        frozenset((v + 1) % mod for v in pat.y),
    )


def shift_orbit(pat: BivincularPattern) -> tuple[BivincularPattern, ...]:
    """Iterated pat_shift until the pattern repeats, starting with pat."""
    out = [pat]
    seen = {pat}
    cur = pat_shift(pat)
    while cur not in seen:
        out.append(cur)
        seen.add(cur)
        cur = pat_shift(cur)
    return tuple(out)


def all_patterns(k: int) -> Iterator[BivincularPattern]:
    """Every bivincular pattern of length k: k! * 4^(k+1) of them, in a fixed order."""
    ground = list(range(k + 1))
    subsets = [frozenset(v for v in ground if mask >> v & 1) for mask in range(1 << (k + 1))]
    for p in permutations(range(1, k + 1)):
        for x in subsets:
            for y in subsets:
                yield BivincularPattern(p, x, y)

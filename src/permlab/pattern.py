"""Bivincular patterns, the occurrence engine, and the pattern symmetry algebra.

A bivincular pattern is a triple (p, X, Y): a classical pattern p of length k
plus adjacency constraints X, Y subsets of {0..k}. An occurrence in a word w of
length n is an index tuple i_1 < ... < i_k whose letters are order-isomorphic
to p, subject to

    x in X  =>  i_{x+1} = i_x + 1   with the conventions i_0 = 0, i_{k+1} = n+1
    y in Y  =>  j_{y+1} = j_y + 1   where j_1 < ... < j_k are the occurrence
                                    values, j_0 = 0, j_{k+1} = n+1

so 0 and k in X (resp. Y) pin the occurrence to the ends of the position
(resp. value) range. With X = Y = {} this is the classical notion.

The engine walks positions left to right. Constraints from X become forced
position jumps; Y partitions the pattern ranks into runs of consecutive
values, and once a run's base value is known every other rank in the run is
looked up in O(1) through the host's inverse table. It answers queries about
one word; `permlab.generate` lists whole sets of avoiders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .core import Word, check_perm, complement, format_perm, inverse, oplus, parse_perm, reverse
from .errors import NoOccurrenceError, ParseError

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


@dataclass(frozen=True)
class _Slot:
    rank: int      # pattern letter at this position: the value placed here is the rank-th smallest
    chain: bool    # position forced to previous + 1 (for the first slot: to 1)
    last: bool     # position forced to n
    run: int       # index of the value run this rank belongs to
    offset: int    # rank - first rank of the run


@dataclass(frozen=True)
class _Plan:
    slots: tuple[_Slot, ...]
    run_len: tuple[int, ...]
    run_start: tuple[int, ...]
    anchor_low: int | None   # run whose base value is pinned to 1
    anchor_high: int | None  # run whose top value is pinned to n


@lru_cache(maxsize=None)
def _compile(pat: BivincularPattern) -> _Plan:
    k = pat.k
    links = {y for y in pat.y if 1 <= y < k}
    run_of: dict[int, int] = {}
    run_len: list[int] = []
    run_start: list[int] = []
    for rank in range(1, k + 1):
        if rank == 1 or (rank - 1) not in links:
            run_start.append(rank)
            run_len.append(0)
        run_of[rank] = len(run_len) - 1
        run_len[-1] += 1
    slots = tuple(
        _Slot(
            rank=pat.p[s],
            chain=s in pat.x,
            last=(s == k - 1 and k in pat.x),
            run=run_of[pat.p[s]],
            offset=pat.p[s] - run_start[run_of[pat.p[s]]],
        )
        for s in range(k)
    )
    return _Plan(
        slots=slots,
        run_len=tuple(run_len),
        run_start=tuple(run_start),
        anchor_low=run_of[1] if 0 in pat.y else None,
        anchor_high=run_of[k] if k in pat.y else None,
    )


def _search(
    plan: _Plan,
    w: Word,
    posv: list[int],
    s: int,
    positions: list[int],
    chosen: list[tuple[int, int]],
    bases: list[int | None],
    collect: list[Occurrence] | None,
) -> bool:
    """Extend the partial occurrence at slot s. Returns True to stop early."""
    k = len(plan.slots)
    n = len(w)
    if s == k:
        if collect is None:
            return True
        collect.append(tuple(positions))
        return False
    slot = plan.slots[s]
    prev = positions[-1] if positions else 0
    lo, hi = 0, n + 1
    for rank0, val0 in chosen:
        if rank0 < slot.rank:
            if val0 > lo:
                lo = val0
        elif val0 < hi:
            hi = val0

    base = bases[slot.run]
    if base is not None:
        v = base + slot.offset
        if not lo < v < hi:
            return False
        pos = posv[v]
        if (
            pos <= prev
            or (slot.chain and pos != prev + 1)
            or (slot.last and pos != n)
            or n - pos < k - s - 1
        ):
            return False
        positions.append(pos)
        chosen.append((slot.rank, v))
        stop = _search(plan, w, posv, s + 1, positions, chosen, bases, collect)
        positions.pop()
        chosen.pop()
        return stop

    if slot.chain:
        candidates: Iterable[int] = (prev + 1,) if prev + 1 <= n else ()
    elif slot.last:
        candidates = (n,) if n > prev else ()
    else:
        candidates = range(prev + 1, n - (k - s - 1) + 1)
    for pos in candidates:
        if (slot.last and pos != n) or n - pos < k - s - 1:
            continue
        v = w[pos - 1]
        if not lo < v < hi:
            continue
        b = v - slot.offset
        if b < 1 or b + plan.run_len[slot.run] - 1 > n:
            continue
        bases[slot.run] = b
        positions.append(pos)
        chosen.append((slot.rank, v))
        stop = _search(plan, w, posv, s + 1, positions, chosen, bases, collect)
        positions.pop()
        chosen.pop()
        bases[slot.run] = None
        if stop:
            return True
    return False


def _prepare(pat: BivincularPattern, w: Word) -> tuple[_Plan, list[int], list[int | None]] | None:
    """Compile and pre-pin anchored run bases; None if infeasible outright."""
    n = len(w)
    k = pat.k
    plan = _compile(pat)
    bases: list[int | None] = [None] * len(plan.run_len)
    if plan.anchor_low is not None:
        bases[plan.anchor_low] = 1
    if plan.anchor_high is not None:
        b = n - (k - plan.run_start[plan.anchor_high])
        if bases[plan.anchor_high] is None:
            bases[plan.anchor_high] = b
        elif bases[plan.anchor_high] != b:
            return None
    for rid, b in enumerate(bases):
        if b is not None and not (b >= 1 and b + plan.run_len[rid] - 1 <= n):
            return None
    posv = [0] * (n + 1)
    for idx, v in enumerate(w, start=1):
        posv[v] = idx
    return plan, posv, bases


def _empty_pattern_occurs(pat: BivincularPattern, n: int) -> bool:
    # For k = 0 the conventions give i_1 = j_1 = n+1, so a hook demands n = 0.
    return (0 not in pat.x or n == 0) and (0 not in pat.y or n == 0)


def occurrences(pat: BivincularPattern, pi: Sequence[int]) -> list[Occurrence]:
    """All occurrences of pat in pi as 1-based position tuples, lex sorted.

    >>> occurrences(pattern((1, 2, 3)), (2, 4, 1, 6, 3, 5))
    [(1, 2, 4), (1, 2, 6), (1, 5, 6), (3, 5, 6)]
    >>> occurrences(pattern((1, 2), y=[1]), (2, 4, 1, 3))
    [(1, 4)]
    """
    w = tuple(pi)
    if pat.k == 0:
        return [()] if _empty_pattern_occurs(pat, len(w)) else []
    if pat.k > len(w):
        return []
    ready = _prepare(pat, w)
    if ready is None:
        return []
    plan, posv, bases = ready
    out: list[Occurrence] = []
    _search(plan, w, posv, 0, [], [], bases, out)
    return out


def matches(pat: BivincularPattern, pi: Sequence[int]) -> bool:
    """True iff pat occurs in pi."""
    w = tuple(pi)
    if pat.k == 0:
        return _empty_pattern_occurs(pat, len(w))
    if pat.k > len(w):
        return False
    ready = _prepare(pat, w)
    if ready is None:
        return False
    plan, posv, bases = ready
    return _search(plan, w, posv, 0, [], [], bases, None)


def avoids(pat: BivincularPattern, pi: Sequence[int]) -> bool:
    """True iff pat does not occur in pi."""
    return not matches(pat, pi)


def occurrence_values(pi: Sequence[int], occ: Occurrence) -> Word:
    """The letters of pi at the occurrence positions, in position order."""
    return tuple(pi[i - 1] for i in occ)


def minimal_occurrences(pat: BivincularPattern, pi: Sequence[int]) -> list[Occurrence]:
    """The occurrences attaining the least area i_k - i_1.

    Raises NoOccurrenceError when pat is avoided.
    """
    occs = occurrences(pat, pi)
    if not occs:
        raise NoOccurrenceError(f"{format_pattern(pat)} does not occur in {format_perm(tuple(pi))}")
    if pat.k == 0:
        return occs
    best = min(o[-1] - o[0] for o in occs)
    return [o for o in occs if o[-1] - o[0] == best]


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


def symmetry_orbit(pat: BivincularPattern, generators: str = "rci") -> frozenset[BivincularPattern]:
    """Closure of pat under the named generator maps."""
    seen = {pat}
    frontier = [pat]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = SYMMETRY_OPS[g](cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def all_patterns(k: int) -> Iterator[BivincularPattern]:
    """Every bivincular pattern of length k: k! * 4^(k+1) of them, in a fixed order."""
    ground = list(range(k + 1))
    subsets = [frozenset(v for v in ground if mask >> v & 1) for mask in range(1 << (k + 1))]
    for p in permutations(range(1, k + 1)):
        for x in subsets:
            for y in subsets:
                yield BivincularPattern(p, x, y)

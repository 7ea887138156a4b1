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
a run is placed every other rank's value is known. Each distinct plan is
compiled once more, into a kernel (`_kernel`): a Python function of nested
loops with the plan's constants inlined, where a plan's one loop becomes a
bitmask test and an innermost loop that seeks an extreme becomes a running
one. One kernel serves both callers: `matches` tries each end position of a
whole word, and the walks of `permlab.generate` try the newest letter of
each prefix they grow. `occurrences` lists the position subsets whose
signature (standardized letters, X-set and Y-set) admits the pattern, and
`occurrence_masks` reads those of each word of S_n for many patterns at
once, from a table (`mask_table`) that a survey builds once for all its
degrees.
`PatternCodes` numbers the patterns of one length so that a survey reduces
them by symmetry with table lookups and builds a pattern only for each
row's name.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Sequence

from .core import Word, check_perm, complement, format_perm, inverse, oplus, parse_perm, reverse
from .errors import ParseError

Occurrence = tuple[int, ...]


class BivincularPattern:
    """The triple (p, X, Y). Immutable and hashable: patterns with equal
    fields are equal, and assigning to a field raises AttributeError."""

    __slots__ = ("p", "x", "y")

    def __init__(self, p: Sequence[int], x: Iterable[int] = frozenset(),
                 y: Iterable[int] = frozenset()) -> None:
        p, x, y = check_perm(p), frozenset(x), frozenset(y)
        k = len(p)
        if not all(0 <= v <= k for v in x | y):
            raise ParseError(f"adjacency sets must lie in 0..{k}")
        setattr_ = object.__setattr__
        setattr_(self, "p", p)
        setattr_(self, "x", x)
        setattr_(self, "y", y)

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.x, self.y) == (other.p, other.x, other.y)

    def __hash__(self) -> int:
        return hash((self.p, self.x, self.y))

    def __reduce__(self):
        return BivincularPattern, (self.p, self.x, self.y)

    def __repr__(self) -> str:
        return f"BivincularPattern(p={self.p!r}, x={self.x!r}, y={self.y!r})"

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


def _members(bits: int, k: int) -> list[int]:
    """The members of a subset of 0..k given by its bits, increasing."""
    return [v for v in range(k + 1) if bits >> v & 1]


class _Tail:
    """Plan for finding an occurrence whose last slot sits at a given position.

    Values are numbered: 0 is the virtual rank 0 (value 0), 1 the virtual
    rank k+1 (value n+1), and 2+j the value of the j-th slot placed. The
    slots are placed in this order: first the last slot and the slots
    chained to it by X, each pinned to a known position counted back from
    the end, then the remaining slots left to right. Each step names the
    values bounding it from below and above (the nearest ranks already
    placed) and, when its Y-run already holds a placed rank, the value it is
    offset from (ref, or -1) and by how much (delta).

    A gap plan is for a position-free pattern: k >= 2 and its last slot L is
    neither chained to the slot before it nor pinned to position n. Its
    pinned and free steps then find an occurrence of the first k-1 slots
    ending at the given position, and a last free step, marked by chain None,
    takes L's value from the values still unplaced: any later position can
    hold it.
    """

    __slots__ = ("pinned", "free", "fixed_start", "at_end", "fills_values", "gap")

    def __init__(self, pinned: tuple[tuple[int, int, int, int], ...],
                 free: tuple[tuple[int, int, int, int, bool | None], ...],
                 fixed_start: bool, at_end: bool, fills_values: bool, gap: bool) -> None:
        self.pinned = pinned              # (ref, delta, lo, hi) per step
        self.free = free                  # (ref, delta, lo, hi, chain) per step
        self.fixed_start = fixed_start    # the slots searched in the prefix are chained from position 1
        self.at_end = at_end              # k in X: the last slot sits at position n
        self.fills_values = fills_values  # Y holds 0..k: the occurrence's values are 1..n
        self.gap = gap                    # a gap plan


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


def _check(pat: BivincularPattern, n: int) -> tuple[int, int, Callable[..., bool], int] | None:
    """(first, last, kernel, decider) for a search of pat in a word of
    length n, or None when pat, of length k >= 1, cannot occur there. The
    search can end at the positions first..last: where an occurrence ends
    or, for a gap plan, where its first k-1 slots end. When the last slot
    searched in the prefix must take a given value, its letter, the kernel
    tests that on its first line, so a caller need not.

    `decider` is the deciding value, or 0 if there is none: the letter, or
    else the value of a gap plan's last slot L when Y ties it to 0 or n+1.
    Every occurrence holds it at the slot its kernel pins or, for L, after
    the position where the kernel found the rest of the occurrence; so once
    it is placed at position m, pat occurs in every completion if the kernel
    fires at m or fired before, and in none otherwise."""
    k = pat.k
    if k == 0 or k > n:
        return None
    tail = _tail(pat)
    first = n if tail.at_end else k - tail.gap
    last = k - tail.gap if tail.fixed_start else n - tail.gap
    if first > last or (tail.fills_values and n != k):
        return None
    ref, delta = tail.pinned[0][:2]
    letter = (0, n + 1)[ref] + delta if ref >= 0 else 0
    gref, gdelta = tail.free[-1][:2] if tail.gap else (-1, 0)
    decider = letter or ((0, n + 1)[gref] + gdelta if 0 <= gref <= 1 else 0)
    return first, last, _kernel(tail.pinned, tail.free), decider


@lru_cache(maxsize=None)
def _kernel(pinned: tuple, free: tuple) -> Callable[..., bool]:
    """The plan compiled into `ends_at(m, prefix, posv, top, rest)`: whether
    an occurrence ends at position m of `prefix` (for a gap plan, one of all
    slots but the last that leaves the last a value of the bitmask `rest`,
    so that every completion holds one). `posv` maps the placed letters to
    their positions and the others to 0; top is n+1. Letters past position m
    are never read, and `rest` is the bitmask of the values at positions
    m..n. The letters pinned to positions m, m-1, ... are values of the
    occurrence sought, so they bound every window the kernel tests and
    never lie inside one.

    Value j is the local v<j> (values 0 and 1 are 0 and top), p<j> its
    position; a value that Y ties to 0 is its constant instead. A free step
    loops over the positions after the last step's unless X chains it or Y
    links it; a failed test goes on to the innermost loop's next position.
    The source holds only the plan's integers, and no comparison that always
    holds (see `_window`). Two shapes of plan compile to fewer loops:

    - When the only free step but the gap step is a loop, L, it ranges over
      every position before the pinned slots, whose letters are the values
      missing from `rest` less the pinned ones, which lie outside L's
      window. The loop becomes one test of those bits inside L's window,
      narrowed by the gap test: a gap window whose upper end is L needs L
      above the least value of `rest` over its lower end, one whose lower
      end is L needs L below the greatest value of `rest` under its upper
      end, a gap value tied by Y to another value bounds L or, when tied to
      L, is L's value plus or minus one, and a gap test that does not read
      L is made first.
    - When the last two free steps but the gap step, E and L, are loops and
      the gap test reads L only as the upper end of its window while L is
      bounded only from below (or only as the lower end while L is bounded
      only from above), L's best letter is the greatest (least) of its
      positions. E then loops right to left, and each of its positions adds
      the next letter to a running extreme that stands for L.
    """
    # A free step's value that Y ties to 0 is a constant, named by itself.
    val = ["0", "top"] + [f"v{j}" for j in range(2, 2 + len(pinned))] + [
        str(delta) if ref == 0 else f"v{j}" for j, (ref, delta, *_) in enumerate(free, 2 + len(pinned))]
    lines = ["def ends_at(m, prefix, posv, top, rest):"]
    depth, fail, prev = 1, "return False", "0"

    def emit(*new: str) -> None:
        lines.extend("    " * depth + line for line in new)

    def bounds(j: int, lo: int, hi: int, inside: bool, delta: int) -> None:
        cond = _window(val, j, lo, hi, inside, delta)
        if cond:
            emit(f"if not {cond}: {fail}")

    for j, (ref, delta, lo, hi) in enumerate(pinned, start=2):
        emit(f"v{j} = prefix[m - {j - 1}]")
        if ref >= 0:
            emit(f"if v{j} != {val[ref]}{delta:+d}: {fail}")
        bounds(j, lo, hi, True, delta)
    steps = [step for step in free if step[4] is not None]
    gap = free[-1] if len(steps) < len(free) else None
    last = 1 + len(pinned) + len(steps)  # the value of the last step but the gap step, L
    loops = [ref < 0 and chain is False for ref, *_, chain in steps[-2:]]
    if loops == [True]:
        return _compile(lines + _one_loop(steps[0], gap, last, val))
    extreme = None
    if gap and gap[0] < 0 and loops == [True, True]:
        if gap[3] == last and steps[-1][3] == 1:
            extreme = ("0", ">")
        elif gap[2] == last and steps[-1][2] == 0:
            extreme = ("top", "<")
    after = len(pinned) + len(steps)
    for j, (ref, delta, lo, hi, chain) in enumerate(free, start=2 + len(pinned)):
        after -= 1  # the positions of the later steps: this one's is at most m - after
        if ref > 0:
            emit(f"v{j} = {val[ref]}{delta:+d}")
        if chain is None:  # the gap step, last
            cond = _window(val, j, lo, hi, ref <= 1, delta)
            emit(f"if {cond + ' and ' * bool(cond)}rest >> {val[j]} & 1: return True" if ref >= 0
                 else f"if rest & ((1 << {val[hi]}) - (2 << {val[lo]})): return True")
        elif ref >= 0:
            bounds(j, lo, hi, ref <= 1, delta)
            emit(f"p{j} = posv[{val[j]}]", f"if p{j} != {prev} + 1 or p{j} > m - {after}: {fail}" if chain
                 else f"if not {prev} < p{j} <= m - {after}: {fail}")
        elif extreme and j == last:  # L, read from the running extreme
            bounds(j, lo, hi, True, 0)
        else:
            if extreme and j == last - 1:  # E, whose positions give L one more letter each
                start, better = extreme
                emit(f"v{last} = {start}", f"for p{j} in range(m - {after}, {prev}, -1):")
                depth, fail = depth + 1, "continue"
                emit(f"if prefix[p{j}] {better} v{last}: v{last} = prefix[p{j}]")
            elif chain:
                emit(f"p{j} = {prev} + 1", f"if p{j} > m - {after}: {fail}")
            else:
                emit(f"for p{j} in range({prev} + 1, m - {after - 1}):")
                depth, fail = depth + 1, "continue"
            emit(f"v{j} = prefix[p{j} - 1]")
            bounds(j, lo, hi, True, 0)
        prev = f"p{j}"
    if not gap:
        emit("return True")
    return _compile(lines)


def _one_loop(step: tuple, gap: tuple | None, j: int, val: list[str]) -> list[str]:
    """The lines that replace the loop of a plan whose only free step but
    the gap step is the loop `step`, with value j (see `_kernel`)."""
    lo, hi = val[step[2]], val[step[3]]
    seen, lines = "~rest", []
    if gap:
        gref, gdelta, glo, ghi, _ = gap
        if gref == j:  # every other rank is pinned, so the gap's is L's plus or minus one
            seen, lo, hi = ("~rest & rest >> 1", lo, f"{hi} - 1") if gdelta > 0 else (
                "~rest & rest << 1", f"{lo} + 1", hi)
        elif gref >= 0:
            if gref > 0:
                lines.append(f"v{j + 1} = {val[gref]}{gdelta:+d}")
            cond = _window(val, j + 1, glo, ghi, gref <= 1, gdelta, skip=j)
            lines.append(f"if not ({cond + ' and ' * bool(cond)}rest >> {val[j + 1]} & 1): return False")
            lo, hi = (val[j + 1], hi) if ghi == j else (lo, val[j + 1]) if glo == j else (lo, hi)
        elif ghi == j:
            lines += [f"low = rest & -(2 << {val[glo]})", "if not low: return False",
                      "lo = (low & -low).bit_length() - 1"]
            lo = "lo"
        elif glo == j:
            lines.append(f"hi = (rest & ((1 << {val[ghi]}) - 1)).bit_length() - 1")
            hi = "hi"
        else:
            lines.append(f"if not rest & ((1 << {val[ghi]}) - (2 << {val[glo]})): return False")
    guard = f"{lo} < {hi} and " if (lo, hi) != (val[step[2]], val[step[3]]) else ""
    lines.append(f"if {guard}{seen} & ((1 << {hi}) - (2 << {lo})): return True")
    return ["    " + line for line in lines]


def _window(val: list[str], j: int, lo: int, hi: int, inside: bool, delta: int,
            skip: int = -1) -> str:
    """`lo < j < hi` over the values' names, as source, less the bounds
    that always hold and any by value `skip`, or '' if none is left. A value
    inside 1..n (a letter read from the word, or a value that Y ties to 0 or
    n+1) needs no bound by 0 or top. A value that Y ties to a placed one
    (delta, its offset, is nonzero) needs none on that one's side: its
    neighbour there is in its own run, so lies below (or above) it."""
    below = (lo > 0 or not inside) and delta <= 0 and lo != skip
    above = (hi > 1 or not inside) and delta >= 0 and hi != skip
    return " < ".join([val[lo]] * below + [val[j]] + [val[hi]] * above) if below or above else ""


def _compile(lines: list[str]) -> Callable[..., bool]:
    namespace = {"__builtins__": {"range": range}}
    exec("\n".join(lines + ["    return False"]), namespace)
    return namespace.pop("ends_at")


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


def _signature(letters: Word, n: int) -> tuple[Word, int]:
    """The standardization p of a position subset's letters and the bits of
    its Y-set: the y in 0..k with j_{y+1} = j_y + 1, where j_1 < ... < j_k
    are the letters sorted, j_0 = 0 and j_{k+1} = n+1."""
    ranks = sorted(letters)
    js = (0, *ranks, n + 1)
    return (tuple([ranks.index(v) + 1 for v in letters]),
            _bits(y for y in range(len(letters) + 1) if js[y + 1] == js[y] + 1))


def mask_table(k: int, entries: Iterable[tuple[Word, int, int, int]]) -> dict[Word, list[int]]:
    """The table `signature_masks` reads, for patterns of length k given as
    (p, X bits, Y bits, pattern bit): p -> the list over xs * 2^(k+1) + ys
    of the OR of the bits of the patterns of that p whose X lies within xs
    and Y within ys. Each list is filled by ORing every cell into the cells
    above it, one bit of the index at a time.

    >>> mask_table(0, [((), 1, 0, 1 << 0), ((), 0, 0, 1 << 1)])
    {(): [2, 2, 3, 3]}
    """
    side = 1 << (k + 1)
    table: dict[Word, list[int]] = {}
    for p, x, y, bit in entries:
        table.setdefault(p, [0] * side * side)[x * side + y] |= bit
    for cells in table.values():
        for b in range(2 * (k + 1)):
            step = 1 << b
            for lo in range(0, side * side, 2 * step):
                for i in range(lo + step, lo + 2 * step):
                    cells[i] |= cells[i - step]
    return table


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
    x, y = _bits(pat.x), _bits(pat.y)
    out = []
    for comb, xs in _position_subsets(len(w), pat.k):
        if not x & ~xs:
            p, ys = _signature(tuple([w[i] for i in comb]), len(w))
            if p == pat.p and not y & ~ys:
                out.append(tuple([i + 1 for i in comb]))
    return out


def occurrence_masks(pats: Sequence[BivincularPattern], n: int) -> Iterator[int]:
    """For each permutation of 1..n in lex order, the mask whose bit i is set
    iff pats[i] occurs in it; the patterns all have one length k.

    >>> list(occurrence_masks([pattern((1, 2)), pattern((2, 1), x=[1])], 3))
    [1, 3, 3, 3, 3, 2]
    """
    k = pats[0].k if pats else 0
    if any(pat.k != k for pat in pats):
        raise ValueError("the patterns must all have one length")
    table = mask_table(k, ((pat.p, _bits(pat.x), _bits(pat.y), 1 << i) for i, pat in enumerate(pats)))
    return signature_masks(table, k, n)


def signature_masks(table: dict[Word, list[int]], k: int, n: int) -> Iterator[int]:
    """`occurrence_masks` of the patterns of length k in `table` (see
    `mask_table`), built once by a caller that asks at several degrees.

    Each k-subset of positions is read for its signature: its letters'
    standardization p, its X-set and its Y-set. A pattern occurs at the
    subset exactly when it has that p and its X and Y lie within those sets,
    so the subset's mask is one cell of the table. The mask of every
    signature met is memoised by (X-set, letters), so a word costs C(n, k)
    lookups.
    """
    subsets = _position_subsets(n, k)
    side = 1 << (k + 1)
    memo: dict[tuple[int, Word], int] = {}
    for w in permutations(range(1, n + 1)):
        mask = 0
        for comb, xs in subsets:
            letters = tuple([w[i] for i in comb])
            hit = memo.get((xs, letters))
            if hit is None:
                p, ys = _signature(letters, n)
                cells = table.get(p)
                hit = memo[xs, letters] = cells[xs * side + ys] if cells else 0
            mask |= hit
        yield mask


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
    first, last, ends_at, *_ = check
    posv = [0] * (n + 1)
    for i, v in enumerate(w, start=1):
        posv[v] = i
    rest = _bits(w[first - 1:])  # the letters from position m on, as the walks pass them
    for m in range(first, last + 1):
        if ends_at(m, w, posv, n + 1, rest):
            return True
        rest ^= 1 << w[m - 1]
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


class PatternCodes:
    """The k! * 4^(k+1) patterns of length k as the integers 0..count-1, so
    that many patterns can be reduced by symmetry without building them.

    (p, X, Y) has code (a * s + b) * s + c, where s = 2^(k+1), a is the index
    of p among the permutations of 1..k in lex order, and b and c are the
    ranks of X and Y among the subsets of 0..k ordered by their sorted
    tuples. Codes thus order patterns as (p, sorted X, sorted Y) do. The
    symmetries and the shift act on codes through tables built from their
    definitions on patterns (`pat_reverse`, `pat_complement`, `pat_inverse`,
    `pat_shift`).

    >>> codes = PatternCodes(2)
    >>> [str(codes.pattern(code)) for code in (0, 1, 2, codes.count - 1)]
    ['12;x=;y=', '12;x=;y=0', '12;x=;y=0,1', '21;x=2;y=2']
    >>> str(codes.pattern(codes.image(2, "ri"))), str(codes.pattern(codes.shift(2)))
    ('21;x=0,1;y=', '12;x=;y=1,2')
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.perms = list(permutations(range(1, k + 1)))
        index = {p: a for a, p in enumerate(self.perms)}
        #: rank -> the bits of the subset of 0..k with that rank
        self.bits = sorted(range(1 << (k + 1)), key=lambda b: _members(b, k))
        rank = {b: r for r, b in enumerate(self.bits)}
        self.side = len(self.bits)
        self.count = len(self.perms) * self.side ** 2
        # rot[t]: rank -> rank of the subset's members plus t, mod k+1.
        rot = [[rank[_bits((v + t) % (k + 1) for v in _members(b, k))] for b in self.bits]
               for t in range(k + 1)]
        self._flip = [rank[_bits(k - v for v in _members(b, k))] for b in self.bits]
        self._reverse = [index[reverse(p)] for p in self.perms]
        self._complement = [index[complement(p)] for p in self.perms]
        self._inverse = [index[inverse(p)] for p in self.perms]
        # The shift: p + 1, X rotated by minus the position of k in p, and Y by 1.
        self._shift = [(index[oplus(p, 1)], rot[k - p.index(k)]) for p in self.perms] if k else []
        self._shift_y = rot[1 % (k + 1)]

    def _split(self, code: int) -> tuple[int, int, int]:
        ab, c = divmod(code, self.side)
        return (*divmod(ab, self.side), c)

    def triple(self, code: int) -> tuple[Word, int, int]:
        """(p, X bits, Y bits) of a code."""
        a, b, c = self._split(code)
        return self.perms[a], self.bits[b], self.bits[c]

    def pattern(self, code: int) -> BivincularPattern:
        p, x, y = self.triple(code)
        return BivincularPattern(p, frozenset(_members(x, self.k)), frozenset(_members(y, self.k)))

    def image(self, code: int, ops: str) -> int:
        """The code of `apply_symmetry` of the code's pattern."""
        a, b, c = self._split(code)
        for op in ops:
            if op == "r":
                a, b = self._reverse[a], self._flip[b]
            elif op == "c":
                a, c = self._complement[a], self._flip[c]
            else:
                a, b, c = self._inverse[a], c, b
        return (a * self.side + b) * self.side + c

    def rank_in_y(self, code: int) -> bool:
        """Whether k >= 1 and k lies in Y, the hypothesis under which the
        shift keeps toric class-closed counts."""
        return bool(self.k and self.bits[code % self.side] >> self.k & 1)

    def shift(self, code: int) -> int:
        """The code of `pat_shift` of the code's pattern, for k >= 1."""
        a, b, c = self._split(code)
        a, shift_x = self._shift[a]
        return (a * self.side + shift_x[b]) * self.side + self._shift_y[c]


def all_patterns(k: int) -> Iterator[BivincularPattern]:
    """Every bivincular pattern of length k: k! * 4^(k+1) of them, in a fixed order."""
    ground = list(range(k + 1))
    subsets = [frozenset(v for v in ground if mask >> v & 1) for mask in range(1 << (k + 1))]
    for p in permutations(range(1, k + 1)):
        for x in subsets:
            for y in subsets:
                yield BivincularPattern(p, x, y)

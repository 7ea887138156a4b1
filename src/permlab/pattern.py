"""Bivincular patterns, the occurrence test, and the patterns' symmetries.

A bivincular pattern is a triple (p, X, Y): a classical pattern p of length k
plus adjacency constraints X, Y subsets of {0..k}. An occurrence in a word w of
length n is an index tuple i_1 < ... < i_k whose letters are order-isomorphic
to p, subject to

    x in X  =>  i_{x+1} = i_x + 1   with the conventions i_0 = 0, i_{k+1} = n+1
    y in Y  =>  j_{y+1} = j_y + 1   where j_1 < ... < j_k are the occurrence
                                    values, j_0 = 0, j_{k+1} = n+1

so 0 and k in X (resp. Y) pin the occurrence to the ends of the position
(resp. value) range. With X = Y = {} this is the classical notion.

A pattern is compiled once, into a plan (`_tail`) that finds, for a given
position m, the values whose placing at m ends an occurrence. The last slot
searched, the new letter at m, is the unknown: the slots chained to it by X
are pinned to the positions before m, the others are searched left to
right, and the new letter's value is then bounded by its rank neighbours.
Y partitions the ranks into runs of consecutive values, and once one rank
of a run is placed every other rank's value is known. Each distinct plan is
compiled once more, into a kernel (`_kernel`): a Python function of nested
loops with the plan's constants inlined, which returns the bitmask of those
values, where a plan's one loop becomes a bitmask of the values it ranges
over and an innermost loop that seeks an extreme becomes a running one.
One kernel serves both callers: `matches` tries the letter at each end
position of a whole word, and the walks of `permlab.generate` try every
child of each prefix they grow at once. `occurrences` lists the position
subsets whose signature (standardized letters, X-set and Y-set) admits the
pattern, and `signature_masks` reads the signatures of each word of S_n,
one per letter tuple met, to test many patterns of one length at once,
against a table (`mask_table`) that a survey builds once for all its
degrees. `occurrence_total` counts a pattern's occurrences over all of S_n
without a walk, which bounds the number of words containing it.

The symmetries of Bousquet-Melou, Claesson, Dukes and Kitaev (JCTA 117,
2010) act on patterns of length k as (p, X, Y)^r = (p^r, k - X, Y),
(p, X, Y)^c = (p^c, X, k - Y) and (p, X, Y)^i = (p^-1, Y, X). A survey
applies them only to integer codes: `PatternCodes` numbers the patterns of
one length so that a survey maps all of them by a symmetry at once, with
one table composed from the tables of the patterns' parts, and builds a
pattern only for each row's name. `pat_shift`, the toric shift on
patterns, gives the toric pattern classes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .core import Word, check_perm, complement, format_perm, inverse, oplus, parse_perm, reverse
from .errors import ParseError
from .records import FrozenRecord

Occurrence = tuple[int, ...]


@lru_cache(maxsize=None)
def _slots(k: int) -> frozenset[int]:
    """The slots 0..k that X and Y of a pattern of length k may name."""
    return frozenset(range(k + 1))


class BivincularPattern(FrozenRecord):
    """The triple (p, X, Y). Immutable and hashable: patterns with equal
    fields are equal, and assigning to a field raises AttributeError."""

    __slots__ = ("p", "x", "y")

    def __init__(self, p: Sequence[int], x: Iterable[int] = frozenset(),
                 y: Iterable[int] = frozenset()) -> None:
        p, x, y = check_perm(p), frozenset(x), frozenset(y)
        k = len(p)
        if not x | y <= _slots(k):
            raise ParseError(f"adjacency sets must lie in 0..{k}")
        self._freeze(p, x, y)

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
    return f"{format_perm(pat.p)};x={_set_text(pat.x)};y={_set_text(pat.y)}"


@lru_cache(maxsize=1024)
def _set_text(members: frozenset[int]) -> str:
    """An adjacency set as `format_pattern` writes it. A survey of length k
    formats at most 2^(k+1) distinct sets, so its rows reuse the text."""
    return ",".join(map(str, sorted(members)))


def _bits(members: Iterable[int]) -> int:
    return sum(1 << v for v in members)


def _members(bits: int, k: int) -> list[int]:
    """The members of a subset of 0..k given by its bits, increasing."""
    return [v for v in range(k + 1) if bits >> v & 1]


class _Tail:
    """Plan for finding, at a given position m, the values of the new letter
    there that end an occurrence.

    The new letter N is the last slot searched in the prefix (for a gap
    plan, the slot before the last). Values are numbered: 0 is the virtual
    rank 0 (value 0), 1 the virtual rank k+1 (value n+1), and 2+j the value
    of the j-th slot placed. The slots are placed in this order: first the
    slots chained to N by X, each pinned to a known position counted back
    from m - 1, then the remaining slots left to right, then N, whose value
    is the unknown. Each step names the values bounding it from below and
    above (the nearest ranks already placed) and, when its Y-run already
    holds a placed rank, the value it is offset from (ref, or -1) and by how
    much (delta). N's bounds are thus its rank neighbours among the other
    slots.

    A gap plan is for a position-free pattern: k >= 2 and its last slot L is
    neither chained to the slot before it nor pinned to position n. Its
    steps then find an occurrence of the first k-1 slots ending at m, and a
    last step, `gap`, takes L's value from the values still unplaced: any
    later position can hold it.
    """

    __slots__ = ("pinned", "free", "new", "gap", "fixed_start", "at_end", "fills_values")

    def __init__(self, pinned: tuple[tuple[int, int, int, int], ...],
                 free: tuple[tuple[int, int, int, int, bool], ...], new: tuple[int, int, int, int],
                 gap: tuple[int, int, int, int] | None, fixed_start: bool, at_end: bool,
                 fills_values: bool) -> None:
        self.pinned = pinned              # (ref, delta, lo, hi) per step, at m-1, m-2, ...
        self.free = free                  # (ref, delta, lo, hi, chain) per step, left to right
        self.new = new                    # (ref, delta, lo, hi) of N, at m
        self.gap = gap                    # (ref, delta, lo, hi) of L, or None if not a gap plan
        self.fixed_start = fixed_start    # the slots searched in the prefix are chained from position 1
        self.at_end = at_end              # k in X: the last slot sits at position n
        self.fills_values = fills_values  # Y holds 0..k: the occurrence's values are 1..n


@lru_cache(maxsize=None)
def _tail(pat: BivincularPattern) -> _Tail:
    k, p, x = pat.k, pat.p, pat.x
    gap = k >= 2 and k - 1 not in x and k not in x
    end = k - gap  # the slots searched in the prefix; N is the last of them
    npinned = 1
    while npinned < end and end - npinned in x:
        npinned += 1
    order = [*range(end - 2, end - 1 - npinned, -1), *range(end - npinned), end - 1, *[k - 1] * gap]
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
        steps.append((ref, rank - rank0, lo, hi, s in x))
    return _Tail(
        pinned=tuple(step[:4] for step in steps[:npinned - 1]),
        free=tuple(steps[npinned - 1:end - 1]),
        new=steps[end - 1][:4],
        gap=steps[end][:4] if gap else None,
        fixed_start=npinned == end and 0 in x,
        at_end=k in x,
        fills_values=run[0] == run[k + 1],
    )


def _reads_rest_only(tail: _Tail) -> bool:
    """Whether the plan's kernel reads only m, top and rest, never `prefix`
    or `posv`: it pins no step, and has no free step or one loop, which
    becomes the bitmask of the placed values (see `_one_loop`)."""
    free = tail.free
    return not tail.pinned and (not free or len(free) == 1 and free[0][0] < 0 and free[0][4] is False)


def _check(pat: BivincularPattern, n: int) -> tuple[int, int, Callable[..., int], int] | None:
    """(first, last, kernel, decider) for a search of pat in a word of
    length n, or None when pat, of length k >= 1, cannot occur there. The
    search can end at the positions first..last: where an occurrence ends
    or, for a gap plan, where its first k-1 slots end. The kernel, called
    for a position m, gives the values whose placing there ends one (see
    `_kernel`). When Y ties the new letter to 0 or n+1, its letter, the
    kernel's mask holds at most that value.

    `decider` is the deciding value, or 0 if there is none: the letter, or
    else the value of a gap plan's last slot L when Y ties it to 0 or n+1.
    Every occurrence holds it at the new letter or, for L, after the
    position of the new letter; so once it is placed at position m, pat
    occurs in every completion if the kernel's mask held a letter placed at
    m or before, and in none otherwise."""
    k = pat.k
    if k == 0 or k > n:
        return None
    tail = _tail(pat)
    gap = tail.gap is not None
    first = n if tail.at_end else k - gap
    last = k - gap if tail.fixed_start else n - gap
    if first > last or (tail.fills_values and n != k):
        return None
    ref, delta = tail.new[:2]
    letter = (0, n + 1)[ref] + delta if 0 <= ref <= 1 else 0
    gref, gdelta = tail.gap[:2] if gap else (-1, 0)
    decider = letter or ((0, n + 1)[gref] + gdelta if 0 <= gref <= 1 else 0)
    return first, last, _kernel(tail.pinned, tail.free, tail.new, tail.gap), decider


@lru_cache(maxsize=None)
def _kernel(pinned: tuple, free: tuple, new: tuple, gap: tuple | None) -> Callable[..., int]:
    """The plan compiled into `kill(m, prefix, posv, top, rest)`: the bitmask
    of the values v such that v at position m of `prefix` ends an
    occurrence (for a gap plan, one of all slots but the last, L, that
    leaves L an unplaced value other than v, so that every completion holds
    one). Only the bits of `rest`, the values at positions m..n, the
    unplaced ones, are defined. `posv` maps the letters at positions before
    m to their positions and the values of `rest` to 0 or to positions from
    m on; top is n+1. Letters at m and after are never read. The letters
    pinned to positions m-1, m-2, ... are values of the occurrence sought,
    so they bound every window the kernel tests and never lie inside one.

    Value j is the local v<j> (values 0 and 1 are 0 and top), p<j> its
    position; a value that Y ties to 0 is its constant instead. A free step
    loops over the positions after the last step's unless X chains it or Y
    links it; a failed test goes on to the innermost loop's next position.
    The new letter N, last, adds to the mask the values its placing admits
    (see `_new_letter`), the union over every placing of the other slots.
    The source holds only the plan's integers, and no comparison that
    always holds (see `_window`). A threshold of N's window that reads only
    `rest` and values known above the first loop is computed there, once
    per call (see `_narrow`). Two shapes of plan compile to fewer loops:

    - When the only free step is a loop, J, it ranges over every position
      before the pinned slots, whose letters are the placed values less the
      pinned ones, which lie outside J's window. The loop becomes the
      bitmask of J's values, the complement of `rest` inside J's window
      (see `_one_loop`).
    - When the last two free steps, E and J, are loops, and the gap test
      reads J only as the upper end of its window while J is bounded only
      from below and is not N's lower neighbour (or only as the lower end
      while J is bounded only from above and is not N's upper neighbour),
      J's best letter is the greatest (least) of its positions: a greater
      (lesser) one widens every window it bounds. E then loops right to
      left, and each of its positions adds the next letter to a running
      extreme that stands for J.
    """
    j_new = 2 + len(pinned) + len(free)
    # A step's value that Y ties to 0 is a constant, named by itself.
    val = ["0", "top"] + [f"v{j}" for j in range(2, 2 + len(pinned))] + [
        str(step[1]) if step[0] == 0 else f"v{j}"
        for j, step in enumerate((*free, new, gap or (-1,)), 2 + len(pinned))]
    lines = ["def kill(m, prefix, posv, top, rest):"]
    depth, fail, prev = 1, "return 0", "0"

    def emit(*new_lines: str) -> None:
        lines.extend("    " * depth + line for line in new_lines)

    def bounds(j: int, lo: int, hi: int, inside: bool, delta: int) -> None:
        cond = _window(val, j, lo, hi, inside, delta)
        if cond:
            emit(f"if not {cond}: {fail}")

    for j, (ref, delta, lo, hi) in enumerate(pinned, start=2):
        emit(f"v{j} = prefix[m - {j}]")
        if ref >= 0:
            emit(f"if v{j} != {val[ref]}{delta:+d}: {fail}")
        bounds(j, lo, hi, True, delta)
    loops = [ref < 0 and chain is False for ref, *_, chain in free[-2:]]
    if loops == [True]:
        return _compile(lines + _one_loop(free[0], new, gap, val, j_new - 1))
    looped = any(ref < 0 and chain is False for ref, *_, chain in free)
    if looped:
        emit("kill = 0")
    # Lines hoisted out of the loops go in at lines[loop_at], just above the
    # first loop, where the values below index `fixed` are known.
    loop_at = fixed = 0
    extreme = None
    if gap and gap[0] < 0 and loops == [True, True] and new[0] != j_new - 1:
        if gap[3] == j_new - 1 and free[-1][3] == 1 and new[2] != j_new - 1:
            extreme = ("0", ">")
        elif gap[2] == j_new - 1 and free[-1][2] == 0 and new[3] != j_new - 1:
            extreme = ("top", "<")
    after = len(pinned) + 1 + len(free)
    for j, (ref, delta, lo, hi, chain) in enumerate(free, start=2 + len(pinned)):
        after -= 1  # the positions of the later steps: this one's is at most m - after
        if ref > 0:
            emit(f"v{j} = {val[ref]}{delta:+d}")
        if ref >= 0:
            bounds(j, lo, hi, ref <= 1, delta)
            emit(f"p{j} = posv[{val[j]}]", f"if p{j} != {prev} + 1 or p{j} > m - {after}: {fail}" if chain
                 else f"if not {prev} < p{j} <= m - {after}: {fail}")
        elif extreme and j == j_new - 1:  # J, read from the running extreme
            bounds(j, lo, hi, True, 0)
        else:
            if not chain and not fixed:
                loop_at, fixed = len(lines), j
            if extreme and j == j_new - 2:  # E, whose positions give J one more letter each
                start, better = extreme
                emit(f"v{j_new - 1} = {start}", f"for p{j} in range(m - {after}, {prev}, -1):")
                depth, fail = depth + 1, "continue"
                emit(f"if prefix[p{j}] {better} v{j_new - 1}: v{j_new - 1} = prefix[p{j}]")
            elif chain:
                emit(f"p{j} = {prev} + 1", f"if p{j} > m - {after}: {fail}")
            else:
                emit(f"for p{j} in range({prev} + 1, m - {after - 1}):")
                depth, fail = depth + 1, "continue"
            emit(f"v{j} = prefix[p{j} - 1]")
            bounds(j, lo, hi, True, 0)
        prev = f"p{j}"
    hoisted: list[str] = []
    tests, mask = _new_letter(new, gap, val, j_new, fail, hoist=(hoisted, fixed) if looped else None)
    emit(*tests, f"kill |= {mask}" if looped else f"return {mask}")
    lines[loop_at:loop_at] = ["    " + line for line in hoisted]
    return _compile(lines + ["    return kill"] * looped)


def _new_letter(new: tuple, gap: tuple | None, val: list[str], j: int, fail: str,
                tied: str = "", hoist: tuple[list[str], int] | None = None) -> tuple[list[str], str]:
    """The tests of the new letter N (value j) and of the gap step L, once
    every other value is known, and the mask of N's values they leave: N's
    one value when Y ties it to a known one, else the open interval between
    its rank neighbours, as a gap test that reads N narrows it (see
    `_narrow`, which `hoist` is passed on to). A gap test that does not read
    N is made first. `tied`, if given, is the mask of the values Y ties N to
    (see `_one_loop`); N's window then bounds it on the side away from
    them."""
    ref, delta, lo, hi = new
    lines: list[str] = []
    if gap and j not in (gap[0], *gap[2:]):
        lines += _gap_test(gap, val, fail)
        gap = None
    if ref >= 0 and not tied:  # N's one value
        if ref > 0:
            lines.append(f"v{j} = {val[ref]}{delta:+d}")
        cond = _window(val, j, lo, hi, ref <= 1, delta)
        if cond:
            lines.append(f"if not {cond}: {fail}")
        return lines + (_gap_test(gap, val, fail) if gap else []), f"1 << {val[j]}"
    base = (val[lo] if delta <= 0 else "0", val[hi] if delta >= 0 else "top")
    low, high = base
    if gap:
        tests, low, high, shifted = _narrow(gap, val, j, low, high, fail, hoist=hoist)
        lines += tests
        tied = tied or shifted
    if (low, high) != base:
        lines.append(f"if {low} >= {high}: {fail}")
    window = f"((1 << {high}) - (2 << {low}))"
    if not tied:
        return lines, window
    return lines, tied if (low, high) == ("0", "top") else f"{window} & {tied}"


def _narrow(gap: tuple, val: list[str], j: int, low: str, high: str, fail: str,
            skip: int = -1, hoist: tuple[list[str], int] | None = None) -> tuple[list[str], str, str, str]:
    """The tests the gap step L makes first, value j's window (low, high)
    as L narrows it, and the mask that L's value adds, for an L that reads
    j. When Y ties L's value to j's, that value is j's plus an offset and
    must be unplaced, so j's values are those of `rest` shifted back, and
    L's far bound, unless it is value `skip`, bounds j too. When L's value
    is known, it bounds j. Otherwise j is an end of L's window: j needs
    the least value of `rest` above L's lower end below it, or the greatest
    value of `rest` under L's upper end above it. `rest` never holds 0 or
    top. That threshold reads only `rest` and L's other end; `hoist`, if
    given, is (lines, fixed) for a kernel with loops, and a threshold whose
    other end is a constant or a value below index `fixed`, known above the
    first loop, goes to those lines instead, returning 0 where it fails."""
    gref, gdelta, glo, ghi = gap
    if gref == j:
        if gdelta > 0:
            return [], low, high if ghi == skip else f"{val[ghi]} - {gdelta}", f"rest >> {gdelta}"
        return [], low if glo == skip else f"{val[glo]} + {-gdelta}", high, f"rest << {-gdelta}"
    if gref >= 0:
        ends = (val[-1], high) if ghi == j else (low, val[-1])
        return _gap_test(gap, val, fail, skip=j), *ends, ""
    end = glo if ghi == j else ghi  # L's other end
    lift = hoist is not None and (end < hoist[1] or val[end].isdigit())
    if lift:
        fail = "return 0"
    if ghi == j:
        least = f"rest & -(2 << {val[glo]})" if glo else "rest"
        tests = [f"low = {least}", f"if not low: {fail}", "lo = (low & -low).bit_length() - 1"]
        ends = ("lo", high)
    else:
        below = f"(rest & ((1 << {val[ghi]}) - 1))" if ghi != 1 else "rest"
        tests, ends = [f"hi = {below}.bit_length() - 1"], (low, "hi")
    if lift:
        hoist[0].extend(tests)
        tests = []
    return tests, *ends, ""


def _gap_test(gap: tuple, val: list[str], fail: str, skip: int = -1) -> list[str]:
    """The test that the gap step L, the last value, leaves L an unplaced
    value: its value, when Y ties it to a known one, lies in `rest` and in
    its window (less the bounds by value `skip`), or else `rest` meets its
    window."""
    ref, delta, lo, hi = gap
    if ref < 0:
        return [f"if not rest & ((1 << {val[hi]}) - (2 << {val[lo]})): {fail}"]
    j = len(val) - 1
    cond = _window(val, j, lo, hi, ref <= 1, delta, skip)
    return [f"v{j} = {val[ref]}{delta:+d}"] * (ref > 0) + [
        f"if not ({cond + ' and ' * bool(cond)}rest >> {val[j]} & 1): {fail}"]


def _one_loop(step: tuple, new: tuple, gap: tuple | None, val: list[str], j: int) -> list[str]:
    """The lines that replace the loop of a plan whose only free step is the
    loop `step`, with value j (see `_kernel`): `seen`, the bitmask of its
    values, the placed values inside its window, as a gap test that reads J
    but not N narrows it (see `_narrow`). Then the union over J's values of
    the mask `_new_letter` leaves is that mask at the least of them when J
    is N's lower neighbour, at the greatest when it is the upper one, `seen`
    shifted when Y ties N to J, and the mask itself when N does not read
    J."""
    lo, hi = val[step[2]], val[step[3]]
    seen, lines = "~rest", []
    reads = (gap[0], *gap[2:]) if gap else ()
    if j in reads and (j + 1 not in reads or gap[0] == j):
        lines, lo, hi, shifted = _narrow(gap, val, j, lo, hi, "return 0", skip=j + 1)
        seen += f" & {shifted}" * bool(shifted)
        if gap[0] != j or new[0] == j or j + 1 not in gap[2:]:  # L's bound by N, if any, always holds
            gap = None
    if (lo, hi) != (val[step[2]], val[step[3]]):
        lines.append(f"if {lo} >= {hi}: return 0")
    lines.append(f"seen = {seen} & ((1 << {hi}) - (2 << {lo}))")
    ref, delta = new[:2]
    if ref == j:
        tied = f"seen << {delta}" if delta > 0 else f"seen >> {-delta}"
        tests, mask = _new_letter(new, gap, val, j + 1, "return 0", tied)
    else:
        lines.append("if not seen: return 0")
        if new[2] == j:
            lines.append(f"{val[j]} = (seen & -seen).bit_length() - 1")
        elif new[3] == j:
            lines.append(f"{val[j]} = seen.bit_length() - 1")
        tests, mask = _new_letter(new, gap, val, j + 1, "return 0")
    return ["    " + line for line in lines + tests + [f"return {mask}"]]


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


def _compile(lines: list[str]) -> Callable[..., int]:
    namespace = {"__builtins__": {"range": range}}
    exec("\n".join(lines), namespace)
    return namespace.pop("kill")


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
        cells = table.get(p)
        if cells is None:
            cells = table[p] = [0] * side * side
        cells[x * side + y] |= bit
    for cells in table.values():
        for b in range(2 * (k + 1)):
            step = 1 << b
            if step < side:  # a Y bit: one slice per offset, striding over the blocks
                for j in range(step):
                    cells[step + j::2 * step] = map(or_, cells[step + j::2 * step], cells[j::2 * step])
            else:  # an X bit: one run of cells per block
                for lo in range(0, side * side, 2 * step):
                    cells[lo + step:lo + 2 * step] = map(or_, cells[lo + step:lo + 2 * step], cells[lo:lo + step])
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


def occurrence_total(pat: BivincularPattern, n: int) -> int:
    """The number of pairs (w in S_n, occurrence of pat in w).

    An occurrence places p on positions that X admits and values that Y
    admits, and the other n - k letters fill the rest in (n - k)! ways, so
    the total is N(X) * N(Y) * (n - k)!, and 0 when k > n. N(A) counts the
    k-subsets e_1 < ... < e_k of 1..n with e_{a+1} = e_a + 1 for each a in
    A, where e_0 = 0 and e_{k+1} = n+1: the n - k unused places fall into
    the f = k + 1 - |A| gaps that A leaves free, in C(n - k + f - 1, f - 1)
    ways, or, when f = 0, in one way if n = k and none otherwise.

    >>> occurrence_total(pattern((1, 2, 3)), 5)  # C(5, 3)^2 * 2!
    200
    >>> occurrence_total(pattern((2, 1), x=[1], y=[0, 2]), 5)  # (n - 1)!
    24
    >>> occurrence_total(pattern((1,), x=[0, 1]), 2), occurrence_total(pattern((1, 2)), 1)
    (0, 0)
    """
    k = pat.k
    if k > n:
        return 0

    def admitted(adj: frozenset[int]) -> int:
        free = k + 1 - len(adj)
        return math.comb(n - k + free - 1, free - 1) if free else int(n == k)

    return admitted(pat.x) * admitted(pat.y) * math.factorial(n - k)


def signature_masks(table: dict[Word, list[int]], k: int, n: int) -> Iterator[int]:
    """For each permutation of 1..n in lex order, the OR of the pattern bits
    of the patterns of length k in `table` (see `mask_table`) that occur in
    it. The table is built once by a caller that asks at several degrees.

    Each k-subset of positions is read for its signature: its letters'
    standardization p, its X-set and its Y-set. A pattern occurs at the
    subset exactly when it has that p and its X and Y lie within those sets,
    so the subset's mask is one cell of the table. p and the Y-set depend on
    the letters alone, so the signature is computed once per letter tuple
    met, which is memoised with its cells for every X-set: a word costs
    C(n, k) lookups.

    >>> table = mask_table(2, [((1, 2), 0, 0, 1 << 0), ((2, 1), 1 << 1, 0, 1 << 1)])
    >>> list(signature_masks(table, 2, 3))  # 12, and 21;x=1
    [1, 3, 3, 3, 3, 2]
    """
    subsets = _position_subsets(n, k)
    side = 1 << (k + 1)
    missing = [0] * side
    memo: dict[Word, list[int]] = {}  # letters -> X bits -> mask
    for w in permutations(range(1, n + 1)):
        mask = 0
        for comb, xs in subsets:
            letters = tuple([w[i] for i in comb])
            row = memo.get(letters)
            if row is None:
                p, ys = _signature(letters, n)
                cells = table.get(p)
                row = memo[letters] = cells[ys::side] if cells else missing
            mask |= row[xs]
        yield mask


def matches(pat: BivincularPattern, pi: Sequence[int]) -> bool:
    """True iff pat occurs in pi: at some position m of the plan's window,
    the kernel's mask holds the letter at m, so an occurrence ends there
    or, for a gap plan, an occurrence of its first k-1 slots ends there and
    a later letter fits its last slot."""
    w = tuple(pi)
    n = len(w)
    if pat.k == 0:
        return _empty_pattern_occurs(pat, n)
    check = _check(pat, n)
    if check is None:
        return False
    first, last, kill, _ = check
    posv = [0] * (n + 1)
    for i, v in enumerate(w, start=1):
        posv[v] = i
    rest = _bits(w[first - 1:])  # the letters from position m on, as the walks pass them
    for m in range(first, last + 1):
        if kill(m, w, posv, n + 1, rest) >> w[m - 1] & 1:
            return True
        rest ^= 1 << w[m - 1]
    return False


def avoids(pat: BivincularPattern, pi: Sequence[int]) -> bool:
    """True iff pat does not occur in pi."""
    return not matches(pat, pi)


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
    symmetries r, c and i (see the module docstring) act on p's index and,
    apart from it, on the pair (b, c): k - X on one rank, or the swap of the
    two. A composition's tables on the two parts (`parts`, k! and 4^(k+1)
    entries) are made once and kept, and give each code's least orbit member
    a block of codes at a time (`least`); no list as long as the code count
    is kept. Every table is a tuple, so one instance can serve every caller.
    The shift acts through tables of `pat_shift`'s parts. A pattern is built
    from the parts' tuples and frozensets, made once.

    >>> codes = PatternCodes(2)
    >>> [str(codes.pattern(code)) for code in (0, 1, 2, codes.count - 1)]
    ['12;x=;y=', '12;x=;y=0', '12;x=;y=0,1', '21;x=2;y=2']
    >>> perm_of, pair_of = codes.parts("ri")  # code 2 is (0 * 8 + 0) * 8 + 2
    >>> str(codes.pattern(perm_of[0] * 64 + pair_of[2])), str(codes.pattern(codes.shift(2)))
    ('21;x=0,1;y=', '12;x=;y=1,2')
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.perms = tuple(permutations(range(1, k + 1)))
        index = {p: a for a, p in enumerate(self.perms)}
        #: rank -> the bits of the subset of 0..k with that rank
        self.bits = tuple(sorted(range(1 << (k + 1)), key=lambda b: _members(b, k)))
        rank = {b: r for r, b in enumerate(self.bits)}
        self._sets = tuple(frozenset(_members(b, k)) for b in self.bits)
        side = self.side = len(self.bits)
        self.count = len(self.perms) * side ** 2
        # rot[t]: rank -> rank of the subset's members plus t, mod k+1.
        rot = [tuple(rank[_bits((v + t) % (k + 1) for v in _members(b, k))] for b in self.bits)
               for t in range(k + 1)]
        flip = [rank[_bits(k - v for v in _members(b, k))] for b in self.bits]
        ranks = range(side)
        # ops -> (its table on p's index, its table on the pair b * side + c),
        # for r, c and i, and for each composition once `parts` has made it
        self._ops = {
            "": (tuple(range(len(self.perms))), tuple(range(side * side))),
            "r": (tuple(index[reverse(p)] for p in self.perms),
                  tuple(flip[b] * side + c for b in ranks for c in ranks)),
            "c": (tuple(index[complement(p)] for p in self.perms),
                  tuple(b * side + flip[c] for b in ranks for c in ranks)),
            "i": (tuple(index[inverse(p)] for p in self.perms),
                  tuple(c * side + b for b in ranks for c in ranks)),
        }
        # The shift: p + 1, X rotated by minus the position of k in p, and Y by 1.
        self._shift = tuple((index[oplus(p, 1)], rot[k - p.index(k)]) for p in self.perms) if k else ()
        self._shift_y = rot[1 % (k + 1)]

    def _split(self, code: int) -> tuple[int, int, int]:
        ab, c = divmod(code, self.side)
        return (*divmod(ab, self.side), c)

    def triple(self, code: int) -> tuple[Word, int, int]:
        """(p, X bits, Y bits) of a code."""
        a, b, c = self._split(code)
        return self.perms[a], self.bits[b], self.bits[c]

    def pattern(self, code: int) -> BivincularPattern:
        a, b, c = self._split(code)
        return BivincularPattern(self.perms[a], self._sets[b], self._sets[c])

    def parts(self, ops: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The tables of `ops`, a composition of r, c and i such as "rc",
        applied left to right: p's index -> its image's, and b * side + c ->
        its image's. The code (a * side + b) * side + c maps to
        perm_of[a] * side^2 + pair_of[b * side + c]."""
        parts = self._ops.get(ops)
        if parts is None:
            perm_of, pair_of = self.parts(ops[:-1])
            perm_table, pair_table = self._ops[ops[-1]]
            parts = self._ops[ops] = (tuple(map(perm_table.__getitem__, perm_of)),
                                      tuple(map(pair_table.__getitem__, pair_of)))
        return parts

    def least(self, symmetries: Iterable[str]) -> list[int]:
        """code -> the least code of its orbit under `symmetries`, a group
        of compositions given as for `parts`. A code's images order as
        their p indices do, then as their pairs, so for the codes of one p
        the least image has its least p index, and among the symmetries
        reaching that, the least image of its pair."""
        tables = [self.parts(ops) for ops in symmetries]
        block = self.side ** 2
        least: list[int] = []
        for a in range(len(self.perms)):
            low = min([perm_of[a] for perm_of, _ in tables])
            pairs = [pair_of for perm_of, pair_of in tables if perm_of[a] == low]
            least += map((low * block).__add__, map(min, *pairs) if len(pairs) > 1 else pairs[0])
        return least

    def rank_in_y(self, code: int) -> bool:
        """Whether k >= 1 and k lies in Y, the hypothesis under which the
        shift keeps toric class-closed counts."""
        return bool(self.k and self.bits[code % self.side] >> self.k & 1)

    def shift(self, code: int) -> int:
        """The code of `pat_shift` of the code's pattern, for k >= 1."""
        a, b, c = self._split(code)
        a, shift_x = self._shift[a]
        return (a * self.side + shift_x[b]) * self.side + self._shift_y[c]

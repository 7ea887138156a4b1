"""Row insertion and RSK, elementary Knuth moves, and hook-length counting.

Tableaux are ragged tuples of row tuples; equality is structural. Knuth moves
act on words of distinct letters through windows of three consecutive letters:
the middle pair swaps when the first letter lies strictly between the other
two, the first pair swaps when the last letter does.
"""

from __future__ import annotations

from bisect import bisect_right
from math import factorial
from typing import Iterator, Sequence

from .core import Word, inverse

Rows = tuple[tuple[int, ...], ...]
Shape = tuple[int, ...]


def insertion_tableau(pi: Sequence[int]) -> Rows:
    """Row insertion tableau P of pi, the Knuth class key; no recording
    tableau is kept.

    >>> insertion_tableau((2, 4, 1, 3))
    ((1, 3), (2, 4))
    """
    rows: list[list[int]] = []
    for cur in pi:
        for row in rows:
            idx = bisect_right(row, cur)
            if idx == len(row):
                row.append(cur)
                break
            row[idx], cur = cur, row[idx]
        else:
            rows.append([cur])
    return tuple(map(tuple, rows))


def rsk(pi: Sequence[int]) -> tuple[Rows, Rows]:
    """Row-insertion RSK: (insertion tableau P, recording tableau Q). Q is
    the insertion tableau of the inverse (Schuetzenberger's symmetry theorem).

    >>> rsk((2, 4, 1, 3))
    (((1, 3), (2, 4)), ((1, 2), (3, 4)))
    """
    return insertion_tableau(pi), insertion_tableau(inverse(pi))


def shape_of(rows: Rows) -> Shape:
    return tuple(len(r) for r in rows)


def format_tableau(rows: Rows) -> str:
    """Rows on separate lines, entries space-separated."""
    return "\n".join(" ".join(str(v) for v in row) for row in rows)


def knuth_neighbors(w: Sequence[int]) -> set[Word]:
    """Words one elementary Knuth move away from w.

    >>> sorted(knuth_neighbors((2, 4, 1, 3, 5)))
    [(2, 1, 4, 3, 5)]
    """
    w = tuple(w)
    out: set[Word] = set()
    for t in range(len(w) - 2):
        a, b, c = w[t], w[t + 1], w[t + 2]
        if min(b, c) < a < max(b, c):
            out.add(w[:t] + (a, c, b) + w[t + 3 :])
        if min(a, b) < c < max(a, b):
            out.add(w[:t] + (b, a, c) + w[t + 3 :])
    out.discard(w)
    return out


def knuth_class(w: Sequence[int]) -> frozenset[Word]:
    """BFS closure of w under elementary Knuth moves."""
    w = tuple(w)
    seen = {w}
    frontier = [w]
    while frontier:
        cur = frontier.pop()
        for nxt in knuth_neighbors(cur):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def check_partition(shape: Sequence[int]) -> Shape:
    shape = tuple(shape)
    if any(a < b for a, b in zip(shape, shape[1:])) or any(p <= 0 for p in shape):
        raise ValueError(f"not a partition: {shape}")
    return shape


def count_syt(shape: Sequence[int]) -> int:
    """Number of standard Young tableaux of the shape, by hook lengths.

    >>> count_syt((2, 2, 2))
    5
    """
    shape = check_partition(shape)
    n = sum(shape)
    denom = 1
    for i, part in enumerate(shape):
        for j in range(part):
            leg = sum(1 for p in shape[i + 1 :] if p > j)
            denom *= part - j + leg
    count, rem = divmod(factorial(n), denom)
    if rem:
        raise ValueError(f"hook product does not divide {n}! for {shape}")
    return count


def partitions(n: int) -> Iterator[Shape]:
    """All partitions of n, largest part first, in lex-decreasing order."""

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return rec(n, n)

"""Permutations in one-line notation, plus the toric shift.

A permutation of S_n is a tuple of ints using each letter of 1..n exactly once.
All functions are pure and all values immutable.
"""

from __future__ import annotations

import math
from itertools import permutations as _permutations
from typing import Iterator, Sequence

from .errors import ParseError

Word = tuple[int, ...]


def check_perm(word: Sequence[int]) -> Word:
    """Validate that ``word`` is a permutation of 1..n and return it as a tuple.

    >>> check_perm([2, 4, 1, 3])
    (2, 4, 1, 3)
    >>> check_perm([2, 2])
    Traceback (most recent call last):
        ...
    permlab.errors.ParseError: not a permutation of 1..2: (2, 2)
    """
    w = tuple(word)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ParseError(f"not a permutation of 1..{len(w)}: {w}")
    return w


def identity(n: int) -> Word:
    """The identity permutation 12...n."""
    return tuple(range(1, n + 1))


def parse_perm(text: str) -> Word:
    """Parse one-line text: a digit string for n <= 9, comma-separated otherwise.

    The empty string denotes the empty permutation.

    >>> parse_perm("2413")
    (2, 4, 1, 3)
    >>> parse_perm("5,10,4,9,3,8,2,7,1,6")[:3]
    (5, 10, 4)
    """
    text = text.strip()
    if not text:
        return ()
    try:
        if "," in text:
            letters = [int(part) for part in text.split(",")]
        else:
            letters = [int(ch) for ch in text]
    except ValueError as exc:
        raise ParseError(f"bad permutation text: {text!r}") from exc
    return check_perm(letters)


def format_perm(word: Sequence[int]) -> str:
    """Inverse of parse_perm: digits when n <= 9, comma-separated otherwise.

    >>> format_perm((2, 4, 1, 3))
    '2413'
    >>> format_perm((5, 10, 4, 9, 3, 8, 2, 7, 1, 6))
    '5,10,4,9,3,8,2,7,1,6'
    """
    if len(word) > 9:
        return ",".join(str(v) for v in word)
    return "".join(str(v) for v in word)


def inverse(pi: Sequence[int]) -> Word:
    """Group inverse.

    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    out = [0] * len(pi)
    for pos, v in enumerate(pi, start=1):
        out[v - 1] = pos
    return tuple(out)


def reverse(pi: Sequence[int]) -> Word:
    """Read the word backwards."""
    return tuple(pi[::-1])


def complement(pi: Sequence[int]) -> Word:
    """Replace each letter v by n+1-v."""
    n = len(pi)
    return tuple(n + 1 - v for v in pi)


def cycles(pi: Sequence[int]) -> tuple[Word, ...]:
    """Disjoint cycles, each rotated to start at its smallest letter,
    listed in order of those leaders.

    >>> cycles((9, 4, 8, 1, 6, 7, 5, 2, 3))
    ((1, 9, 3, 8, 2, 4), (5, 6, 7))
    """
    seen = [False] * len(pi)
    out = []
    for start in range(1, len(pi) + 1):
        if seen[start - 1]:
            continue
        cyc = []
        v = start
        while not seen[v - 1]:
            seen[v - 1] = True
            cyc.append(v)
            v = pi[v - 1]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_type(pi: Sequence[int]) -> Word:
    """Cycle lengths, weakly decreasing.

    >>> cycle_type((9, 4, 8, 1, 6, 7, 5, 2, 3))
    (6, 3)
    """
    return tuple(sorted((len(c) for c in cycles(pi)), reverse=True))


def order(pi: Sequence[int]) -> int:
    """Least m >= 1 with pi^m = id: the lcm of the cycle lengths.

    >>> order((4, 1, 5, 2, 6, 3))
    3
    """
    return math.lcm(*cycle_type(pi)) if pi else 1


def oplus(pi: Sequence[int], m: int) -> Word:
    """Toric shift: add m to every letter of 0|pi mod n+1 and re-read from 0.

    >>> oplus((1, 2, 4, 3), 2)
    (2, 3, 4, 1)
    """
    size = len(pi) + 1
    circle = [(v + m) % size for v in (0, *pi)]
    z = circle.index(0)
    return tuple(circle[z + 1 :] + circle[:z])


def descent_set(pi: Sequence[int]) -> frozenset[int]:
    """Positions i with pi(i) > pi(i+1), 1-based.

    >>> sorted(descent_set((2, 4, 1, 3)))
    [2]
    """
    return frozenset(i for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def s_n(n: int) -> Iterator[Word]:
    """All of S_n in lexicographic order."""
    return _permutations(range(1, n + 1))

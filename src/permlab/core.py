"""Permutations in one-line notation, plus the circular layer behind toric shifts.

A permutation of S_n is a tuple of ints using each letter of 1..n exactly once.
The circular layer works with words on 0..n, stored rotated so that 0 leads;
two circular words are equal iff their canonical rotations are equal. All
functions are pure and all values immutable.
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


def compose(sigma: Sequence[int], tau: Sequence[int]) -> Word:
    """Group product: result(i) = sigma(tau(i)).

    >>> compose((2, 4, 6, 1, 3, 5), (3, 6, 2, 5, 1, 4))
    (6, 5, 4, 3, 2, 1)
    """
    if len(sigma) != len(tau):
        raise ValueError("length mismatch")
    return tuple(sigma[t - 1] for t in tau)


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


def to_circular(pi: Sequence[int]) -> Word:
    """Prepend 0: the circular word on 0..n read from 0.

    >>> to_circular((1, 2, 4, 3))
    (0, 1, 2, 4, 3)
    """
    return (0,) + tuple(pi)


def canonical_circular(word: Sequence[int]) -> Word:
    """Rotate a word on 0..n so that 0 leads."""
    w = tuple(word)
    z = w.index(0)
    return w[z:] + w[:z]


def from_circular(lam: Sequence[int]) -> Word:
    """Read a circular word from 0: rotate 0 to the front and drop it.

    >>> from_circular((1, 3, 0, 2, 5, 4))
    (2, 5, 4, 1, 3)
    """
    return canonical_circular(lam)[1:]


def circ_oplus(lam: Sequence[int], m: int) -> Word:
    """Add m to every letter mod n+1 and re-canonicalize."""
    size = len(lam)
    return canonical_circular(tuple((v + m) % size for v in lam))


def circ_complement(lam: Sequence[int]) -> Word:
    """Negate every letter mod n+1 (0 stays fixed), canonicalized."""
    size = len(lam)
    return canonical_circular(tuple((size - v) % size for v in lam))


def circ_inverse(lam: Sequence[int]) -> Word:
    """Functional inverse of the word as a bijection position -> letter on 0..n.

    The canonical form starts with 0, so the inverse is canonical as stored.
    """
    lam = canonical_circular(lam)
    out = [0] * len(lam)
    for pos, v in enumerate(lam):
        out[v] = pos
    return tuple(out)


def oplus(pi: Sequence[int], m: int) -> Word:
    """Toric shift: add m to every letter of 0|pi mod n+1 and re-read from 0.

    >>> oplus((1, 2, 4, 3), 2)
    (2, 3, 4, 1)
    """
    return from_circular(circ_oplus(to_circular(pi), m))


def toric_class(pi: Sequence[int]) -> frozenset[Word]:
    """Orbit of pi under the toric shift, as one-line words.

    >>> sorted(toric_class((1, 2, 4, 3)))[:2]
    [(1, 2, 4, 3), (1, 3, 2, 4)]
    """
    lam = to_circular(pi)
    return frozenset(from_circular(circ_oplus(lam, m)) for m in range(len(lam)))


def descent_set(pi: Sequence[int]) -> frozenset[int]:
    """Positions i with pi(i) > pi(i+1), 1-based.

    >>> sorted(descent_set((2, 4, 1, 3)))
    [2]
    """
    return frozenset(i for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def s_n(n: int) -> Iterator[Word]:
    """All of S_n in lexicographic order."""
    return _permutations(range(1, n + 1))


def standardize(word: Sequence[int]) -> Word:
    """Relabel distinct letters order-isomorphically to 1..k.

    >>> standardize((6, 2, 9))
    (2, 1, 3)
    """
    ranking = {v: r for r, v in enumerate(sorted(word), start=1)}
    return tuple(ranking[v] for v in word)

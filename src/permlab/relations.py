"""Equivalence relations on S_n: conjugacy, order, Knuth, toric, descent.

Each relation has a canonical class key: the cycle type (`cycle_type`), the
lcm of the cycle lengths (`order`), the insertion tableau
(`insertion_tableau`), the least rotation of the circular word's steps,
packed into one int of n+1 fixed-width fields (`_toric_key`), and the
descent set (`descent_set`). It also has a closed-form size for each key,
its census of class sizes on S_n (from closed forms, nothing scanned), and
the list of r/c/i compositions that transport its classes to classes (so
class-avoider counts are invariant under them). The sizes are n!/z_lam, its
sums over a fixed lcm, f^lam, the least period, in fields, of a packed toric
step cycle and beta_n(S). `census` memoises each histogram per degree.

Conjugacy and order also key the containers of a pattern without a word
(`container_keys`). The letters p places at a site leave closed cycles and
open paths (`open_paths`) that each completion joins into cycles, so the
cycle types there are the closed cycles with each coarsening of the path
lengths (`_coarsenings`, memoised per length tuple), and the orders their
lcms. Only the shape of the site matters (`permlab.generate.cover_shapes`).
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from itertools import combinations, product
from typing import Callable, Hashable, Mapping, Sequence

from .arith import steggall_census
from .core import Word, cycle_type, descent_set, order
from .errors import BudgetExceeded, InternalCheckError
from .generate import cover_reach, cover_shapes
from .pattern import BivincularPattern, shift_orbit
from .records import FrozenRecord
from .tableau import Shape, count_syt, insertion_tableau, knuth_class, partitions, shape_of

DEFAULT_BUDGET_N = 9
BUDGET_ENV_VAR = "PERMLAB_BUDGET_N"


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument beats the PERMLAB_BUDGET_N env var beats the default.

    A budget that is negative or not an integer is a ValueError naming where
    it came from. Budget 0 is valid: it admits only the empty permutation.
    """
    source = "--budget-n"
    if budget is None:
        text = os.environ.get(BUDGET_ENV_VAR)
        if not text:
            return DEFAULT_BUDGET_N
        source = BUDGET_ENV_VAR
        try:
            budget = int(text)
        except ValueError:
            budget = text
    if not isinstance(budget, int):
        raise ValueError(f"degree budget {budget!r} from {source} is not an integer")
    if budget < 0:
        raise ValueError(f"degree budget {budget} from {source} is negative")
    return budget


def check_budget(n: int, budget: int | None = None) -> None:
    """Raise ValueError for a negative degree n, else BudgetExceeded past the budget."""
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    limit = resolve_budget(budget)
    if n > limit:
        raise BudgetExceeded(f"degree {n} exceeds the degree budget {limit}")


class Relation(FrozenRecord):
    """A named equivalence relation: its class key, the closed-form size
    `class_size(n, key)` of the class with that key in S_n, the histogram
    `sizes(n)` {size: classes} of S_n, whether its census is `bounded` by the
    degree budget, and the r/c/i compositions compatible with it. Class
    closure tallies keys against these sizes. `pattern_class` is set for the
    relations that also act on patterns (Knuth and toric). `container_keys`
    is set for the relations that key a pattern's containers without their
    words (conjugacy and order): `container_keys(pat, n)` is the set of keys
    of the words of S_n containing pat.

    Immutable and hashable: relations with equal fields are equal, and
    assigning to a field raises AttributeError.
    """

    __slots__ = ("name", "key", "symmetries", "class_size", "sizes", "bounded", "pattern_class",
                 "container_keys")

    def __init__(self, name: str, key: Callable[[Word], Hashable], symmetries: tuple[str, ...],
                 class_size: Callable[[int, Hashable], int], sizes: Callable[[int], Mapping[int, int]],
                 bounded: bool,
                 pattern_class: Callable[[BivincularPattern], frozenset[BivincularPattern]] | None = None,
                 container_keys: Callable[[BivincularPattern, int], frozenset] | None = None,
                 ) -> None:
        self._freeze(name, key, symmetries, class_size, sizes, bounded, pattern_class, container_keys)


class ClassCensus:
    """Class-size histogram of a relation on S_n. Building one checks that
    its classes cover n! permutations."""

    __slots__ = ("relation", "n", "by_size")

    def __init__(self, relation: str, n: int, by_size: dict[int, int]) -> None:
        total = sum(size * count for size, count in by_size.items())
        if total != math.factorial(n):
            raise InternalCheckError(f"{relation} census of S_{n} covers {total} != {n}!")
        self.relation = relation
        self.n = n
        self.by_size = by_size

    @property
    def class_count(self) -> int:
        return sum(self.by_size.values())


def _cycle_index_size(n: int, lam: Sequence[int]) -> int:
    """Number of permutations of S_n with cycle type lam: n! / z_lam, where
    z_lam = prod(l^m * m!) over the parts l of multiplicity m."""
    z = 1
    for length, mult in Counter(lam).items():
        z *= length**mult * math.factorial(mult)
    return math.factorial(n) // z


@functools.cache
def _order_table(n: int) -> Counter[int]:
    """{m: permutations of S_n of order m}: the conjugacy class sizes summed
    over the partitions of n with lcm m. Order's class sizes and census read it."""
    table: Counter[int] = Counter()
    for lam in partitions(n):
        table[math.lcm(*lam)] += _cycle_index_size(n, lam)
    return table


@functools.cache
def _coarsenings(lengths: Word) -> frozenset[Word]:
    """The multisets, as weakly decreasing tuples, of the part sums of each
    set partition of `lengths`, a weakly decreasing tuple. The part of the
    first length takes a sub-multiset of the others, chosen by how many of
    each distinct length it takes, so that r equal lengths give r choices
    rather than 2^(r-1) subsets.

    >>> sorted(_coarsenings((2, 1, 1)))
    [(2, 1, 1), (2, 2), (3, 1), (4,)]
    """
    if not lengths:
        return frozenset({()})
    first, *others = lengths
    mult = Counter(others)
    out = set()
    for take in product(*(range(m + 1) for m in mult.values())):
        joined = first + sum(t * v for t, v in zip(take, mult))
        left = tuple(v for t, (v, m) in zip(take, mult.items()) for _ in range(m - t))
        out.update(tuple(sorted((joined, *tail), reverse=True)) for tail in _coarsenings(left))
    return frozenset(out)


@functools.cache
def _path_cycle_types(closed: Word, paths: Word) -> frozenset[Word]:
    """The cycle types of the completions of a partial injection with these
    closed cycles and open paths (`open_paths`): the closed cycles with each
    coarsening of the paths."""
    return frozenset(tuple(sorted(closed + joined, reverse=True)) for joined in _coarsenings(paths))


@functools.cache
def _path_orders(closed: Word, paths: Word) -> frozenset[int]:
    return frozenset(math.lcm(*lam) for lam in _path_cycle_types(closed, paths))


def _container_keys(path_keys: Callable[[Word, Word], frozenset], pat: BivincularPattern,
                    n: int) -> frozenset:
    """The keys, by `path_keys` of a shape's closed cycles and paths, of the
    words of S_n containing pat: those of each shape at degree m = n, and
    of each shape at m < n that grows, with n - m paths of one node added."""
    return frozenset().union(*(path_keys(closed, paths + (1,) * (n - m))
                               for m in range(pat.k, min(n, pat.k + cover_reach(pat)) + 1)
                               for (closed, paths), grows in cover_shapes(pat, m)
                               if grows or m == n))


@functools.cache
def _syt_count(shape: Shape) -> int:
    """`count_syt` memoised per shape tuple: a closure asks for the size of
    every kept word's class, and the keys of degree n have only p(n) shapes."""
    return count_syt(shape)


def _knuth_size(n: int, p: Hashable) -> int:
    """Knuth class of insertion tableau p: one member per standard tableau of
    its shape, f^lam of them by the hook length formula."""
    return _syt_count(shape_of(p))


def _knuth_sizes(n: int) -> dict[int, int]:
    """f^lam classes of size f^lam per shape lam of n, one per insertion tableau."""
    return {f: f * c for f, c in Counter(map(_syt_count, partitions(n))).items()}


def _ascent_run_size(n: int, cuts: Sequence[int]) -> int:
    """alpha_n(T) for T = cuts (increasing): the permutations whose descents
    all lie in T, the multinomial n! / (t1! (t2 - t1)! ... (n - tk)!)."""
    size = math.factorial(n)
    prev = 0
    for cut in (*cuts, n):
        size //= math.factorial(cut - prev)
        prev = cut
    return size


def _descent_size(n: int, s: frozenset[int]) -> int:
    """beta_n(S), the permutations of S_n with descent set exactly S, by
    inclusion-exclusion: the sum of (-1)^|S - T| alpha_n(T) over T in S
    (Stanley, Enumerative Combinatorics 1, section 1.4).

    >>> [_descent_size(4, frozenset(s)) for s in ((), (1,), (2,), (1, 3))]
    [1, 3, 5, 5]
    """
    s = sorted(s)
    return sum((-1) ** (len(s) - r) * _ascent_run_size(n, t)
               for r in range(len(s) + 1) for t in combinations(s, r))


def _descent_sizes(n: int) -> Counter[int]:
    """One class per subset S of 1..n-1, of size beta_n(S); the work grows like 3^n."""
    positions = range(1, n)
    return Counter(_descent_size(n, frozenset(s))
                   for r in range(len(positions) + 1) for s in combinations(positions, r))


def _toric_key(pi: Word) -> int:
    """The steps of the circular word 0|pi, d_i = lam_{i+1} - lam_i mod n+1,
    read from their least rotation. A toric shift adds a constant to every
    letter and re-reads the circle from 0, so it only rotates the steps; the
    word read from 0 along each rotation is one member of the class.

    The n+1 steps are packed into one int, first step highest, in fields of
    n.bit_length() bits. Steps lie in 1..n, so the packing is injective and
    integer order is the order of the step tuples; each of the n rotations
    is one shift and mask. At n = 4 the fields are 3 bits, so the steps
    (1, 1, 2, 4, 2) read as 0o11242, and S_0's one key is 0.

    >>> _toric_key((1, 2, 4, 3)) == _toric_key((2, 1, 3, 4)) == 0o11242
    True
    """
    n = len(pi)
    size = n + 1
    width = n.bit_length()
    steps = prev = 0
    for v in pi:
        steps = steps << width | (v - prev) % size
        prev = v
    steps = steps << width | -prev % size
    top = width * n
    rest = (1 << top) - 1
    least = steps
    for _ in range(n):
        steps = (steps & rest) << width | steps >> top
        if steps < least:
            least = steps
    return least


def _toric_size(n: int, key: int) -> int:
    """Toric class of a packed step cycle: one member per distinct rotation,
    that is the least p dividing n+1 whose rotation by p fields leaves the
    key unchanged. For such a p that holds just when the key's first n+1-p
    fields equal its last n+1-p.

    >>> [_toric_size(4, k) for k in (0o11111, 0o11242)]
    [1, 5]
    """
    size = n + 1
    width = n.bit_length()
    for p in range(1, size):
        if size % p == 0 and key >> width * p == key & (1 << width * (size - p)) - 1:
            return p
    return size


def _knuth_pattern_class(pat: BivincularPattern) -> frozenset[BivincularPattern]:
    return frozenset(BivincularPattern(q, pat.x, pat.y) for q in knuth_class(pat.p))


def _toric_pattern_class(pat: BivincularPattern) -> frozenset[BivincularPattern]:
    return frozenset(shift_orbit(pat))


CONJUGACY = Relation(
    name="conjugacy",
    key=cycle_type,
    symmetries=("", "i", "rc", "irc"),
    class_size=_cycle_index_size,
    # One class per partition lam of n.
    sizes=lambda n: Counter(_cycle_index_size(n, lam) for lam in partitions(n)),
    bounded=False,
    container_keys=functools.partial(_container_keys, _path_cycle_types),
)

ORDER = Relation(
    name="order",
    key=order,
    symmetries=("", "i", "rc", "irc"),
    class_size=lambda n, m: _order_table(n)[m],
    sizes=lambda n: Counter(_order_table(n).values()),
    bounded=False,
    container_keys=functools.partial(_container_keys, _path_orders),
)

KNUTH = Relation(
    name="knuth",
    key=insertion_tableau,
    symmetries=("", "r", "c", "rc"),
    class_size=_knuth_size,
    sizes=_knuth_sizes,
    bounded=False,
    pattern_class=_knuth_pattern_class,
)

TORIC = Relation(
    name="toric",
    key=_toric_key,
    symmetries=("", "r", "c", "rc", "i", "ir", "ic", "irc"),
    class_size=_toric_size,
    # The cycle-type counting formula: cheap, but bounded so that a census
    # over the budget raises BudgetExceeded (exit 3 on the command line).
    sizes=steggall_census,
    bounded=True,
    pattern_class=_toric_pattern_class,
)

DESCENT = Relation(
    name="descent",
    key=descent_set,
    symmetries=("", "r", "c", "rc"),
    class_size=_descent_size,
    sizes=_descent_sizes,
    bounded=True,
)

RELATIONS: dict[str, Relation] = {
    rel.name: rel for rel in (CONJUGACY, ORDER, KNUTH, TORIC, DESCENT)
}


@functools.cache
def _histogram(rel: Relation, n: int) -> dict[int, int]:
    return dict(sorted(rel.sizes(n).items()))


def census(rel: Relation, n: int, budget: int | None = None) -> ClassCensus:
    """Class-size histogram of the relation on S_n, built once per degree by
    `rel.sizes`. A negative degree is a ValueError; a bounded relation's
    degree is checked against the budget on every call."""
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    if rel.bounded:
        check_budget(n, budget)
    return ClassCensus(relation=rel.name, n=n, by_size=dict(_histogram(rel, n)))

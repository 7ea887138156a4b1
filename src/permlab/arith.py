"""Number theory by trial division, and the permutations it counts.

The arithmetic here is deliberately elementary (trial division, exact integer
formulas) so the permutation enumerations elsewhere in the package can be
cross-checked against genuinely independent computations. Natural and divisor
permutations are constructed from their modular increment; the class-size
census for the cyclic relation comes from a Mobius-inverted counting formula
and is validated against brute force in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .core import Word
from .errors import InternalCheckError

#: Euler-Mascheroni constant (math.gamma is the Gamma function, not this).
EULER_GAMMA = 0.5772156649015329


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs.

    >>> factorize(360)
    [(2, 3), (3, 2), (5, 1)]
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    """Euler's totient, via the factorization product formula.

    >>> [totient(n) for n in range(1, 11)]
    [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    """
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def sigma_arith(n: int) -> int:
    """Sum of divisors, via the factorization product formula.

    >>> sigma_arith(12)
    28
    """
    out = 1
    for p, e in factorize(n):
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


@dataclass(frozen=True)
class NaturalPermutation:
    """The permutation of 1..n whose letter at position i is i*j mod (n+1),
    where j is the inverse of k modulo n+1.

    Requires gcd(k, n+1) = 1. The letter 1 sits at position k, and the first
    letter equals the constant increment j, so several facts about these words
    are available without building them.
    """

    k: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if math.gcd(self.k, self.n + 1) != 1:
            raise ValueError(f"k = {self.k} is not invertible modulo {self.n + 1}")

    @cached_property
    def increment(self) -> int:
        return pow(self.k, -1, self.n + 1)

    @cached_property
    def word(self) -> Word:
        m = self.n + 1
        j = self.increment
        return tuple(i * j % m for i in range(1, m))

    def one_position(self) -> int:
        """Position of the letter 1; known to be k without building the word."""
        return self.k

    @property
    def is_divisor_word(self) -> bool:
        return self.n % self.k == 0


def natural_perms(n: int) -> list[NaturalPermutation]:
    """All natural permutations of degree n; there are totient(n+1) of them."""
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    return [NaturalPermutation(k, n) for k in range(1, n + 1) if math.gcd(k, n + 1) == 1]


def divisor_perms(n: int) -> list[NaturalPermutation]:
    """The natural permutations indexed by the divisors of n.

    Each consists of k increasing runs of length n/k; the run holding the
    letter 1 starts at position k.

    >>> divisor_perms(6)[1].word
    (4, 1, 5, 2, 6, 3)
    """
    return [NaturalPermutation(k, n) for k in divisors(n)]


def sigma_via_divisor_perms(n: int) -> int:
    """Sum of divisors read off the divisor permutations: each contributes
    the position of its letter 1."""
    return sum(w.one_position() for w in divisor_perms(n))


def _exact_div(num: int, den: int, context: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise InternalCheckError(f"{context}: {num} not divisible by {den}")
    return q


def steggall_census(n: int) -> dict[int, int]:
    """Sizes of the classes of S_n under the cyclic relation, by counting
    formula: maps class size to the number of classes of that size.

    Sizes all divide n+1. For size k the count is
    (1/((n+1)k)) * sum over d | k of mobius(d) * U(n+1, k/d), where
    U(m, l) = totient(m/l) * (m/l)^l * l! when l divides m and 0 otherwise.

    >>> steggall_census(5)
    {1: 2, 2: 2, 3: 2, 6: 18}
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    m = n + 1

    def u(ell: int) -> int:
        if m % ell:
            return 0
        q = m // ell
        return totient(q) * q**ell * math.factorial(ell)

    out: dict[int, int] = {}
    for k in divisors(m):
        total = sum(mobius(d) * u(k // d) for d in divisors(k))
        count = _exact_div(total, m * k, f"class count for size {k} at degree {n}")
        if count:
            out[k] = count
    return out


@dataclass(frozen=True)
class RobinResult:
    """One degree of the divisor-sum bound sigma(n) < e^gamma * n * log log n.

    `holds` is None when sigma is within relative tolerance 1e-9 of the
    bound, in which case `inconclusive` is set instead of a verdict.
    """

    n: int
    sigma: int
    bound: float
    holds: bool | None
    inconclusive: bool

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "sigma": self.sigma,
            "bound": self.bound,
            "holds": self.holds,
            "inconclusive": self.inconclusive,
        }


def robin_check(n: int) -> RobinResult:
    """Evaluate the divisor-sum bound at one degree.

    >>> robin_check(5040).holds
    False
    """
    if n < 3:
        raise ValueError("the bound needs log log n > 0, so n >= 3")
    s = sigma_arith(n)
    bound = math.exp(EULER_GAMMA) * n * math.log(math.log(n))
    if abs(s - bound) <= 1e-9 * bound:
        return RobinResult(n, s, bound, None, True)
    return RobinResult(n, s, bound, s < bound, False)


def robin_range(start: int, stop: int) -> list[RobinResult]:
    """Bound check for every degree in [start, stop]."""
    return [robin_check(n) for n in range(start, stop + 1)]

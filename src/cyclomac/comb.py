"""Integer and rational combinatorics: Stirling numbers, Eulerian polynomials,
integer partitions, multiplicative arithmetic functions, and (generalized)
Bernoulli numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb as binomial, factorial  # noqa: F401  (re-exported API)
from typing import TYPE_CHECKING

from .field import CycNum
from .polynomial import Polynomial

if TYPE_CHECKING:
    from .chars import DirichletCharacter


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError("divisors expects a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at the scales used here."""
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    f = factorint(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorint(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=None)
def stirling_first_unsigned(n: int, k: int) -> int:
    """Coefficient of x^k in the rising factorial x(x+1)...(x+n-1)."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return stirling_first_unsigned(n - 1, k - 1) + (n - 1) * stirling_first_unsigned(
        n - 1, k
    )


@lru_cache(maxsize=None)
def eulerian_poly(k: int) -> Polynomial:
    """Numerator of sum(n^k x^(n-1)) over (1-x)^(k+1); degree k-1 for k >= 1.

    Computed by the derivative recurrence
    P_k = (1 + (k-1) x) P_{k-1} + x (1-x) P_{k-1}'.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return Polynomial([1])
    prev = eulerian_poly(k - 1)
    x = Polynomial.x()
    return (1 + (k - 1) * x) * prev + x * (1 - x) * prev.derivative()


@dataclass(frozen=True)
class Partition:
    """A partition of a positive integer, stored as part -> multiplicity."""

    multiplicities: tuple[tuple[int, int], ...]  # sorted (part, multiplicity) pairs

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        mult: dict[int, int] = {}
        for s in parts:
            mult[s] = mult.get(s, 0) + 1
        return cls(tuple(sorted(mult.items())))

    def multiplicity(self, s: int) -> int:
        return dict(self.multiplicities).get(s, 0)

    def total(self) -> int:
        return sum(s * m for s, m in self.multiplicities)

    def parts(self) -> list[int]:
        out: list[int] = []
        for s, m in sorted(self.multiplicities, reverse=True):
            out.extend([s] * m)
        return out


def partitions(n: int) -> list[Partition]:
    """All partitions of n, ordered lexicographically by descending part lists."""
    if n < 1:
        raise ValueError("partitions are defined for positive integers")

    def gen(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield list(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from gen(remaining - part, part, prefix)
            prefix.pop()

    return [Partition.from_parts(p) for p in gen(n, n, [])]


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """Classical Bernoulli number B_m (so B_1 = -1/2), by the recurrence
    sum_{j <= m} binom(m+1, j) B_j = 0."""
    if m == 0:
        return Fraction(1)
    return -sum(binomial(m + 1, j) * _bernoulli(j) for j in range(m)) / (m + 1)


def gen_bernoulli(k: int, chi: "DirichletCharacter"):
    """k-th generalized Bernoulli number of chi, by
    B_{k,chi} = f^(k-1) sum_{a=1..f} chi(a) B_k(a/f) with f the modulus
    (Washington, Introduction to Cyclotomic Fields, Prop. 4.1), where
    B_k(x) = sum_j binom(k, j) B_j x^(k-j) is the Bernoulli polynomial.

    The value lies in the character's value field.  The trivial character
    modulo 1 gives B_k(1), the classical numbers with the weight-1 value
    B_1(1) = +1/2.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    f = chi.modulus
    table = chi.table

    def bernoulli_poly(x: Fraction) -> Fraction:
        return sum(binomial(k, j) * _bernoulli(j) * x ** (k - j)
                   for j in range(k + 1))

    # chi(a) = zeta_level^r(a): the sum is one reduction at the value level.
    total = CycNum.from_exponents(chi.level, (
        (table[a % f], bernoulli_poly(Fraction(a, f)))
        for a in range(1, f + 1) if table[a % f] is not None
    ))
    return total * Fraction(f) ** (k - 1)

"""Integer and rational combinatorics: multiplicative arithmetic functions
and (generalized) Bernoulli numbers.

The module loads without the package: `field` and `polynomial` import it,
so its one use of `CycNum` is imported where the value is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb as binomial, factorial  # noqa: F401  (re-exported API)
from math import lcm
from typing import TYPE_CHECKING

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


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorint(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


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
    from .field import CycNum  # field imports this module

    if k < 0:
        raise ValueError("index must be nonnegative")
    f = chi.modulus
    table = chi.table
    # D f^k B_k(a/f) = sum_j binom(k, j) (D B_j) a^(k-j) f^j is an integer
    # for D the common denominator of B_0..B_k, and B_{k,chi} is the sum of
    # chi(a) times it over D f: one reduction at the value level.
    den = lcm(*(_bernoulli(j).denominator for j in range(k + 1)))
    scaled = [binomial(k, j) * _bernoulli(j).numerator
              * (den // _bernoulli(j).denominator) * f ** j for j in range(k + 1)]
    return CycNum.from_exponents(chi.level, (
        (table[a % f], sum(c * a ** (k - j) for j, c in enumerate(scaled)))
        for a in range(1, f + 1) if table[a % f] is not None
    ), den * f)

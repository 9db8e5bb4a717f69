"""Dense univariate polynomials over the rationals, plus cyclotomic polynomials.

A polynomial holds integer numerators over one positive denominator in lowest
terms, the storage of `QSeries` and `CycNum`, so every operation here is exact
integer arithmetic.  The zero polynomial has degree ``-inf``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, zip_longest
from math import gcd, lcm
from typing import Iterable

from .comb import divisors, euler_phi, mobius

NEG_INFINITY = float("-inf")


class Polynomial:
    """A polynomial sum(c_i * x^i) with rational c_i, held as the integers
    `nums` over the positive integer `den`, gcd(den, *nums) = 1, with no
    trailing zero; `coeffs` reads them as Fractions."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = (), den: int = 1):
        """Integer coefficients, or integer numerators over the positive
        integer `den`; anything else raises TypeError (from the gcd)."""
        cs = list(coeffs)
        g = gcd(den, *cs)
        while cs and not cs[-1]:
            cs.pop()
        self.den = den // g
        self.nums: tuple[int, ...] = tuple(cs) if g == 1 else tuple(c // g for c in cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Polynomial":
        return cls([0] * degree + [coeff])

    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return Polynomial([a * fa + b * fb for a, b in
                           zip_longest(self.nums, other.nums, fillvalue=0)], den)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial([c * other for c in self.nums], self.den)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums, i):
                    out[j] += a * b
        return Polynomial(out, self.den * other.den)

    __rmul__ = __mul__

    def __call__(self, x):
        """The value at a CycNum x by Horner's rule on the numerators."""
        acc = x * 0
        for c in reversed(self.nums):
            acc = acc * x + c
        return acc * x.from_rational(x.level, 1, self.den)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form, ascending degree, re-parseable by the CLI parser."""
    return format_terms(((i, c, p.den) for i, c in enumerate(p.nums)), "x")


def format_terms(terms, var: str) -> str:
    """The text form of sum(num/den * var^i) over (i, num, den) triples in
    ascending i, den > 0: the one printed form of polynomials and of
    cyclotomic numbers."""
    parts: list[str] = []
    for i, num, den in terms:
        if num == 0:
            continue
        g = gcd(num, den)
        body = str(abs(num) // g) if den == g else f"{abs(num) // g}/{den // g}"
        if i:
            power = var if i == 1 else f"{var}^{i}"
            body = power if body == "1" else f"{body}*{power}"
        if parts:
            parts.append(f"- {body}" if num < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if num < 0 else body)
    return " ".join(parts) or "0"


def cyclotomic_power(n: int, e: int, order: int) -> list[int]:
    """The integer coefficients of Phi_n^e through x^order, for any integer
    e.  Phi_n = prod_{d | n} (1 - x^d)^mu(n/d), negated at n = 1, so each
    factor with d within the order is |e| prefix sums per residue class mod
    d (a division by 1 - x^d) or |e| differences (a product)."""
    g = [-1 if n == 1 and e % 2 else 1] + [0] * order
    for d in divisors(n):
        power = e * mobius(n // d)
        for _ in range(abs(power) if d <= order else 0):
            if power < 0:
                for r in range(d):
                    g[r::d] = accumulate(g[r::d])
            else:
                g[d:] = [a - b for a, b in zip(g[d:], g)]
    return g


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Polynomial:
    """The n-th cyclotomic polynomial, the series Phi_n^1 truncated at its
    degree phi(n).  Each factor is a unit, so the truncation is exact."""
    if n < 1:
        raise ValueError("cyclotomic polynomials are indexed by positive integers")
    return Polynomial(cyclotomic_power(n, 1, euler_phi(n)))

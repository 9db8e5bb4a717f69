"""Dense univariate polynomials over the rationals, plus cyclotomic polynomials.

Coefficients are `fractions.Fraction` throughout, so every operation here is
exact.  The zero polynomial has degree ``-inf``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

NEG_INFINITY = float("-inf")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


class Polynomial:
    """A polynomial sum(c_i * x^i) with exact rational coefficients c_i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Polynomial":
        return cls([0] * degree + [coeff])

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self + (-other if isinstance(other, Polynomial) else Polynomial([-other]))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial"):
        """Exact rational division: self = q*other + r with deg r < deg other."""
        if not isinstance(other, Polynomial) or other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be any commutative ring element."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:  # the zero polynomial: the zero of x's ring
            return x * 0
        return acc

    def reversed_to(self, degree: int) -> "Polynomial":
        """x^degree * p(1/x), requiring deg p <= degree."""
        if self.degree() > degree:
            raise ValueError("reversal degree smaller than polynomial degree")
        out = [Fraction(0)] * (degree + 1)
        for i, c in enumerate(self.coeffs):
            out[degree - i] = c
        return Polynomial(out)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def format_polynomial(p: Polynomial, var: str = "x") -> str:
    """Canonical text form, ascending degree, re-parseable by the CLI parser."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Polynomial:
    """The n-th cyclotomic polynomial, as the product over d | n of
    (1 - x^d)^mu(n/d) in integer power series truncated at its degree phi(n).
    Each factor is a unit, so the truncation is exact."""
    from .comb import divisors, euler_phi, mobius  # comb imports this module

    if n < 1:
        raise ValueError("cyclotomic polynomials are indexed by positive integers")
    if n == 1:
        return Polynomial([-1, 1])
    top = euler_phi(n)
    c = [1] + [0] * top
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 1:  # times (1 - x^d)
            for i in range(top, d - 1, -1):
                c[i] -= c[i - d]
        elif mu == -1:  # divided by (1 - x^d)
            for i in range(d, top + 1):
                c[i] += c[i - d]
    return Polynomial(c)

"""Truncated q-series with rational coefficients, and the Eisenstein
building blocks: divisor-sum F-series, their dilations, and the constant
terms that turn an F-series into a G-series.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .chars import DirichletCharacter
from .comb import gen_bernoulli
from .field import CycNum, _canonical


class OrderMismatchError(ValueError):
    """Raised when an operation needs equal truncation orders."""


class NonUnitError(ValueError):
    """Raised when inverting a series whose constant term is not invertible."""


class QSeries:
    """A power series in q truncated at a fixed order M (inclusive), with
    rational coefficients held as the integers `nums` over the positive
    integer `den`, gcd(den, *nums) = 1, as in `CycNum`; `coeffs` reads them
    as Fractions.  The product of series of different orders truncates to
    the smaller order and never reads beyond it.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, coeffs, order: int | None = None, den: int | None = None):
        """Rational (int or Fraction) coefficients, or, given `den`, the
        integer numerators over it; padded with zeros or cut at the order."""
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("an explicit order is required for empty input")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        del coeffs[order + 1:]
        if den is None:
            den = lcm(*(c.denominator for c in coeffs))
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        elif den < 1:
            raise ValueError("the denominator must be a positive integer")
        coeffs.extend([0] * (order + 1 - len(coeffs)))
        g = gcd(den, *coeffs)
        self.order, self.den = order, den // g
        self.nums = tuple(coeffs) if g == 1 else tuple(c // g for c in coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def coefficient(self, j: int) -> Fraction:
        if not 0 <= j <= self.order:
            raise IndexError(f"exponent {j} outside the tracked range")
        return Fraction(self.nums[j], self.den)

    __getitem__ = coefficient

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        m = min(self.order, other.order)
        out = [0] * (m + 1)
        for i, a in enumerate(self.nums[: m + 1]):
            if a:
                out[i:] = [c + a * b for c, b in zip(out[i:], other.nums)]
        return QSeries(out, m, self.den * other.den)

    def inverse(self) -> "QSeries":
        """Two-sided inverse up to the order; requires a unit constant term.
        With a = self.nums, the integers x_0 = 1, x_n = -sum_i a_i a_0^(i-1)
        x_(n-i) make the inverse's coefficients den x_n / a_0^(n+1)."""
        a, m = self.nums, self.order
        if not a[0]:
            raise NonUnitError("series with zero constant term has no inverse")
        x = [1]
        for n in range(1, m + 1):
            x.append(-sum(a[i] * a[0] ** (i - 1) * x[n - i]
                          for i in range(1, n + 1) if a[i]))
        s = -1 if a[0] < 0 and m % 2 == 0 else 1  # the sign of a_0^(m+1)
        return QSeries([s * self.den * c * a[0] ** (m - n)
                        for n, c in enumerate(x)], m, s * a[0] ** (m + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.order, self.nums, self.den) == (other.order, other.nums,
                                                     other.den)

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"QSeries(order={self.order}, [{head}{tail}])"

    def to_json(self) -> dict:
        """Exact JSON form of a rational series: coefficient strings, "n" or
        "n/d" in lowest terms as a Fraction prints them."""
        den, out = self.den, []
        for c in self.nums:
            g = gcd(c, den)
            out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return {"order": self.order, "coefficients": out}


def kronecker_product(a: list[int], b: list[int], order: int) -> list[int]:
    """The coefficients of q^0..q^order of the product of two integer
    coefficient lists, by one big-integer multiply (Kronecker substitution;
    von zur Gathen & Gerhard, Modern Computer Algebra, 8.4).

    Both lists are evaluated at q = 2^w, with w wide enough that every
    product coefficient is a signed w-bit digit.  Adding 2^(w-1) to each
    digit makes it unsigned, so an operand packs in one pass over its
    biased digits, less the bias, and the low order + 1 digits of the
    product read off as bytes.
    """
    n = order + 1
    a, b = a[:n], b[:n]
    bound = (max(map(abs, a), default=0) * max(map(abs, b), default=0)
             * min(len(a), len(b)))
    if not bound:
        return [0] * n
    size = (bound.bit_length() + 8) // 8  # bytes per digit: 2^(8 size - 1) > bound
    half = 1 << (8 * size - 1)
    zero = half.to_bytes(size, "little")  # the biased digit of 0
    bias = int.from_bytes(zero * n, "little")

    def pack(coeffs):
        # |c| <= bound < half, so every c + half is one unsigned digit;
        # a list shorter than n is padded with biased zeros.
        raw = b"".join((c + half).to_bytes(size, "little") for c in coeffs)
        return int.from_bytes(raw + zero * (n - len(coeffs)), "little") - bias

    low = (pack(a) * pack(b) + bias) & ((1 << (8 * size * n)) - 1)
    digits = low.to_bytes(size * n, "little")
    return [int.from_bytes(digits[i:i + size], "little") - half
            for i in range(0, size * n, size)]


def f_series(weight: int, chi: DirichletCharacter, dilation: int,
             order: int) -> list:
    """The coefficients of q^0..q^order of the Eisenstein divisor-sum
    series: the coefficient of q^j is the sum of chi(m) * m^(weight-1) over
    factorizations j = m*n*dilation with m, n >= 1.  They are ints for the
    trivial character, which gives the classical weight-k sum
    F_k(dilation * tau), and CycNums (or 0) otherwise; the constant term is 0.
    """
    if weight < 1 or dilation < 1:
        raise ValueError("weight and dilation must be positive")
    out = [0] * (order + 1)
    trivial = chi.modulus == 1
    for m in range(1, order // dilation + 1):
        v = chi.value(m)
        if v.is_zero():
            continue
        weighted = m ** (weight - 1) if trivial else v * m ** (weight - 1)
        step = m * dilation
        for e in range(step, order + 1, step):
            out[e] = out[e] + weighted
    return out


def g_constant(weight: int, chi: DirichletCharacter) -> CycNum:
    """Constant term that completes an F-series to a G-series: -B/(2*weight),
    with B the generalized Bernoulli number of the character at this weight,
    a CycNum at the character's value level.

    The trivial character requires an even weight >= 2; any other character
    must satisfy the parity condition chi(-1) = (-1)^weight.
    """
    if chi.modulus == 1:
        if weight < 2 or weight % 2:
            raise ValueError(
                "the trivial character needs an even weight at least 2"
            )
    elif chi.parity != (-1) ** weight:
        raise ValueError(
            f"character parity {chi.parity} does not match weight {weight}"
        )
    b = gen_bernoulli(weight, chi)
    return _canonical(b.level, [-c for c in b.nums], b.den * 2 * weight)


class EisensteinTerm(NamedTuple):
    """One summand coefficient * F_weight(character; dilation * tau)."""

    weight: int
    character: DirichletCharacter
    dilation: int
    coefficient: CycNum

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "character": {
                "modulus": self.character.modulus,
                "exponents": list(self.character.exponents),
            },
            "dilation": self.dilation,
            "coefficient": str(self.coefficient),
        }

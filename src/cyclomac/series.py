"""Truncated q-series with exact coefficients, and the Eisenstein building
blocks: divisor-sum F-series, their dilations, and the constant terms that
turn an F-series into a G-series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .chars import DirichletCharacter
from .comb import gen_bernoulli
from .field import CycNum, maybe_rational, value_str
from .polynomial import Polynomial


class OrderMismatchError(ValueError):
    """Raised when an operation needs equal truncation orders."""


class NonUnitError(ValueError):
    """Raised when inverting a series whose constant term is not invertible."""


class QSeries:
    """A power series in q truncated at a fixed order M (inclusive).

    Coefficients are Fractions or CycNums at one level; the plain operators
    combine them, and two different levels raise `LevelMismatchError`.
    Operations on series of different orders truncate to the smaller order
    and never read beyond it.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("an explicit order is required for empty input")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        elif len(coeffs) < order + 1:
            coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls([Fraction(1)], order)

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "QSeries":
        return cls(list(p.coeffs), order)

    def coefficient(self, j: int):
        if not 0 <= j <= self.order:
            raise IndexError(f"exponent {j} outside the tracked range")
        return self.coeffs[j]

    def __getitem__(self, j: int):
        return self.coefficient(j)

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise OrderMismatchError("cannot extend a truncated series")
        return QSeries(self.coeffs[: order + 1], order)

    def valuation(self):
        for j, c in enumerate(self.coeffs):
            if c:
                return j
        return None

    def __add__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction, CycNum)):
            out = list(self.coeffs)
            out[0] = out[0] + other
            return QSeries(out, self.order)
        m = min(self.order, other.order)
        return QSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], m
        )

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "QSeries":
        return self + (-other)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        m = min(self.order, other.order)
        out = [Fraction(0)] * (m + 1)
        for i in range(m + 1):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(m + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return QSeries(out, m)

    __rmul__ = __mul__

    def scale(self, c) -> "QSeries":
        return QSeries([c * a for a in self.coeffs], self.order)

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = QSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "QSeries":
        """Two-sided inverse up to the order; requires a unit constant term."""
        a0 = self.coeffs[0]
        if not a0:
            raise NonUnitError("series with zero constant term has no inverse")
        inv0 = Fraction(1) / a0
        out = [inv0] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                ai = self.coeffs[i]
                if ai:
                    acc = acc + ai * out[n - i]
            out[n] = -inv0 * acc
        return QSeries(out, self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(value_str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"QSeries(order={self.order}, [{head}{tail}])"

    def to_json(self) -> dict:
        """Exact JSON form: rational strings, or basis-coefficient arrays at a
        common cyclotomic level."""
        coeffs = [maybe_rational(c) for c in self.coeffs]
        if all(not isinstance(c, CycNum) for c in coeffs):
            return {
                "order": self.order,
                "coefficients": [str(c) for c in coeffs],
            }
        level = lcm(*[c.level for c in coeffs if isinstance(c, CycNum)])
        arrays = []
        for c in coeffs:
            c = c if isinstance(c, CycNum) else CycNum.from_rational(1, c)
            arrays.append([str(x) for x in c.embed(level).coeffs])
        return {"order": self.order, "level": level, "coefficients": arrays}

    @classmethod
    def from_json(cls, data: dict) -> "QSeries":
        order = data["order"]
        if "level" in data:
            level = data["level"]
            coeffs = [
                CycNum(level, [Fraction(x) for x in arr])
                for arr in data["coefficients"]
            ]
        else:
            coeffs = [Fraction(s) for s in data["coefficients"]]
        return cls(coeffs, order)


def substitute_qn(p, n: int, order: int) -> QSeries:
    """Compose a polynomial or series with q^n, truncated at the order."""
    if n < 1:
        raise ValueError("the substitution exponent must be positive")
    src = p.coeffs if isinstance(p, (Polynomial, QSeries)) else tuple(p)
    out = [Fraction(0)] * (order + 1)
    for i, c in enumerate(src):
        if i * n > order:
            break
        if c:
            out[i * n] = out[i * n] + c
    return QSeries(out, order)


def f_series(weight: int, chi: DirichletCharacter, dilation: int, order: int) -> QSeries:
    """The Eisenstein divisor-sum series: coefficient of q^j is the sum of
    chi(m) * m^(weight-1) over factorizations j = m*n*dilation with m, n >= 1.

    The trivial character modulo 1 gives the classical weight-k sum
    F_k(dilation * tau); the series always has zero constant term.
    """
    if weight < 1 or dilation < 1:
        raise ValueError("weight and dilation must be positive")
    out = [Fraction(0)] * (order + 1)
    trivial = chi.modulus == 1
    for m in range(1, order // dilation + 1):
        v = chi.value(m)
        if v.is_zero():
            continue
        weighted = Fraction(m) ** (weight - 1) if trivial else v * m ** (weight - 1)
        step = m * dilation
        for e in range(step, order + 1, step):
            out[e] = out[e] + weighted
    return QSeries(out, order)


def g_constant(weight: int, chi: DirichletCharacter):
    """Constant term that completes an F-series to a G-series: -B/(2*weight),
    with B the generalized Bernoulli number of the character at this weight.

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
    return maybe_rational(b * Fraction(-1, 2 * weight))


@dataclass(frozen=True)
class EisensteinTerm:
    """One summand coefficient * F_weight(character; dilation * tau)."""

    weight: int
    character: DirichletCharacter
    dilation: int
    coefficient: object  # Fraction or CycNum

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "character": {
                "modulus": self.character.modulus,
                "exponents": list(self.character.exponents),
            },
            "dilation": self.dilation,
            "coefficient": value_str(self.coefficient),
        }

"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored in the power basis {zeta_L^i : 0 <= i < phi(L)}, reduced
modulo the L-th cyclotomic polynomial, as integer numerators over one positive
denominator in lowest terms, so equality at a fixed level is a plain tuple
comparison.  `+`, `*` and `==` accept ints and CycNums on either side, and
`-` on its right.  Two CycNums at different levels are first embedded in
Q(zeta_lcm) by `coerce_pair`, so a value of Q(zeta_a) times one of
Q(zeta_b) lands at lcm(a, b).  Values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .comb import euler_phi, factorint
from .polynomial import cyclotomic_power, format_terms


class LevelMismatchError(ValueError):
    """Raised when a value is embedded at a level its own does not divide."""


class NotRationalError(ValueError):
    """Raised when a cyclotomic number with nonzero zeta-part is read as rational."""

    def __init__(self, value: "CycNum"):
        super().__init__(f"not a rational number: {value}")
        self.value = value


@lru_cache(maxsize=None)
def _divisions(level: int) -> tuple[tuple[int, tuple], ...]:
    """The monic divisors that `_reduce` divides by in turn, each as its
    degree and its nonzero (i, coefficient) pairs below the leading term:
    Phi_d(x^(level/d)) for d = p_1, p_1 p_2, ..., p_1 ... p_r, the primes
    of the level in increasing order (Phi_1 at level 1).  Each vanishes at
    every primitive level-th root of unity, so each is a multiple of
    Phi_level, and the last is Phi_level itself.  The degrees
    phi(d) level/d shrink by the factor 1 - 1/p at each step: the sparse
    first divisors remove most rows of a long remainder, and the dense
    Phi_level only the last phi(level)/(p_r - 1)."""
    out, d = [], 1
    for p in sorted(factorint(level)) or [1]:
        d *= p
        phi, step = euler_phi(d), level // d
        out.append((phi * step, tuple(
            (i * step, m)
            for i, m in enumerate(cyclotomic_power(d, 1, phi)[:phi]) if m)))
    return tuple(out)


def _reduce(level: int, rem: list[int]) -> list[int]:
    """Remainder of sum(rem[i] x^i) modulo Phi_level, padded to phi(level),
    in place.  Each divisor of `_divisions` is a monic integral multiple of
    Phi_level, so the integers stay integers and the class modulo Phi_level
    is kept; the last leaves the degree below phi(level)."""
    for degree, terms in _divisions(level):
        for top in range(len(rem) - 1, degree - 1, -1):
            c = rem[top]
            if c:
                # Subtract c * x^(top-degree) * divisor; rem[top] itself is
                # dropped below.
                shift = top - degree
                for i, m in terms:
                    rem[shift + i] -= c * m
        del rem[degree:]
    rem.extend([0] * (euler_phi(level) - len(rem)))
    return rem


def _canonical(level: int, nums, den: int) -> "CycNum":
    """sum(nums[i] zeta^i) / den, den > 0, divided through by the gcd."""
    g = gcd(den, *nums)
    v = object.__new__(CycNum)
    v.level, v.den = level, den // g
    v.nums = tuple(nums) if g == 1 else tuple(c // g for c in nums)
    return v


class CycNum:
    """An element of Q(zeta_L) in reduced power-basis form: the integers
    `nums` over the positive integer `den`, with gcd(den, *nums) = 1.
    Values come from `from_exponents`, `from_rational` and `zero`."""

    __slots__ = ("level", "nums", "den")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- construction -------------------------------------------------

    @classmethod
    def from_exponents(cls, level: int, terms, den: int = 1) -> "CycNum":
        """sum(c * zeta_level^e) / den over a dict {e: c} or an iterable of
        (e, c) pairs, with arbitrary integer exponents e and integers c;
        repeated exponents add.  den is a positive integer."""
        dense = [0] * level
        for e, c in terms.items() if isinstance(terms, dict) else terms:
            dense[e % level] += c
        return _canonical(level, _reduce(level, dense), den)

    @classmethod
    def from_rational(cls, level: int, num: int, den: int = 1) -> "CycNum":
        """num/den for integers num and den > 0; TypeError for non-integers."""
        if den < 1:
            raise ValueError("the denominator must be a positive integer")
        return _canonical(level, [num] + [0] * (euler_phi(level) - 1), den)

    @classmethod
    def zero(cls, level: int = 1) -> "CycNum":
        return cls.from_rational(level, 0)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        """(self, other) at one level: two CycNums at the lcm of theirs, or
        an int at self's level; None for any other type."""
        if isinstance(other, CycNum):
            if other.level == self.level:
                return self, other
            return coerce_pair(self, other)
        if isinstance(other, int):
            return self, CycNum.from_rational(self.level, other)
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        den = lcm(x.den, y.den)
        fa, fb = den // x.den, den // y.den
        return _canonical(x.level,
                          [a * fa + b * fb for a, b in zip(x.nums, y.nums)],
                          den)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.level, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        if not isinstance(other, (CycNum, int)):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return _canonical(self.level, [a * other for a in self.nums],
                              self.den)
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        dense = [0] * (2 * len(x.nums) - 1)
        bs = [(j, b) for j, b in enumerate(y.nums) if b]
        for i, a in enumerate(x.nums):
            if a:
                for j, b in bs:
                    dense[i + j] += a * b
        return _canonical(x.level, _reduce(x.level, dense), x.den * y.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse by the Galois norm: x times the product P
        of its other conjugates sigma_s(x), s in (Z/L)^x, is the norm N(x),
        a nonzero rational, so 1/x = P / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        others = CycNum.from_rational(self.level, 1)
        for s in range(2, self.level):
            if gcd(s, self.level) == 1:
                others = others * self.galois(s)
        num, den = (self * others).to_rational()
        return others * CycNum.from_rational(
            self.level, den if num > 0 else -den, abs(num))

    # -- structure maps -----------------------------------------------

    def embed(self, new_level: int) -> "CycNum":
        """The same number viewed in Q(zeta_new_level); level must divide it."""
        if new_level % self.level != 0:
            raise LevelMismatchError(
                f"cannot embed level {self.level} into non-multiple {new_level}"
            )
        if new_level == self.level:
            return self
        step = new_level // self.level
        return CycNum.from_exponents(
            new_level, ((i * step, c) for i, c in enumerate(self.nums) if c),
            self.den)

    def galois(self, s: int) -> "CycNum":
        """The automorphism zeta -> zeta^s; s must be coprime to the level."""
        if gcd(s, self.level) != 1:
            raise ValueError(f"{s} is not coprime to the level {self.level}")
        return CycNum.from_exponents(
            self.level, ((i * s, c) for i, c in enumerate(self.nums) if c),
            self.den)

    def conjugate(self) -> "CycNum":
        if self.level <= 2:
            return self
        return self.galois(self.level - 1)

    def to_rational(self) -> tuple[int, int]:
        """(num, den) for a rational value, den > 0 and in lowest terms."""
        if not self.is_rational():
            raise NotRationalError(self)
        return self.nums[0], self.den

    # -- comparison and display ----------------------------------------

    def __eq__(self, other) -> bool:
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x.nums == y.nums and x.den == y.den

    # Equal values can live at different levels, so no level-based hash can
    # satisfy the hash contract; field elements are not dict keys here.
    __hash__ = None

    def __repr__(self) -> str:
        return (f"CycNum.from_exponents({self.level}, "
                f"{dict(enumerate(self.nums))!r}, {self.den})")

    def __str__(self) -> str:
        return format_terms(((i, c, self.den) for i, c in enumerate(self.nums)),
                            f"z{self.level}")


def zeta(level: int, exponent: int = 1) -> CycNum:
    """zeta_level^exponent as a reduced field element."""
    return CycNum.from_exponents(level, {exponent: 1})


def coerce_pair(a: CycNum, b: CycNum) -> tuple[CycNum, CycNum]:
    """Both operands embedded into Q(zeta_lcm); `CycNum._coerce` calls it
    when their levels differ."""
    target = lcm(a.level, b.level)
    return a.embed(target), b.embed(target)

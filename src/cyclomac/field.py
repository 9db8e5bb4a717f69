"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored in the power basis {zeta_L^i : 0 <= i < phi(L)}, reduced
modulo the L-th cyclotomic polynomial, as integer numerators over one positive
denominator in lowest terms, so equality at a fixed level is a plain tuple
comparison.  Binary operations accept ints, Fractions and
CycNums at the same level, and raise `LevelMismatchError` on two different
levels; `coerce_pair` embeds a pair into Q(zeta_lcm) where a caller means to
mix levels.  Values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .polynomial import cyclotomic_power, format_terms


class LevelMismatchError(ValueError):
    """Raised when a binary operation mixes two different cyclotomic levels."""


class NotRationalError(ValueError):
    """Raised when a cyclotomic number with nonzero zeta-part is read as rational."""

    def __init__(self, value: "CycNum"):
        super().__init__(f"not a rational number: {value}")
        self.value = value


@lru_cache(maxsize=None)
def _phi(level: int) -> int:
    from .comb import euler_phi  # comb imports this module

    return euler_phi(level)


@lru_cache(maxsize=None)
def _phi_terms(level: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (i, coefficient) pairs of Phi_level below its leading
    term.  Most are zero when p^2 divides the level: then
    Phi_L(x) = Phi_{L/p}(x^p)."""
    phi = _phi(level)
    return tuple((i, m) for i, m in
                 enumerate(cyclotomic_power(level, 1, phi)[:phi]) if m)


def _reduce(level: int, rem: list[int]) -> list[int]:
    """Remainder of sum(rem[i] x^i) modulo Phi_level, padded to phi(level),
    in place: Phi_level is monic and integral, so the integers stay integers."""
    phi = _phi(level)
    terms = _phi_terms(level)
    for top in range(len(rem) - 1, phi - 1, -1):
        c = rem[top]
        if c:
            # Phi is monic: subtract c * x^(top-phi) * Phi; rem[top] itself
            # is dropped below.
            shift = top - phi
            for i, m in terms:
                rem[shift + i] -= c * m
    del rem[phi:]
    rem.extend([0] * (phi - len(rem)))
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
    def from_rational(cls, level: int, value) -> "CycNum":
        value = Fraction(value)
        return _canonical(level, [value.numerator] + [0] * (_phi(level) - 1),
                          value.denominator)

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
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(self.level, other)
        if isinstance(other, CycNum):
            if other.level != self.level:
                raise LevelMismatchError(
                    f"levels {self.level} and {other.level} differ; embed first"
                )
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = lcm(self.den, o.den)
        fa, fb = den // self.den, den // o.den
        return _canonical(self.level,
                          [a * fa + b * fb for a, b in zip(self.nums, o.nums)],
                          den)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.level, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _canonical(self.level,
                              [a * other.numerator for a in self.nums],
                              self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        dense = [0] * (2 * len(self.nums) - 1)
        bs = [(j, b) for j, b in enumerate(o.nums) if b]
        for i, a in enumerate(self.nums):
            if a:
                for j, b in bs:
                    dense[i + j] += a * b
        return _canonical(self.level, _reduce(self.level, dense),
                          self.den * o.den)

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
        return others * (1 / (self * others).to_rational())

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

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(self)
        return Fraction(self.nums[0], self.den)

    # -- comparison and display ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.nums[0] == other * self.den
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = (self, other) if other.level == self.level else coerce_pair(self, other)
        return a.nums == b.nums and a.den == b.den

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
    """Embed both operands into Q(zeta_lcm) so binary operations apply."""
    if a.level == b.level:
        return a, b
    target = lcm(a.level, b.level)
    return a.embed(target), b.embed(target)

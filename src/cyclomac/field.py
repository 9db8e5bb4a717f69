"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored in the power basis {zeta_L^i : 0 <= i < phi(L)}, reduced
modulo the L-th cyclotomic polynomial, so equality at a fixed level is a plain
coefficient comparison.  Binary operations accept ints, Fractions and
CycNums at the same level, and raise `LevelMismatchError` on two different
levels; `coerce_pair` and `common_level` embed a pair into Q(zeta_lcm) where
a caller means to mix levels.  Values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .polynomial import Polynomial, cyclotomic_polynomial


class LevelMismatchError(ValueError):
    """Raised when a binary operation mixes two different cyclotomic levels."""


class NotRationalError(ValueError):
    """Raised when a cyclotomic number with nonzero zeta-part is read as rational."""

    def __init__(self, value: "CycNum"):
        super().__init__(f"not a rational number: {value}")
        self.value = value


class NotInSubfieldError(ValueError):
    """Raised when projecting a value to a level that cannot represent it."""


@lru_cache(maxsize=None)
def _phi(level: int) -> int:
    return cyclotomic_polynomial(level).degree()


@lru_cache(maxsize=None)
def _phi_terms(level: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (i, coefficient) pairs of Phi_level below its leading
    term.  The coefficients are integers, and most are zero when p^2
    divides the level: then Phi_L(x) = Phi_{L/p}(x^p)."""
    return tuple((i, int(m)) for i, m in
                 enumerate(cyclotomic_polynomial(level).coeffs[:-1]) if m)


def _reduce(level: int, dense: list) -> tuple[Fraction, ...]:
    """Remainder of sum(dense[i] x^i) modulo Phi_level, padded to phi(level).
    Phi_level has integer coefficients, so the division runs on integer
    numerators over the common denominator of the entries."""
    phi = _phi(level)
    terms = _phi_terms(level)
    den = lcm(*(c.denominator for c in dense))
    rem = [c.numerator * (den // c.denominator) for c in dense]
    for top in range(len(rem) - 1, phi - 1, -1):
        c = rem[top]
        if c:
            # Phi is monic: subtract c * x^(top-phi) * Phi; rem[top] itself
            # is dropped below.
            shift = top - phi
            for i, m in terms:
                rem[shift + i] -= c * m
    rem = [Fraction(c, den) for c in rem[:phi]]
    rem.extend([Fraction(0)] * (phi - len(rem)))
    return tuple(rem)


class CycNum:
    """An element of Q(zeta_L) in reduced power-basis form."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        if level < 1:
            raise ValueError("level must be a positive integer")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != _phi(level):
            raise ValueError(
                f"level {level} needs exactly {_phi(level)} basis coefficients"
            )
        self.level = level
        self.coeffs = coeffs

    # -- construction -------------------------------------------------

    @classmethod
    def from_exponents(cls, level: int, terms) -> "CycNum":
        """sum(c * zeta_level^e) over a dict {e: c} or an iterable of (e, c)
        pairs, with arbitrary integer exponents e; repeated exponents add."""
        dense = [Fraction(0)] * level
        for e, c in terms.items() if isinstance(terms, dict) else terms:
            dense[e % level] += c
        return cls(level, _reduce(level, dense))

    @classmethod
    def from_rational(cls, level: int, value) -> "CycNum":
        coeffs = [Fraction(0)] * _phi(level)
        coeffs[0] = Fraction(value)
        return cls(level, coeffs)

    @classmethod
    def zero(cls, level: int = 1) -> "CycNum":
        return cls.from_rational(level, 0)

    @classmethod
    def one(cls, level: int = 1) -> "CycNum":
        return cls.from_rational(level, 1)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

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
        return CycNum(self.level, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.level, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.level, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum(self.level, [a * other for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = len(self.coeffs)
        dense = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    dense[i + j] += a * b
        return CycNum(self.level, _reduce(self.level, dense))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return CycNum(self.level, [a / other for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycNum.one(self.level)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_L."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        mod = cyclotomic_polynomial(self.level)
        # Invariants: old_s * self + (..) * mod = old_r.
        old_r, r = Polynomial(self.coeffs), mod
        old_s, s = Polynomial([1]), Polynomial()
        while not r.is_zero():
            q, rem = divmod(old_r, r)
            old_r, r = r, rem
            old_s, s = s, old_s - q * s
        # Phi_L is irreducible over Q, so the gcd is a nonzero constant.
        g = old_r.coefficient(0)
        inv_poly = old_s * (Fraction(1) / g)
        return CycNum(self.level, _reduce(self.level, list(inv_poly.coeffs)))

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
            new_level, {i * step: c for i, c in enumerate(self.coeffs) if c}
        )

    def project(self, new_level: int) -> "CycNum":
        """Represent the value at a divisor level, if it lies in that subfield."""
        if self.level % new_level != 0:
            raise LevelMismatchError(
                f"cannot project level {self.level} onto non-divisor {new_level}"
            )
        if new_level == self.level:
            return self
        basis = [
            CycNum.from_exponents(self.level, {i * (self.level // new_level): 1}).coeffs
            for i in range(_phi(new_level))
        ]
        solution = _solve_exact(basis, self.coeffs)
        if solution is None:
            raise NotInSubfieldError(
                f"{self} does not lie in Q(zeta_{new_level})"
            )
        return CycNum(new_level, solution)

    def galois(self, s: int) -> "CycNum":
        """The automorphism zeta -> zeta^s; s must be coprime to the level."""
        if gcd(s, self.level) != 1:
            raise ValueError(f"{s} is not coprime to the level {self.level}")
        return CycNum.from_exponents(
            self.level, {i * s: c for i, c in enumerate(self.coeffs) if c}
        )

    def conjugate(self) -> "CycNum":
        if self.level <= 2:
            return self
        return self.galois(self.level - 1)

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(self)
        return self.coeffs[0]

    # -- comparison and display ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNum):
            return NotImplemented
        if other.level == self.level:
            return self.coeffs == other.coeffs
        a, b = common_level(self, other)
        return a.coeffs == b.coeffs

    # Equal values can live at different levels, so no level-based hash can
    # satisfy the hash contract; field elements are not dict keys here.
    __hash__ = None

    def __repr__(self) -> str:
        return f"CycNum({self.level}, {list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                z = f"z{self.level}" if i == 1 else f"z{self.level}^{i}"
                body = z if mag == 1 else f"{mag}*{z}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _solve_exact(columns, target):
    """Solve sum(y_i * columns[i]) = target over Q; None when inconsistent."""
    rows = len(target)
    ncols = len(columns)
    mat = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(rows)]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if mat[i][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row, c in enumerate(pivot_cols):
        solution[c] = mat[row][ncols]
    return solution


def zeta(level: int, exponent: int = 1) -> CycNum:
    """zeta_level^exponent as a reduced field element."""
    return CycNum.from_exponents(level, {exponent: 1})


def common_level(a: CycNum, b: CycNum) -> tuple[CycNum, CycNum]:
    """Embed both operands into Q(zeta_lcm) so binary operations apply."""
    target = lcm(a.level, b.level)
    return a.embed(target), b.embed(target)


# -- level lifting and display --------------------------------------
#
# Fractions and same-level CycNums mix through the plain operators.  Two
# different levels meet only where the closed form multiplies pole data by
# Gauss sums and character values; `coerce_pair` lifts such a pair, or a
# Fraction and a CycNum, to one level there.


def coerce_pair(a, b):
    """Lift two scalars (Fraction or CycNum) to one representation: CycNums
    at the lcm of their levels when either is a CycNum, else Fractions."""
    a_cyc = isinstance(a, CycNum)
    b_cyc = isinstance(b, CycNum)
    if a_cyc and b_cyc:
        if a.level == b.level:
            return a, b
        return common_level(a, b)
    if a_cyc:
        return a, CycNum.from_rational(a.level, b)
    if b_cyc:
        return CycNum.from_rational(b.level, a), b
    return Fraction(a), Fraction(b)


def maybe_rational(a):
    """Collapse a rational-valued CycNum to a Fraction; pass others through."""
    if isinstance(a, CycNum) and a.is_rational():
        return a.coeffs[0]
    return a


def value_str(a) -> str:
    v = maybe_rational(a)
    return str(v)

"""Dirichlet characters: enumeration, conductors, Gauss sums, and the
character expansion of powers of roots of unity.

Characters modulo N are built from the cyclic decomposition of the unit group
(Z/N)^x: CRT over prime powers, primitive roots at odd prime powers, and
{-1} x <5> at powers of two.  All values of all characters modulo N live at
the common cyclotomic level e = exponent of (Z/N)^x, so sums over characters
never juggle levels.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .comb import divisors, euler_phi, factorint
from .field import CycNum, zeta


def _crt_pair(a: int, m1: int, b: int, m2: int) -> int:
    """x mod m1*m2 with x = a (mod m1), x = b (mod m2); moduli coprime."""
    inv = pow(m1, -1, m2)
    return (a + m1 * (((b - a) * inv) % m2)) % (m1 * m2)


def _primitive_root_mod_prime(p: int) -> int:
    if p == 2:
        return 1
    order_factors = factorint(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
    raise ArithmeticError(f"no primitive root modulo {p}")


def _component_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/p^e)^x for a prime power p^e."""
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(2**e - 1, 2), (5, 2 ** (e - 2))]
    g = _primitive_root_mod_prime(p)
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return [(g % p**e, euler_phi(p**e))]


@lru_cache(maxsize=None)
def _unit_group(n: int) -> tuple[tuple[int, ...], tuple[int, ...], dict]:
    """Generators of (Z/n)^x lifted mod n, their orders, and a discrete-log table."""
    gens: list[int] = []
    orders: list[int] = []
    for p, e in sorted(factorint(n).items()) if n > 1 else []:
        q = p**e
        rest = n // q
        for g, order in _component_generators(p, e):
            gens.append(_crt_pair(g, q, 1, rest) if rest > 1 else g % n)
            orders.append(order)
    dlog: dict[int, tuple[int, ...]] = {}

    def fill(i: int, u: int, exps: tuple[int, ...]):
        if i == len(gens):
            dlog[u] = exps
            return
        cur = u
        for t in range(orders[i]):
            fill(i + 1, cur, exps + (t,))
            cur = (cur * gens[i]) % n
    fill(0, 1 % n, ())
    if len(dlog) != euler_phi(n):
        raise ArithmeticError(f"unit group enumeration failed for modulus {n}")
    return tuple(gens), tuple(orders), dlog


class DirichletCharacter:
    """A Dirichlet character modulo N with its full value table.

    `values[a]` is chi(a mod N) as a CycNum at the common level, zero on
    residues sharing a factor with N.  `exponents` are the images of the
    group generators, expressed as exponents of a primitive root of unity
    of each generator's order; they determine the stable enumeration index.
    """

    def __init__(self, modulus: int, index: int, exponents: tuple[int, ...],
                 level: int, values: tuple[CycNum, ...]):
        self.modulus = modulus
        self.index = index
        self.exponents = exponents
        self.level = level
        self.values = values
        self.conductor = self._conductor()

    def value(self, a: int) -> CycNum:
        return self.values[a % self.modulus]

    @property
    def parity(self) -> int:
        """chi(-1), as a plain integer +1 or -1."""
        v = self.value(self.modulus - 1)
        if v == 1:
            return 1
        if v == -1:
            return -1
        raise ArithmeticError("character value at -1 is not a sign")

    @property
    def is_principal(self) -> bool:
        return all(t == 0 for t in self.exponents)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def _conductor(self) -> int:
        n = self.modulus
        units = [a for a in range(n) if gcd(a, n) == 1]
        one = CycNum.one(self.level)
        for f in divisors(n):
            if all(self.values[a] == one for a in units if a % f == 1 % f):
                return f
        return n

    def conjugate(self) -> "DirichletCharacter":
        """The complex-conjugate character, as an enumerated object."""
        _, orders, _ = _unit_group(self.modulus)
        conj_exps = tuple((-t) % d for t, d in zip(self.exponents, orders))
        return enumerate_characters(self.modulus)[_index_of(orders, conj_exps)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self.modulus == other.modulus and self.values == other.values

    def __hash__(self):
        return hash((self.modulus, self.index))

    def __repr__(self) -> str:
        return f"DirichletCharacter(modulus={self.modulus}, index={self.index})"


def _index_of(orders: tuple[int, ...], exponents: tuple[int, ...]) -> int:
    idx = 0
    for t, d in zip(exponents, orders):
        idx = idx * d + t
    return idx


@lru_cache(maxsize=None)
def enumerate_characters(n: int) -> tuple[DirichletCharacter, ...]:
    """All phi(n) characters modulo n, in the stable generator-exponent order.

    Index 0 is always the principal character.
    """
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    gens, orders, dlog = _unit_group(n)
    level = lcm(*orders) if orders else 1
    zeta_pow = [zeta(level, r) for r in range(level)]
    zero = CycNum.zero(level)

    def char_for(exponents: tuple[int, ...], index: int) -> DirichletCharacter:
        values = [zero] * n
        for u, exps in dlog.items():
            r = 0
            for t, x, d in zip(exponents, exps, orders):
                r = (r + t * x * (level // d)) % level
            values[u] = zeta_pow[r]
        return DirichletCharacter(n, index, exponents, level, tuple(values))

    out: list[DirichletCharacter] = []

    def walk(i: int, exps: tuple[int, ...]):
        if i == len(orders):
            out.append(char_for(exps, len(out)))
            return
        for t in range(orders[i]):
            walk(i + 1, exps + (t,))

    walk(0, ())
    return tuple(out)


def trivial_character() -> DirichletCharacter:
    return enumerate_characters(1)[0]


def principal_character(n: int) -> DirichletCharacter:
    return enumerate_characters(n)[0]


@lru_cache(maxsize=None)
def gauss_sum(chi: DirichletCharacter) -> CycNum:
    """sum over a mod N of chi(a) * zeta_N^a, at level lcm(N, value level);
    computed once per character."""
    n = chi.modulus
    level = lcm(n, chi.level)
    step = level // n
    total = CycNum.zero(level)
    for a in range(1, n + 1):
        v = chi.value(a)
        if v.is_zero():
            continue
        total = total + v.embed(level) * zeta(level, step * a)
    return total


def zeta_power_expand(n: int, m: int) -> dict[int, CycNum]:
    """Per-character summands whose total is zeta_n^m.

    With g = gcd(n, m), returns {character index mod n/g: G(chi) *
    conj(chi)(m/g) / phi(n/g)}; the values sum to zeta_n^m exactly.
    """
    if n < 1 or m < 1:
        raise ValueError("arguments must be positive integers")
    g = gcd(n, m)
    n_red = n // g
    m_red = m // g
    scale = Fraction(1, euler_phi(n_red))
    out: dict[int, CycNum] = {}
    for chi in enumerate_characters(n_red):
        term = gauss_sum(chi) * chi.conjugate().value(m_red).embed(
            lcm(n_red, chi.level)
        )
        out[chi.index] = term * scale
    return out


def induced_character(chi: DirichletCharacter, m: int) -> DirichletCharacter:
    """The character modulo m agreeing with chi on residues coprime to m."""
    if m % chi.modulus != 0:
        raise ValueError(
            f"modulus {chi.modulus} does not divide the induction target {m}"
        )
    candidates = enumerate_characters(m)
    target_level = candidates[0].level
    wanted = [
        chi.value(a).embed(lcm(chi.level, target_level)) if gcd(a, m) == 1 else None
        for a in range(m)
    ]
    for cand in candidates:
        if all(
            w is None or cand.values[a] == w for a, w in enumerate(wanted)
        ):
            return cand
    raise ArithmeticError("induction produced no matching character")


def primitive_character(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character that induces chi (modulo chi's conductor)."""
    f = chi.conductor
    units = [a for a in range(chi.modulus) if gcd(a, chi.modulus) == 1]
    for psi in enumerate_characters(f):
        if all(psi.value(a) == chi.value(a) for a in units):
            return psi
    raise ArithmeticError("no primitive character found below the conductor")

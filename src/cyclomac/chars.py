"""Dirichlet characters: enumeration, conductors, primitive characters and
Gauss sums.

Characters modulo N are built from the cyclic decomposition of the unit group
(Z/N)^x: CRT over prime powers, primitive roots at odd prime powers, and
{-1} x <5> at powers of two.  All values of all characters modulo N live at
the common cyclotomic level e = exponent of (Z/N)^x, and a character stores
each value as an exponent of zeta_e, so a sum over character values is one
`CycNum.from_exponents` reduction.
"""

from __future__ import annotations

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
    """A Dirichlet character modulo N with its table of value exponents.

    `table[a]` is the integer r with chi(a) = zeta_level^r, 0 <= r < level,
    or None on residues sharing a factor with N; `level` is the exponent of
    (Z/N)^x.  `exponents` are the images of the group generators, expressed
    as exponents of a primitive root of unity of each generator's order;
    they determine the stable enumeration index.
    """

    def __init__(self, modulus: int, index: int, exponents: tuple[int, ...],
                 level: int, table: tuple[int | None, ...]):
        self.modulus = modulus
        self.index = index
        self.exponents = exponents
        self.level = level
        self.table = table
        self.conductor = self._conductor()

    def value(self, a: int) -> CycNum:
        """chi(a) as a CycNum at the character's level."""
        r = self.table[a % self.modulus]
        return CycNum.zero(self.level) if r is None else zeta(self.level, r)

    @property
    def parity(self) -> int:
        """chi(-1), as a plain integer +1 or -1."""
        r = self.table[-1]
        if r == 0:
            return 1
        if 2 * r == self.level:
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
        for f in divisors(n):
            if all(r == 0 for a, r in enumerate(self.table)
                   if r is not None and a % f == 1 % f):
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
        return self.modulus == other.modulus and self.table == other.table

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

    def char_for(exponents: tuple[int, ...], index: int) -> DirichletCharacter:
        table: list[int | None] = [None] * n
        for u, exps in dlog.items():
            table[u] = sum(t * x * (level // d)
                           for t, x, d in zip(exponents, exps, orders)) % level
        return DirichletCharacter(n, index, exponents, level, tuple(table))

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
    """sum over a mod N of chi(a) * zeta_N^a, at level L = lcm(N, value
    level): one reduction of the exponents r(a) * L/level + a * L/N;
    computed once per character."""
    n = chi.modulus
    level = lcm(n, chi.level)
    return CycNum.from_exponents(level, (
        (r * (level // chi.level) + a * (level // n), 1)
        for a, r in enumerate(chi.table) if r is not None
    ))


def induced_character(chi: DirichletCharacter, m: int) -> DirichletCharacter:
    """The character modulo m agreeing with chi on residues coprime to m."""
    if m % chi.modulus != 0:
        raise ValueError(
            f"modulus {chi.modulus} does not divide the induction target {m}"
        )
    candidates = enumerate_characters(m)
    # The value level of chi divides the exponent of (Z/m)^x.
    step = candidates[0].level // chi.level
    wanted = tuple(
        chi.table[a % chi.modulus] * step if gcd(a, m) == 1 else None
        for a in range(m)
    )
    for cand in candidates:
        if cand.table == wanted:
            return cand
    raise ArithmeticError("induction produced no matching character")


def primitive_character(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character that induces chi (modulo chi's conductor)."""
    f = chi.conductor
    for psi in enumerate_characters(f):
        # psi's value level divides chi's, so compare rescaled exponents.
        step = chi.level // psi.level
        if all(r is None or psi.table[a % f] * step == r
               for a, r in enumerate(chi.table)):
            return psi
    raise ArithmeticError("no primitive character found below the conductor")

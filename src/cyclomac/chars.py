"""Dirichlet characters: enumeration, primitive characters and Gauss sums.

Characters modulo N are built from the cyclic decomposition of the unit group
(Z/N)^x: CRT over prime powers, primitive roots at odd prime powers, and
{-1} x <5> at powers of two.  All values of all characters modulo N live at
the common cyclotomic level e = exponent of (Z/N)^x, and a character stores
each value as an exponent of zeta_e, so a sum over character values is one
`CycNum.from_exponents` reduction.  A character carries no conductor:
`primitive_character` finds it as the least divisor of N from which the
character is induced.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import lcm, prod

from .comb import divisors, euler_phi, factorint
from .field import CycNum, zeta


def _crt_pair(a: int, m1: int, b: int, m2: int) -> int:
    """x mod m1*m2 with x = a (mod m1), x = b (mod m2); moduli coprime."""
    inv = pow(m1, -1, m2)
    return (a + m1 * (((b - a) * inv) % m2)) % (m1 * m2)


def _primitive_root_mod_prime(p: int) -> int:
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
    dlog = {prod(pow(g, t, n) for g, t in zip(gens, exps)) % n: exps
            for exps in product(*map(range, orders))}
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
    _, orders, dlog = _unit_group(n)
    level = lcm(*orders) if orders else 1
    out: list[DirichletCharacter] = []
    for index, exponents in enumerate(product(*map(range, orders))):
        table: list[int | None] = [None] * n
        for u, exps in dlog.items():
            table[u] = sum(t * x * (level // d)
                           for t, x, d in zip(exponents, exps, orders)) % level
        out.append(DirichletCharacter(n, index, exponents, level, tuple(table)))
    return tuple(out)


def trivial_character() -> DirichletCharacter:
    return enumerate_characters(1)[0]


def gauss_sum(chi: DirichletCharacter) -> CycNum:
    """sum over a mod N of chi(a) * zeta_N^a, at level L = lcm(N, value
    level): one reduction of the exponents r(a) * L/level + a * L/N.
    Not cached here: `pfdform._embedded_gauss_sum` keeps each one the
    pipeline asks for."""
    n = chi.modulus
    level = lcm(n, chi.level)
    return CycNum.from_exponents(level, (
        (r * (level // chi.level) + a * (level // n), 1)
        for a, r in enumerate(chi.table) if r is not None
    ))


def primitive_character(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character that induces chi.  chi is induced from the
    modulus f exactly when its conductor divides f, so the first divisor f
    of the modulus with a character psi mod f that agrees with chi on the
    units is the conductor, and that psi is primitive."""
    for f in divisors(chi.modulus):
        for psi in enumerate_characters(f):
            # psi's value level divides chi's, so compare rescaled exponents.
            step = chi.level // psi.level
            if all(r is None or psi.table[a % f] * step == r
                   for a, r in enumerate(chi.table)):
                return psi
    raise ArithmeticError("no character modulo a divisor induces chi")

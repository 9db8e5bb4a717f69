"""Partial-fraction data for Q(x)/Phi_N(x)^k and the resulting closed-form
Eisenstein representations of the single-sum series sum_n Q(q^n)/Phi_N(q^n)^k.

The pipeline: admissibility validation, exact Taylor data at each primitive
pole, the two independent routes to the weight coefficients (cross-asserted),
and the assembled F-form / G-form term lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .chars import (
    enumerate_characters,
    gauss_sum,
    primitive_character,
    trivial_character,
)
from .comb import (
    binomial,
    divisors,
    euler_phi,
    factorial,
    mobius,
    stirling_first_unsigned,
)
from .field import CycNum, coerce_pair, value_str, zeta
from .polynomial import Polynomial, cyclotomic_polynomial
from .series import EisensteinTerm, QSeries, g_constant


class ValidationError(ValueError):
    """Base class for admissibility failures; `clause` names the broken rule."""

    clause = "invalid"


class NonPositiveParameterError(ValidationError):
    clause = "positive parameters: t, N, k >= 1"


class DegreeTooLargeError(ValidationError):
    clause = "degree bound: deg Q < phi(N) * k"


class NonzeroConstantTermError(ValidationError):
    clause = "constant term: Q(0) = 0"


class SymmetryViolationError(ValidationError):
    clause = "functional equation: Q(x) = (-x)^k Q(1/x) for N = 1, " \
             "Q(x) = x^(phi(N) k) Q(1/x) for N >= 2"


class InternalMismatchError(ArithmeticError):
    """The two independent weight-coefficient formulas disagreed (a bug)."""


@dataclass(frozen=True)
class AdmissibleInput:
    """Parameters (N, k, Q) subject to the degree, vanishing, and symmetry rules."""

    N: int
    k: int
    Q: Polynomial

    def phi_times_k(self) -> int:
        return euler_phi(self.N) * self.k


def validate(inp: AdmissibleInput) -> AdmissibleInput:
    """Check all admissibility clauses, raising the one that fails."""
    for name in ("N", "k"):
        if getattr(inp, name) < 1:
            raise NonPositiveParameterError(f"{name} must be a positive integer")
    bound = inp.phi_times_k()
    if inp.Q.degree() >= bound:
        raise DegreeTooLargeError(
            f"deg Q = {inp.Q.degree()} is not below phi(N)*k = {bound}"
        )
    if inp.Q.coefficient(0) != 0:
        raise NonzeroConstantTermError("Q must vanish at 0")
    # x^bound Q(1/x) has coefficient Q[bound - i] at x^i; deg Q < bound, so
    # comparing every coefficient of Q with its mirror checks both sides.
    sign = (-1) ** inp.k if inp.N == 1 else 1
    q = inp.Q
    if any(q.coefficient(i) != sign * q.coefficient(bound - i)
           for i in range(len(q.coeffs))):
        raise SymmetryViolationError(
            f"Q = {inp.Q} breaks the reflection rule for N = {inp.N}, k = {inp.k}"
        )
    return inp


def pole_exponents(n: int) -> list[int]:
    """The exponents j <= (N-1)/2 coprime to N, one per conjugate pole pair."""
    return [j for j in range(1, (n - 1) // 2 + 1) if gcd(j, n) == 1]


@lru_cache(maxsize=None)
def _pole_taylor(n: int, k: int, q_poly: Polynomial) -> tuple[CycNum, ...]:
    """Taylor coefficients b_0..b_{k-1} of (1 - zeta x)^k Q(x)/Phi_N(x)^k
    around the pole x = zeta_N^{-1}, via exact series division in the
    variable u = 1 - zeta_N x.  Q is rational, so the data at every other
    pole zeta_N^{-s} is the Galois image under zeta -> zeta^s.  At N = 1
    (x = 1 - u, Phi_1 = -u) this gives b_m = (-1)^(m+k) Q^(m)(1)/m!, and at
    N = 2 (x = -1 + u, Phi_2 = u) it gives b_m = Q^(m)(-1)/m!.
    """
    pole = zeta(n, -1)
    x_of_u = QSeries([pole, -pole], k)
    phi_comp = cyclotomic_polynomial(n)(x_of_u)
    if phi_comp.coefficient(0):
        raise ArithmeticError("expansion point is not a root of the denominator")
    h = QSeries(phi_comp.coeffs[1:], k - 1)
    q_comp = q_poly(x_of_u).truncate(k - 1)
    a_series = q_comp * (h**k).inverse()
    return tuple(
        c if isinstance(c, CycNum) else CycNum.from_rational(n, c)
        for c in a_series.coeffs
    )


def _partial_sums(b: list) -> dict[int, object]:
    """a(r) = sum of b_m for m <= k - r, for r = 1..k."""
    k = len(b)
    out = {}
    acc = Fraction(0)
    sums = []
    for m in range(k):
        acc = acc + b[m]
        sums.append(acc)
    for r in range(1, k + 1):
        out[r] = sums[k - r]
    return out


def _c_from_a(a: dict[int, object], k: int) -> dict[int, object]:
    out = {}
    for ell in range(1, k + 1):
        acc = Fraction(0)
        for r in range(ell, k + 1):
            st = stirling_first_unsigned(r - 1, ell - 1)
            if st:
                acc = acc + a[r] * Fraction(st, factorial(r - 1))
        out[ell] = acc
    return out


def _c_from_taylor(b: list, k: int) -> dict[int, object]:
    """The derivative-based closed form for the weight coefficients, kept as
    an independent route and cross-asserted against the Stirling sum."""
    out = {}
    for ell in range(1, k + 1):
        acc = Fraction(0)
        for r in range(ell, k + 1):
            st = stirling_first_unsigned(r, ell)
            if not st:
                continue
            w = Fraction(
                factorial(k - r) * binomial(k - 1, r - 1) * st, factorial(k - 1)
            )
            acc = acc + b[k - r] * w
        out[ell] = acc
    return out


@dataclass
class PfdCoefficients:
    """Pole data for Q(x)/Phi_N(x)^k at the poles zeta_N^{-j}, j in
    `pole_exponents(N)` (j = 1 alone for N <= 2): Taylor data, a-coefficients
    per pole order, and the derived weight coefficients c.  The data at the
    conjugate pole zeta_N^{j} is the complex conjugate of the data at j."""

    input: AdmissibleInput
    a: dict = field(default_factory=dict)           # (j, r) -> value
    c: dict | None = None                           # (j, ell) -> value
    taylor: dict = field(default_factory=dict)      # j -> [b_0..b_{k-1}]


def pfd_coefficients(inp: AdmissibleInput) -> PfdCoefficients:
    """Compute the pole coefficients a(j, r).  One Taylor expansion at
    zeta_N^{-1} gives the data at every pole zeta_N^{-j} as its image under
    the Galois automorphism zeta -> zeta^j."""
    validate(inp)
    n = inp.N
    out = PfdCoefficients(input=inp)
    base = _pole_taylor(n, inp.k, inp.Q)
    for j in pole_exponents(n) if n > 2 else [1]:
        out.taylor[j] = [b.galois(j) for b in base]
    for j, b in out.taylor.items():
        for r, v in _partial_sums(b).items():
            out.a[(j, r)] = v
    return out


def c_coefficients(p: PfdCoefficients) -> PfdCoefficients:
    """Populate the weight coefficients c(j, ell) by the Stirling sum over
    a(j, r), cross-checked at every pole against the direct Taylor formula."""
    k = p.input.k
    p.c = {}
    for j, b in p.taylor.items():
        a_j = {r: p.a[(j, r)] for r in range(1, k + 1)}
        c_def = _c_from_a(a_j, k)
        c_alt = _c_from_taylor(b, k)
        for ell in range(1, k + 1):
            if c_def[ell] != c_alt[ell]:
                raise InternalMismatchError(
                    f"weight-coefficient routes disagree at j={j}, ell={ell}: "
                    f"{value_str(c_def[ell])} vs {value_str(c_alt[ell])}"
                )
            p.c[(j, ell)] = c_def[ell]
    return p


@dataclass(frozen=True)
class ClosedForm:
    """A finite combination of Eisenstein series equal to the single sum
    over n of Q(q^n)/Phi_N(q^n)^k.

    In the F-form the constant is zero and the terms are divisor-sum series.
    In the G-form every character is primitive (or trivial), each term reads
    as a completed Eisenstein series, and the constant makes up the exact
    difference at q^0.
    """

    input: AdmissibleInput
    form: str  # "F" or "G"
    terms: tuple[EisensteinTerm, ...]
    constant: object  # Fraction or CycNum

    def evaluate(self, order: int) -> QSeries:
        """The form's q-series, with Fraction coefficients.  The terms of one
        (dilation g, weight w) pair add up to the sum over m, n >= 1 of
        table[m] m^(w-1) q^(mng), where table[m] = sum of coef * chi(m) over
        the pair's terms depends only on m modulo the lcm of their moduli.
        Every entry of every table must be rational, else NotRationalError.
        """
        # Coefficients and character values sit at several levels; lift each
        # scalar once to their lcm, so the sums see one level.
        scalars = [t.coefficient for t in self.terms] + [self.constant]
        level = lcm(*(t.character.level for t in self.terms),
                    *(v.level for v in scalars if isinstance(v, CycNum)))

        def lift(v):
            return v.embed(level) if isinstance(v, CycNum) else v

        def rational(v) -> Fraction:
            return v.to_rational() if isinstance(v, CycNum) else Fraction(v)

        groups: dict[tuple[int, int], list[EisensteinTerm]] = {}
        for t in self.terms:
            groups.setdefault((t.dilation, t.weight), []).append(t)
        out = [Fraction(0)] * (order + 1)
        offset = lift(self.constant)
        for (g, w), terms in groups.items():
            period = lcm(*(t.character.modulus for t in terms))
            table = [Fraction(0)] * period
            for t in terms:
                c = lift(t.coefficient)
                chi = t.character
                step = level // chi.level
                row = [0 if r is None else c * zeta(level, r * step)
                       for r in chi.table]
                for m in range(period):
                    table[m] = table[m] + row[m % chi.modulus]
                if self.form == "G":
                    offset = offset + c * lift(g_constant(w, chi))
            table = [rational(v) for v in table]
            for m in range(1, order // g + 1):
                v = table[m % period]
                if v:
                    v = v * m ** (w - 1)
                    for e in range(m * g, order + 1, m * g):
                        out[e] += v
        out[0] += rational(offset)
        return QSeries(out, order)

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "N": self.input.N,
            "k": self.input.k,
            "Q": str(self.input.Q),
            "terms": [t.to_json() for t in self.terms],
            "constant": value_str(self.constant),
        }


def _term_sort_key(t: EisensteinTerm):
    return (t.dilation, t.character.modulus, t.character.index, t.weight)


def _merge_terms(acc: dict, key, coefficient):
    if key in acc:
        a, b = coerce_pair(acc[key], coefficient)
        acc[key] = a + b
    else:
        acc[key] = coefficient


def _collect(acc: dict) -> tuple[EisensteinTerm, ...]:
    terms = [
        EisensteinTerm(weight=ell, character=chi, dilation=g, coefficient=coef)
        for (g, chi, ell), coef in acc.items()
        if coef
    ]
    terms.sort(key=_term_sort_key)
    return tuple(terms)


def closed_form(inp: AdmissibleInput) -> ClosedForm:
    """The F-form Eisenstein representation of sum_n Q(q^n)/Phi_N(q^n)^k.

    Weight-ell terms carry dilations g | N and conjugated characters modulo
    N/g of parity (-1)^ell; their scalar weights combine the pole data with
    Gauss sums.  For N <= 2 only the trivial character appears.
    """
    validate(inp)
    n, k = inp.N, inp.k
    p = c_coefficients(pfd_coefficients(inp))
    one = trivial_character()
    acc: dict = {}
    if n == 1:
        for ell in range(2, k + 1, 2):
            acc[(1, one, ell)] = p.c[(1, ell)]
    elif n == 2:
        for ell in range(2, k + 1, 2):
            c = p.c[(1, ell)]
            acc[(2, one, ell)] = c * 2**ell
            acc[(1, one, ell)] = -c
    else:
        for ell in range(1, k + 1):
            cs = [(j, p.c[(j, ell)]) for j in pole_exponents(n)]
            for g in divisors(n):
                reduced = n // g
                scale = Fraction(2 * g ** (ell - 1), euler_phi(reduced))
                for chi in enumerate_characters(reduced):
                    if chi.parity != (-1) ** ell:
                        continue
                    # The pole data (level N) summed against chi_bar(j) =
                    # zeta_e^(-r(j)) is one reduction at L = lcm(N, e); then
                    # one product with the Gauss sum, embedded at L.
                    level = lcm(n, chi.level)
                    step_n, step_e = level // n, level // chi.level
                    pole_sum = CycNum.from_exponents(level, (
                        (i * step_n - chi.table[j % reduced] * step_e, v)
                        for j, c in cs for i, v in enumerate(c.coeffs) if v
                    ))
                    acc[(g, chi.conjugate(), ell)] = (
                        gauss_sum(chi).embed(level) * (pole_sum * scale))
    return ClosedForm(inp, "F", _collect(acc), Fraction(0))


def to_g_form(cf: ClosedForm) -> ClosedForm:
    """Rewrite an F-form over primitive (or trivial) characters and complete
    each series with its constant term; the returned `constant` is the exact
    q^0 correction, so both forms evaluate to the same series.
    """
    if cf.form != "F":
        raise ValueError("expected an F-form")
    acc: dict = {}
    for t in cf.terms:
        chi = t.character
        psi = primitive_character(chi) if chi.modulus > 1 else chi
        for d in divisors(chi.modulus):
            mu = mobius(d)
            if mu == 0:
                continue
            psi_d = psi.value(d)
            if not psi_d:
                continue
            coef, psi_d = coerce_pair(t.coefficient, psi_d)
            coef = coef * psi_d * Fraction(mu * d ** (t.weight - 1))
            _merge_terms(acc, (t.dilation * d, psi, t.weight), coef)
    terms = _collect(acc)
    constant = Fraction(0)
    for t in terms:
        coef, g_const = coerce_pair(t.coefficient, g_constant(t.weight, t.character))
        constant, term = coerce_pair(constant, coef * g_const)
        constant = constant - term
    return ClosedForm(cf.input, "G", terms, constant)


def conjugate_relation_violations(inp: AdmissibleInput) -> list[tuple]:
    """Tuples (j, ell, c, c') where the weight coefficient c' = conj(c) at
    the conjugate pole zeta_N^{j} breaks c' = (-1)^ell c.  The relation holds
    only because Q satisfies the reflection rule, and the closed form relies
    on it, so violations are surfaced rather than silently absorbed.  At
    N <= 2 the one pole is real, so the relation says that the odd-weight
    coefficients vanish."""
    p = c_coefficients(pfd_coefficients(inp))
    bad = []
    for (j, ell), c in p.c.items():
        c_bar = c.conjugate()
        if c_bar != c * (-1) ** ell:
            bad.append((j, ell, c, c_bar))
    return bad


def admissible_polynomials(n: int, k: int) -> list[Polynomial]:
    """The generating family of admissible numerators for (N, k): symmetric
    binomials x^r + x^(D-r) (signed when N = 1 and k is odd) together with
    the middle monomial when D = phi(N) k is even."""
    d = euler_phi(n) * k
    out: list[Polynomial] = []
    sign = (-1) ** k if n == 1 else 1
    for r in range(1, (d + 1) // 2):
        if d - r != r:
            out.append(
                Polynomial.monomial(r) + sign * Polynomial.monomial(d - r)
            )
    if d % 2 == 0 and d >= 2 and (n > 1 or k % 2 == 0):
        out.append(Polynomial.monomial(d // 2))
    return [validate(AdmissibleInput(n, k, q)).Q for q in out]

"""Partial-fraction data for Q(x)/Phi_N(x)^k and the resulting closed-form
Eisenstein representations of the single-sum series sum_n Q(q^n)/Phi_N(q^n)^k.

The pipeline: admissibility validation, exact Taylor data at the primitive
pole zeta_N^{-1} (every other pole is a Galois image), the two independent
routes to the weight coefficients (cross-asserted), and the assembled F-form /
G-form term lists.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from .chars import (
    DirichletCharacter,
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
)
from .field import CycNum, NotRationalError, _canonical, _reduce
from .polynomial import Polynomial, cyclotomic_power
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


class AdmissibleInput(NamedTuple):
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
    q = inp.Q.nums
    if any(q[:1]):
        raise NonzeroConstantTermError("Q must vanish at 0")
    # x^bound Q(1/x) has coefficient Q[bound - i] at x^i; deg Q < bound, so
    # comparing every coefficient of Q with its mirror checks both sides.
    sign = (-1) ** inp.k if inp.N == 1 else 1
    if any(c != sign * (q[bound - i] if bound - i < len(q) else 0)
           for i, c in enumerate(q)):
        raise SymmetryViolationError(
            f"Q = {inp.Q} breaks the reflection rule for N = {inp.N}, k = {inp.k}"
        )
    return inp


def pole_exponents(n: int) -> list[int]:
    """The exponents j <= (N-1)/2 coprime to N, one per conjugate pole pair."""
    return [j for j in range(1, (n - 1) // 2 + 1) if gcd(j, n) == 1]


@lru_cache(maxsize=None)
def _pole_factors(n: int, k: int) -> tuple[Polynomial, tuple[int, ...]]:
    """P^k, for the cofactor P = (x^N - 1)/Phi_N, and the row S_0..S_(k-1)
    of `_pole_taylor`: the pole data that do not depend on Q."""
    cofactor = Polynomial([-c for c in cyclotomic_power(n, -1, n - euler_phi(n))])
    power = Polynomial([1])
    for _ in range(k):
        power = power * cofactor
    big_r = [(-1) ** i * binomial(n, i + 1) * n ** (i - 1) for i in range(1, k)]
    big_s = [1]
    for j in range(1, k):
        big_s.append(-sum((j + (k - 1) * i) * big_r[i - 1] * big_s[j - i]
                          for i in range(1, j + 1)) // j)
    return power, tuple(big_s)


def _pole_taylor(n: int, k: int, q_poly: Polynomial) -> tuple[CycNum, ...]:
    """Taylor coefficients b_0..b_{k-1} of (1 - zeta x)^k Q(x)/Phi_N(x)^k
    around the pole x = zeta_N^{-1}, in the variable u = 1 - zeta_N x, with
    no division in Q(zeta_N).  Q is rational, so the data at every other
    pole zeta_N^{-s} is the Galois image under zeta -> zeta^s.

    At the pole x^N = (1 - u)^N, and (1 - u)^N - 1 = -u r(u) with
    r(u) = sum_m (-1)^m binomial(N, m+1) u^m, r(0) = N.  The cofactor
    P = (x^N - 1)/Phi_N, the product of Phi_d over the divisors d < N, has
    integer coefficients and degree N - phi(N) < N, so it is -Phi_N^-1
    truncated there; and Phi_N P = -u r(u) gives
        (1 - zeta x)^k Q/Phi_N^k = (-1)^k Q P^k / r(u)^k.
    As x^i = zeta_N^{-i} (1 - u)^i, the u^j coefficient A_j of
    Q P^k = sum_i c_i x^i is (-1)^j sum_i c_i binomial(i, j) zeta_N^{-i}:
    one reduction per j, to an integer row over the denominator of Q P^k.
    The factor r^{-k} is rational: R(v) = r(N v)/N = 1 + sum_{i>=1} r_i
    N^(i-1) v^i has integer coefficients and constant term 1, so R^{-k}
    does too, and its coefficients S_j = N^(k+j) [u^j] r^{-k} follow from
    R (R^{-k})' = -k R' R^{-k}:  j S_j = -sum_{i=1..j} (j + (k-1) i) R_i S_(j-i).
    So b_m = (-1)^k N^(-k-m) sum_{j<=m} (N^j A_j) S_(m-j), an integer
    combination of the rows and one CycNum per m.  At N = 1 (P = 1,
    r = 1) this gives b_m = (-1)^(m+k) Q^(m)(1)/m!, and at N = 2 (P = x - 1,
    r = 2 - u) it gives b_m = Q^(m)(-1)/m!.  P^k and the S_j depend on
    (N, k) only, and come from `_pole_factors`.
    """
    power, big_s = _pole_factors(n, k)
    f = q_poly * power
    # N^j A_j as integer rows over f.den, so that the products with the
    # integers S_j need no Fractions.  The term c_i (-N)^j binomial(i, j)
    # goes from j to j + 1 by the exact factor -N (i - j)/(j + 1).
    terms = [(i, c) for i, c in enumerate(f.nums) if c]
    rows = []
    for j in range(k):
        dense = [0] * n
        for i, c in terms:
            dense[-i % n] += c
        rows.append(_reduce(n, dense))
        terms = [(i, -n * (i - j) * c // (j + 1)) for i, c in terms if i > j]
    den, sign = f.den, (-1) ** k
    return tuple(_canonical(n, [
        sign * sum(big_s[m - j] * row[i] for j, row in enumerate(rows[:m + 1]))
        for i in range(len(rows[0]))], den * n ** (k + m)) for m in range(k))


def _partial_sums(b: list) -> dict[int, object]:
    """a(r) = sum of b_m for m <= k - r, for r = 1..k."""
    sums = list(accumulate(b))
    return {r: sums[len(b) - r] for r in range(1, len(b) + 1)}


def _c_from_a(a: Mapping[int, CycNum], k: int) -> dict[int, CycNum]:
    """Route 1: sum_ell c(ell) x^(ell-1) = sum_r a(r)/(r-1)! x(x+1)...(x+r-2),
    the unsigned Stirling numbers being the coefficients of the rising
    factorial.  Horner's rule runs on rows of integers over den (k-1)!."""
    level, den = a[1].level, lcm(*(v.den for v in a.values()))
    zero = [0] * len(a[1].nums)
    h: list[list[int]] = []
    scale = 1                                   # (k-1)!/(r-1)!
    for r in range(k, 0, -1):
        # h <- h (x + r - 1) + a(r) (k-1)!/(r-1)!
        h = [[(r - 1) * u + v for u, v in zip(hi, lo)]
             for hi, lo in zip(h + [zero], [zero] + h)]
        step = scale * (den // a[r].den)
        h[0] = [u + step * v for u, v in zip(h[0], a[r].nums)]
        scale *= r - 1
    den *= factorial(k - 1)
    return {ell: _canonical(level, row, den) for ell, row in enumerate(h, 1)}


def _c_from_taylor(b: tuple[CycNum, ...], k: int) -> dict[int, CycNum]:
    """Route 2, from the Taylor data directly: sum_ell c(ell) x^ell =
    sum_r b_(k-r)/(r-1)! x(x+1)...(x+r-1).  Its own Horner loop, on rows of
    integers over den (k-1)!, so that neither route checks itself."""
    level, den = b[0].level, lcm(*(v.den for v in b))
    zero = [0] * len(b[0].nums)
    h: list[list[int]] = []
    scale = 1                                   # (k-1)!/(r-1)!
    for r in range(k, 0, -1):
        # h <- h (x + r) + b_(k-r) (k-1)!/(r-1)!; the sum is then x h.
        h = [[r * u + v for u, v in zip(hi, lo)]
             for hi, lo in zip(h + [zero], [zero] + h)]
        step = scale * (den // b[k - r].den)
        h[0] = [u + step * v for u, v in zip(h[0], b[k - r].nums)]
        scale *= r - 1
    den *= factorial(k - 1)
    return {ell: _canonical(level, row, den) for ell, row in enumerate(h, 1)}


class PfdCoefficients(NamedTuple):
    """Checked pole data for Q(x)/Phi_N(x)^k at the pole zeta_N^{-1}: Taylor
    data, a-coefficients per pole order, and the weight coefficients c.
    Q is rational, so the data at the pole zeta_N^{-j} is the image under
    sigma_j: zeta -> zeta^j, and the data at zeta_N^{j} is its complex
    conjugate.  Records are shared through the cache of `pfd_coefficients`,
    so the maps are read-only."""

    input: AdmissibleInput
    taylor: tuple[CycNum, ...]          # b_0..b_{k-1}
    a: Mapping[int, CycNum]             # r -> a(r)
    c: Mapping[int, CycNum]             # ell -> c(ell)


def c_coefficients(taylor: tuple, a: Mapping) -> dict[int, CycNum]:
    """The weight coefficients c(ell) from the a(r), cross-checked against
    the direct formula in the Taylor data.  Both routes are
    Q-linear in the Taylor data and every sigma_j fixes Q, so agreement at
    zeta_N^{-1} is agreement at every pole."""
    k = len(taylor)
    c_def, c_alt = _c_from_a(a, k), _c_from_taylor(taylor, k)
    for ell in range(1, k + 1):
        if c_def[ell] != c_alt[ell]:
            raise InternalMismatchError(
                f"weight-coefficient routes disagree at ell={ell}: "
                f"{c_def[ell]} vs {c_alt[ell]}"
            )
    return c_def


@lru_cache(maxsize=None)
def pfd_coefficients(inp: AdmissibleInput) -> PfdCoefficients:
    """Validate `inp` and build its checked pole data from one Taylor
    expansion at zeta_N^{-1}; memoized, so every caller shares one expansion
    and one check of the two weight-coefficient routes."""
    validate(inp)
    b = _pole_taylor(inp.N, inp.k, inp.Q)
    a = _partial_sums(b)
    return PfdCoefficients(inp, b, MappingProxyType(a),
                           MappingProxyType(c_coefficients(b, a)))


class ClosedForm(NamedTuple):
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
    constant: CycNum

    def evaluate(self, order: int) -> QSeries:
        """The form's q-series, a rational QSeries.  The terms of one
        (dilation g, weight w) pair add up to the sum over m, n >= 1 of
        table[m] m^(w-1) q^(mng), where table[m] = sum of coef * chi(m) over
        the pair's terms depends only on m modulo the lcm of their moduli.
        Every entry of every table must be rational, else NotRationalError.
        Over one common denominator, the integers table[m] m^(w-1) of all
        pairs add up in b[m g], one residue class of m modulo the period at
        a time, so that a zero entry costs nothing and each other entry is
        scaled once.  One divisor-sum pass over b gives the series: its q^e
        coefficient is the sum of b[d] over d | e.
        """
        groups: dict[tuple[int, int], list[EisensteinTerm]] = {}
        for t in self.terms:
            groups.setdefault((t.dilation, t.weight), []).append(t)
        offset = self.constant
        tables = []
        for (g, w), terms in groups.items():
            period = lcm(*(t.character.modulus for t in terms))
            level = lcm(*(t.coefficient.level for t in terms),
                        *(t.character.level for t in terms))
            den = lcm(*(t.coefficient.den for t in terms))
            # coef * chi(m) = sum of c_i zeta_L^(i L/level_c + r(m) L/e), so
            # each table entry is one reduction at L = level.
            rows = []
            for t in terms:
                c, chi = t.coefficient, t.character
                step, scale = level // c.level, den // c.den
                rows.append(([(i * step, v * scale)
                              for i, v in enumerate(c.nums) if v],
                             chi, level // chi.level))
                if self.form == "G":
                    offset = offset + c * g_constant(w, chi)
            # Each entry is one integer row at the level, over den; where no
            # character is defined at m, the entry is zero.
            table = []
            for m in range(period):
                shifts = []
                for coef, chi, step in rows:
                    r = chi.table[m % chi.modulus]
                    if r is not None:
                        shifts.append((coef, r * step))
                if not shifts:
                    table.append(0)
                    continue
                dense = [0] * level
                for coef, shift in shifts:
                    for e, v in coef:
                        dense[(e + shift) % level] += v
                row = _reduce(level, dense)
                if any(row[1:]):
                    raise NotRationalError(_canonical(level, row, den))
                table.append(row[0])
            tables.append((g, w, den, table))
        offset = offset.to_rational()
        den = lcm(offset.denominator, *(d for _, _, d, _ in tables))
        b = [0] * (order + 1)
        for g, w, d, table in tables:
            period, top, scale = len(table), order // g, den // d
            for r, v in enumerate(table):
                if v:
                    v *= scale
                    for m in range(r or period, top + 1, period):
                        b[m * g] += v * m ** (w - 1)
        out = [offset.numerator * (den // offset.denominator)] + [0] * order
        for d in range(1, order + 1):
            if b[d]:
                for e in range(d, order + 1, d):
                    out[e] += b[d]
        return QSeries(out, order, den)

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "N": self.input.N,
            "k": self.input.k,
            "Q": str(self.input.Q),
            "terms": [t.to_json() for t in self.terms],
            "constant": str(self.constant),
        }


def _term_sort_key(t: EisensteinTerm):
    return (t.dilation, t.character.modulus, t.character.index, t.weight)


def _collect(acc: dict) -> tuple[EisensteinTerm, ...]:
    terms = [
        EisensteinTerm(weight=ell, character=chi, dilation=g, coefficient=coef)
        for (g, chi, ell), coef in acc.items()
        if coef
    ]
    terms.sort(key=_term_sort_key)
    return tuple(terms)


@lru_cache(maxsize=None)
def _modulus_plan(n: int) -> tuple[tuple, ...]:
    """What `closed_form` needs at N >= 3 apart from Q and k: per g | N and
    per chi mod N/g, the tuple (g, phi(N/g), the first weight of chi's
    parity, L = lcm(N, e), chi, chi_bar)."""
    return tuple((g, euler_phi(n // g), 1 if chi.parity < 0 else 2,
                  lcm(n, chi.level), chi, chi.conjugate())
                 for g in divisors(n) for chi in enumerate_characters(n // g))


@lru_cache(maxsize=None)
def _embedded_gauss_sum(chi: DirichletCharacter, level: int) -> CycNum:
    """The Gauss sum of chi embedded at `level`; asked for only for the
    characters that get a weight with nonzero c(ell)."""
    return gauss_sum(chi).embed(level)


def closed_form(inp: AdmissibleInput) -> ClosedForm:
    """The F-form Eisenstein representation of sum_n Q(q^n)/Phi_N(q^n)^k.

    Weight-ell terms carry dilations g | N and conjugated characters modulo
    N/g of parity (-1)^ell.  At N >= 3 the coefficient of (g, conj(chi), ell)
    is 2 g^(ell-1)/phi(N/g) times the Gauss sum of chi times the sum over
    the poles j of c(j, ell) conj(chi)(j): one convolution of two integer
    rows at L = lcm(N, e) and one reduction, and none where c(ell) = 0.
    For N <= 2 only the trivial character appears.
    """
    n, k = inp.N, inp.k
    p = pfd_coefficients(inp)
    one = trivial_character()
    acc: dict = {}
    if n == 1:
        for ell in range(2, k + 1, 2):
            acc[(1, one, ell)] = p.c[ell]
    elif n == 2:
        for ell in range(2, k + 1, 2):
            c = p.c[ell]
            acc[(2, one, ell)] = c * 2**ell
            acc[(1, one, ell)] = -c
    else:
        poles = pole_exponents(n)
        # c(j, ell) = sigma_j(c(1, ell)) = sum of v_i zeta_N^(i j) / den.
        rows = {ell: ([(i, v) for i, v in enumerate(c.nums) if v], c.den)
                for ell, c in p.c.items()}
        for g, phi, first, level, chi, chi_bar in _modulus_plan(n):
            weights = [ell for ell in range(first, k + 1, 2) if rows[ell][0]]
            if not weights:
                continue
            # The pole data (level N) summed against chi_bar(j) =
            # zeta_e^(-r(j)) are collected by exponent at L = lcm(N, e);
            # each collected term times each entry of the Gauss sum goes
            # into one row, below L + phi(L), that `_reduce` reduces once.
            shifts = [(j * (level // n), chi.table[j % chi.modulus]
                       * (level // chi.level)) for j in poles]
            gauss = _embedded_gauss_sum(chi, level)
            entries = [(a, x) for a, x in enumerate(gauss.nums) if x]
            for ell in weights:
                nums, den = rows[ell]
                pole = [0] * level
                for j, r in shifts:
                    for i, v in nums:
                        pole[(i * j - r) % level] += v
                dense = [0] * (level + len(gauss.nums))
                for e, v in enumerate(pole):
                    if v:
                        for a, x in entries:
                            dense[e + a] += v * x
                scale = 2 * g ** (ell - 1)
                acc[(g, chi_bar, ell)] = _canonical(
                    level, [v * scale for v in _reduce(level, dense)],
                    den * phi * gauss.den)
    return ClosedForm(inp, "F", _collect(acc), CycNum.zero())


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
        psi = primitive_character(chi)
        for d in divisors(chi.modulus):
            mu = mobius(d)
            if mu == 0:
                continue
            psi_d = psi.value(d)
            if not psi_d:
                continue
            coef = t.coefficient * psi_d * (mu * d ** (t.weight - 1))
            key = (t.dilation * d, psi, t.weight)
            acc[key] = acc[key] + coef if key in acc else coef
    terms = _collect(acc)
    constant = CycNum.zero()
    for t in terms:
        constant = constant - t.coefficient * g_constant(t.weight, t.character)
    return ClosedForm(cf.input, "G", terms, constant)


def conjugate_relation_violations(inp: AdmissibleInput) -> list[tuple]:
    """Tuples (ell, c, c') where the weight coefficient c' = conj(c) at the
    conjugate pole zeta_N breaks c' = (-1)^ell c, in the pole data of
    `inp`.  The relation holds only because Q satisfies the
    reflection rule, and the closed form relies on it, so violations are
    surfaced rather than silently absorbed.  Complex conjugation commutes
    with every sigma_j, so the one pole zeta_N^{-1} decides the relation at
    all of them.  At N <= 2 the one pole is real, so the relation says that
    the odd-weight coefficients vanish."""
    return [(ell, c, bar) for ell, c in pfd_coefficients(inp).c.items()
            if (bar := c.conjugate()) != c * (-1) ** ell]


def admissible_polynomials(n: int, k: int) -> list[Polynomial]:
    """The generating family of admissible numerators for (N, k): symmetric
    binomials x^r + x^(D-r) (signed when N = 1 and k is odd) together with
    the middle monomial when D = phi(N) k is even."""
    d = euler_phi(n) * k
    out: list[Polynomial] = []
    sign = (-1) ** k if n == 1 else 1
    for r in range(1, (d + 1) // 2):
        out.append(
            Polynomial.monomial(r) + sign * Polynomial.monomial(d - r)
        )
    if d % 2 == 0:
        out.append(Polynomial.monomial(d // 2))
    return out

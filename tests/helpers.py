"""Shared corpus construction, slow oracles and test-only algebra for the
test suite."""

import importlib
import pkgutil
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, isqrt, lcm
from pathlib import Path
from types import CodeType

import cyclomac
from cyclomac import (
    AdmissibleInput,
    CycNum,
    LevelMismatchError,
    MacMahonSpec,
    Polynomial,
    QSeries,
    admissible_polynomials,
    brute_force,
    cyclotomic_polynomial,
    divisors,
    enumerate_characters,
    euler_phi,
    f_series,
    g_constant,
    gauss_sum,
    pfd_coefficients,
    pole_exponents,
    weight_series,
    zeta,
)
from cyclomac.cli import MAX_EXPONENT, PolynomialSyntaxError, _tokenize
from cyclomac.field import coerce_pair

PACKAGE_MODULES = [importlib.import_module(f"cyclomac.{info.name}")
                   for info in pkgutil.iter_modules(cyclomac.__path__)]


def sweep_inputs(max_n: int = 12, max_k: int = 4, degree_bound: int = 12):
    """The admissible corpus: all (N, k, Q) with N <= max_n, k <= max_k,
    phi(N) * k <= degree_bound, and Q from the generating family."""
    out = []
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            if euler_phi(n) * k > degree_bound:
                continue
            for q in admissible_polynomials(n, k):
                out.append(AdmissibleInput(n, k, q))
    return out


@lru_cache(maxsize=None)
def gauss_sum_per_residue(chi) -> CycNum:
    """sum over a mod N of chi(a) * zeta_N^a at level lcm(N, chi.level),
    one embedded product per residue; an oracle for the one-reduction
    `gauss_sum`."""
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


def closed_form_per_pole(inp: AdmissibleInput) -> dict:
    """The F-form coefficients {(dilation, character, weight): coefficient}
    for N >= 3 by the per-pole route: for each pole j, the Gauss sum times
    the scaled weight coefficient c(j, ell) = sigma_j(c(1, ell)) times
    conj(chi)(j), merged by key; an oracle for `closed_form`, which sums
    over the poles first."""
    n, k = inp.N, inp.k
    p = pfd_coefficients(inp)
    acc: dict = {}
    for j in pole_exponents(n):
        for ell in range(1, k + 1):
            c = p.c[ell].galois(j)
            if not c:
                continue
            for g in divisors(n):
                reduced = n // g
                scale = CycNum.from_rational(c.level, 2 * g ** (ell - 1),
                                             euler_phi(reduced))
                for chi in enumerate_characters(reduced):
                    if chi.parity != (-1) ** ell:
                        continue
                    chi_bar = chi.conjugate()
                    g_sum, pole = coerce_pair(gauss_sum_per_residue(chi),
                                              c * scale)
                    coef = g_sum * pole * chi_bar.value(j).embed(g_sum.level)
                    key = (g, chi_bar, ell)
                    if key in acc:
                        old, coef = coerce_pair(acc[key], coef)
                        coef = old + coef
                    acc[key] = coef
    return {key: coef for key, coef in acc.items() if coef}


def series_mul(a: list, b: list) -> list:
    """The product of two truncated series given as coefficient lists of one
    length, over any exact scalars (ints, Fractions, CycNums at one level)."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i], i):
                if y:
                    out[j] = out[j] + x * y
    return out


def series_inverse(a: list) -> list:
    """The inverse of a truncated series with an invertible constant term,
    over the same scalars as `series_mul`."""
    inv0 = a[0].inverse() if isinstance(a[0], CycNum) else 1 / a[0]
    out = [inv0]
    for n in range(1, len(a)):
        out.append(-inv0 * sum((a[i] * out[n - i] for i in range(1, n + 1)
                                if a[i]), 0))
    return out


def pole_taylor_by_horner(n: int, k: int, q_poly: Polynomial) -> tuple:
    """Taylor coefficients b_0..b_{k-1} of (1 - zeta x)^k Q(x)/Phi_N(x)^k
    at x = zeta_N^{-1}, with Phi_N and Q evaluated at x = zeta_N^{-1}(1 - u)
    by Horner's rule on series in u; an oracle for the binomial sums of
    `pfdform._pole_taylor`."""
    pole = zeta(n, -1)
    x_of_u = [pole, -pole] + [0] * (k - 1)

    def compose(p: Polynomial) -> list:
        acc = [0] * (k + 1)
        for c in reversed(p.nums):
            acc = series_mul(acc, x_of_u)
            acc[0] = acc[0] + c
        return [c * CycNum.from_rational(n, 1, p.den) for c in acc]

    phi_comp = compose(cyclotomic_polynomial(n))
    if phi_comp[0]:
        raise ArithmeticError("expansion point is not a root of the denominator")
    h_power = [1] + [0] * (k - 1)
    for _ in range(k):
        h_power = series_mul(h_power, phi_comp[1:])
    a_series = series_mul(compose(q_poly)[:k], series_inverse(h_power))
    return tuple(
        c if isinstance(c, CycNum) else CycNum.from_rational(n, c)
        for c in a_series
    )


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
    out: dict[int, CycNum] = {}
    for chi in enumerate_characters(n_red):
        level = lcm(n_red, chi.level)
        term = gauss_sum(chi) * chi.conjugate().value(m_red).embed(level)
        out[chi.index] = term * CycNum.from_rational(level, 1,
                                                     euler_phi(n_red))
    return out


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


def nested_enumeration(spec: MacMahonSpec, order: int) -> QSeries:
    """Direct sum over index tuples; exponential in t, test oracle only.
    Tuples with index sum beyond the order cannot contribute."""
    w1 = weight_series(spec.N, spec.k, spec.Q, order)
    weights = {n: list(substitute_qn(w1, n, order).coeffs)
               for n in range(1, order + 1)}
    total = [Fraction(0)] * (order + 1)

    def recurse(start: int, depth: int, budget: int, prod: list):
        if depth == 0:
            for e, c in enumerate(prod):
                total[e] += c
            return
        for n in range(start, budget + 1):
            recurse(n + (1 if spec.strict else 0), depth - 1, budget - n,
                    series_mul(prod, weights[n]))

    recurse(1, spec.t, order, [Fraction(1)] + [Fraction(0)] * order)
    return QSeries(total, order)


@dataclass(frozen=True)
class Partition:
    """A partition of a positive integer, stored as part -> multiplicity."""

    multiplicities: tuple[tuple[int, int], ...]  # sorted (part, multiplicity) pairs

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        mult: dict[int, int] = {}
        for s in parts:
            mult[s] = mult.get(s, 0) + 1
        return cls(tuple(sorted(mult.items())))

    def total(self) -> int:
        return sum(s * m for s, m in self.multiplicities)

    def parts(self) -> list[int]:
        out: list[int] = []
        for s, m in sorted(self.multiplicities, reverse=True):
            out.extend([s] * m)
        return out


def partitions(n: int) -> list[Partition]:
    """All partitions of n, ordered lexicographically by descending part lists."""
    if n < 1:
        raise ValueError("partitions are defined for positive integers")

    def gen(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield list(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from gen(remaining - part, part, prefix)
            prefix.pop()

    return [Partition.from_parts(p) for p in gen(n, n, [])]


@dataclass(frozen=True)
class IsobaricTerm:
    """One monomial prod_s U_s^(m_s) with its rational weight and sign."""

    partition: Partition
    weight: Fraction
    sign: int


def isobaric_decomposition(t: int, strict: bool) -> list[IsobaricTerm]:
    """Expansion of the degree-t coefficient of the product generating
    function in the single sums U_s: one term per partition of t, with
    weight prod_s 1/(m_s! s^(m_s)) and, in the strict case, the sign
    (-1)^(t - number of parts)."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    out = []
    for lam in partitions(t):
        weight = Fraction(1)
        sign_exp = 0
        for s, m in lam.multiplicities:
            weight /= factorial(m) * Fraction(s) ** m
            sign_exp += (s - 1) * m
        out.append(
            IsobaricTerm(lam, weight, (-1) ** sign_exp if strict else 1)
        )
    return out


def brute_single_sums(n: int, k: int, q_poly: Polynomial, t: int,
                      order: int) -> list[QSeries]:
    """The single sums U_1..U_t of (N, k, Q) by brute force, U_s at weight
    s k with numerator Q^s: the input `evaluate_isobaric` assembles."""
    return [brute_force(MacMahonSpec(1, n, s * k,
                                     poly_from_rationals(
                                         frac_pow(q_poly.coeffs, s))),
                        order)
            for s in range(1, t + 1)]


def isobaric_by_partitions(single_sum, t: int, strict: bool,
                           order: int) -> QSeries:
    """The nested series as the published isobaric polynomial in the single
    sums, one Fraction series product per part of every partition of t; an
    oracle for the Newton assembly of `evaluate_isobaric`."""
    total = [Fraction(0)] * (order + 1)
    for term in isobaric_decomposition(t, strict):
        prod = [term.weight * term.sign] + [Fraction(0)] * order
        for s in term.partition.parts():
            prod = series_mul(prod, single_sum(s).coeffs)
        total = [a + b for a, b in zip(total, prod)]
    return QSeries(total, order)


def bernoulli_by_generating_function(k: int, chi):
    """B_{k,chi} read off the exponential generating function
    sum_a chi(a) t e^(a t) / (e^(f t) - 1), f the modulus, by truncated
    series division; an oracle independent of the Bernoulli-polynomial sum."""
    f, level = chi.modulus, chi.level
    # numerator / t = sum_a chi(a) e^(a t); denominator / t = (e^(f t) - 1) / t,
    # inverted over Fractions.
    num = [sum((chi.value(a) * a**i for a in range(1, f + 1)), 0)
           * CycNum.from_rational(level, 1, factorial(i)) for i in range(k + 1)]
    den = [Fraction(f ** (i + 1), factorial(i + 1)) for i in range(k + 1)]
    inv = [from_rationals(level, {0: c}) for c in series_inverse(den)]
    return series_mul(num, inv)[k] * factorial(k)


def reconstruct_series(p, order: int) -> list:
    """Re-expand the partial-fraction sum of pole data `p` (a
    PfdCoefficients) as the coefficients of a power series in x, read as
    Fractions (NotRationalError if one is not rational); they must equal
    those of the direct series of Q(x)/Phi_N(x)^k."""
    n, k = p.input.N, p.input.k
    coeffs: list = [0] * (order + 1)

    def add_family(values: dict[int, object], root_exp: int):
        # Each pole family contributes a(r) * zeta^(root_exp) x / (1 - zeta^(root_exp) x)^r,
        # whose x^m coefficient is a(r) * binom(m+r-2, r-1) * zeta^(root_exp * m).
        # At N = 2 the root is -1, giving the alternating sign (-1)^m; at N = 1 it is 1.
        for r in range(1, k + 1):
            a_r = values[r]
            if not a_r:
                continue
            for m in range(1, order + 1):
                w = comb(m + r - 2, r - 1)
                if n <= 2:
                    term = a_r * (w if n == 1 else w * (-1) ** m)
                else:
                    term = a_r * zeta(n, root_exp * m) * w
                coeffs[m] = coeffs[m] + term

    if n <= 2:
        add_family(p.a, 0)
    else:
        # The data at the pole zeta^-j is sigma_j of the data at zeta^-1,
        # and the data at the conjugate pole zeta^j is its complex conjugate.
        for j in pole_exponents(n):
            add_family({r: p.a[r].galois(j) for r in range(1, k + 1)}, j)
            add_family({r: p.a[r].galois(j).conjugate()
                        for r in range(1, k + 1)}, -j)
    return [as_fraction(c) if isinstance(c, CycNum) else Fraction(c)
            for c in coeffs]


def rational_function_series(inp: AdmissibleInput, order: int) -> list:
    """The coefficients of the direct power-series expansion of
    Q(x)/Phi_N(x)^k, by Fraction list products."""
    out = list(QSeries(inp.Q.coeffs, order).coeffs)
    phi_inverse = series_inverse(
        QSeries(cyclotomic_polynomial(inp.N).coeffs, order).coeffs)
    for _ in range(inp.k):
        out = series_mul(out, phi_inverse)
    return out


def verify_reconstruction(p, order: int | None = None) -> bool:
    if order is None:
        order = 4 * p.input.phi_times_k()
    return reconstruct_series(p, order) == rational_function_series(
        p.input, order)


def evaluate_term_by_term(cf, order: int) -> list:
    """The coefficients of a closed form's series as the sum over its terms
    of coefficient * f_series, plus the constant and, in the G-form, each
    term's completing constant; every scalar is lifted to the lcm of all
    levels first.  The coefficients stay CycNums wherever a term brings one."""
    scalars = [t.coefficient for t in cf.terms] + [cf.constant]
    level = lcm(*(t.character.level for t in cf.terms),
                *(v.level for v in scalars if isinstance(v, CycNum)))

    def lift(v):
        return v.embed(level) if isinstance(v, CycNum) else v

    total = [lift(cf.constant)] + [0] * order
    for t in cf.terms:
        c = lift(t.coefficient)
        for e, v in enumerate(f_series(t.weight, t.character, t.dilation,
                                       order)):
            total[e] = total[e] + c * lift(v)
        if cf.form == "G":
            total[0] = total[0] + c * lift(g_constant(t.weight, t.character))
    return total


def rational_series(values) -> QSeries:
    """A QSeries from a list of ints, Fractions and rational CycNums, such as
    `f_series` returns; NotRationalError if a CycNum is not rational."""
    return QSeries([as_fraction(v) if isinstance(v, CycNum) else v
                    for v in values])


# -- test-only algebra ----------------------------------------------------


def reversed_to(p: Polynomial, degree: int) -> Polynomial:
    """x^degree * p(1/x), requiring deg p <= degree."""
    if p.degree() > degree:
        raise ValueError("reversal degree smaller than polynomial degree")
    out = [Fraction(0)] * (degree + 1)
    for i, c in enumerate(p.coeffs):
        out[degree - i] = c
    return poly_from_rationals(out)


def derivative(p: Polynomial) -> Polynomial:
    return Polynomial([i * c for i, c in enumerate(p.nums)][1:], p.den)


@lru_cache(maxsize=None)
def eulerian_poly(k: int) -> Polynomial:
    """Numerator of sum(n^k x^(n-1)) over (1-x)^(k+1); degree k-1 for k >= 1.

    Computed by the derivative recurrence
    P_k = (1 + (k-1) x) P_{k-1} + x (1-x) P_{k-1}'.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return Polynomial([1])
    prev = eulerian_poly(k - 1)
    return poly_from_rationals(frac_add(
        frac_mul([1, k - 1], prev.coeffs),
        frac_mul([0, 1, -1], derivative(prev).coeffs)))


@lru_cache(maxsize=None)
def rising_factorial(n: int) -> Polynomial:
    """x(x+1)...(x+n-1), and 1 at n = 0."""
    if n == 0:
        return Polynomial([1])
    return rising_factorial(n - 1) * Polynomial([n - 1, 1])


def stirling_first_unsigned(n: int, k: int) -> int:
    """The unsigned Stirling number of the first kind s(n, k), the
    coefficient of x^k in the rising factorial x(x+1)...(x+n-1)."""
    cs = rising_factorial(n).coeffs
    return int(cs[k]) if 0 <= k < len(cs) else 0


def c_by_stirling_sum(a, k: int) -> dict:
    """The weight coefficients c(ell) = sum over r >= ell of
    a(r) s(r-1, ell-1)/(r-1)!, one Stirling number per term; an oracle for
    the Horner routes of `c_coefficients`."""
    out = {}
    for ell in range(1, k + 1):
        acc = 0
        for r in range(ell, k + 1):
            st = stirling_first_unsigned(r - 1, ell - 1)
            if st:
                acc = acc + a[r] * CycNum.from_rational(a[r].level, st,
                                                        factorial(r - 1))
        out[ell] = acc
    return out


def _divide_exactly(num: list[int], den: tuple[int, ...]) -> list[int]:
    """num / den for a monic den that divides num, lowest coefficient
    first."""
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for i in range(len(quotient) - 1, -1, -1):
        c = quotient[i] = num[i + len(den) - 1]
        for j, v in enumerate(den, i):
            num[j] -= c * v
    assert not any(num), "the division leaves a remainder"
    return quotient


@lru_cache(maxsize=None)
def cyclotomic_by_division(n: int) -> tuple[int, ...]:
    """The integer coefficients of Phi_n, lowest first: x^n - 1 divided by
    Phi_d for each divisor d < n, each Phi_d built here in turn.  It calls
    nothing from the package, so it is an oracle for `cyclotomic_power`."""
    out = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            out = _divide_exactly(out, cyclotomic_by_division(d))
    return tuple(out)


def principal_character(n: int):
    return enumerate_characters(n)[0]


def conductor(chi) -> int:
    """The least divisor f of chi's modulus with chi(a) = 1 for every unit
    a = 1 (mod f); an oracle for the divisor search of
    `primitive_character`, which compares whole tables instead."""
    n = chi.modulus
    for f in divisors(n):
        if all(r == 0 for a, r in enumerate(chi.table)
               if r is not None and a % f == 1 % f):
            return f
    return n


def induced_character(chi, m: int):
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


def from_rationals(level: int, terms) -> CycNum:
    """`CycNum.from_exponents` over rational coefficients, which it does
    not take: the (e, c) pairs, or a dict {e: c}, scaled to integers over
    their common denominator."""
    pairs = list(terms.items() if isinstance(terms, dict) else terms)
    den = lcm(*(Fraction(c).denominator for _, c in pairs))
    return CycNum.from_exponents(level, [(e, int(c * den)) for e, c in pairs],
                                 den)


def as_fraction(v: CycNum) -> Fraction:
    """A rational CycNum read as a Fraction; NotRationalError otherwise."""
    return Fraction(*v.to_rational())


def poly_from_rationals(coeffs) -> Polynomial:
    """A Polynomial from int and Fraction coefficients, which its
    constructor does not take: the numerators over their common
    denominator."""
    cs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in cs))
    return Polynomial([int(c * den) for c in cs], den)


class NotInSubfieldError(ValueError):
    """Raised when projecting a value to a level that cannot represent it."""


def project(v: CycNum, new_level: int) -> CycNum:
    """Represent v at a divisor level, if it lies in that subfield."""
    if v.level % new_level != 0:
        raise LevelMismatchError(
            f"cannot project level {v.level} onto non-divisor {new_level}"
        )
    if new_level == v.level:
        return v
    step = v.level // new_level
    basis = [CycNum.from_exponents(v.level, {i * step: 1}).coeffs
             for i in range(euler_phi(new_level))]
    solution, _ = _solve_exact(basis, v.coeffs)
    if solution is None:
        raise NotInSubfieldError(f"{v} does not lie in Q(zeta_{new_level})")
    return from_rationals(new_level, enumerate(solution))


def _solve_exact(columns, target):
    """Solve sum(y_i * columns[i]) = target over Q: a solution, or None
    when inconsistent, and the rank of the columns."""
    rows = len(target)
    ncols = len(columns)
    mat = [[columns[j][i] for j in range(ncols)] + [target[i]]
           for i in range(rows)]
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
            return None, r
    solution = [Fraction(0)] * ncols
    for row, c in enumerate(pivot_cols):
        solution[c] = mat[row][ncols]
    return solution, r


def _divisor_power_sums(w: int, c: int, order: int) -> list[Fraction]:
    """1 + c sum_n sigma_{w-1}(n) q^n, the Eisenstein series E_w for the
    right c, through q^order."""
    return [Fraction(1)] + [Fraction(c * sum(d ** (w - 1) for d in range(1, n + 1)
                                             if n % d == 0))
                            for n in range(1, order + 1)]


def _eta_quotient(order: int, powers: dict) -> list[Fraction]:
    """q prod_{n >= 1} prod_m (1 - q^(m n))^powers[m], through q^order, one
    factor (1 - q^j)^(+-1) at a time on an integer list."""
    out = [1] + [0] * order
    for m, e in powers.items():
        for j in range(m, order + 1, m):
            for _ in range(abs(e)):
                if e > 0:
                    for i in range(order, j - 1, -1):
                        out[i] -= out[i - j]
                else:
                    for i in range(j, order + 1):
                        out[i] += out[i - j]
    return [Fraction(0)] + [Fraction(v) for v in out[:order]]


def _theta_series(order: int, form) -> list[Fraction]:
    """sum of q^form(m, n) over the integer pairs with form(m, n) <= order,
    for a positive definite binary quadratic form."""
    out = [Fraction(0)] * (order + 1)
    bound = isqrt(2 * order)  # both forms are >= 3/4 max(m^2, n^2)
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            v = form(m, n)
            if v <= order:
                out[v] += 1
    return out


def quasimodular_generators(level: int, order: int) -> list:
    """(weight, series) generators of the quasimodular forms on Gamma_1(level)
    for level 1 to 4, as Fraction lists through q^order: E2, and generators
    of the ring of modular forms.
    - 1: E4 and E6.
    - 2: 2 E2(2 tau) - E2(tau) and E4.
    - 3: the cubic theta series a(q) = sum q^(m^2 + m n + n^2) and
      c(q)^3 = 27 q prod (1 - q^(3n))^9 / (1 - q^n)^3 (Borwein, Borwein and
      Garvan, 1994).
    - 4: theta(q)^2, theta = sum q^(n^2), and q prod (1 - q^(4n))^8 /
      (1 - q^(2n))^4 (Koblitz, ch. IV)."""
    e2 = _divisor_power_sums(2, -24, order)
    if level == 1:
        forms = [(4, _divisor_power_sums(4, 240, order)),
                 (6, _divisor_power_sums(6, -504, order))]
    elif level == 2:
        e2_of_2tau = [e2[n // 2] if n % 2 == 0 else Fraction(0)
                      for n in range(order + 1)]
        forms = [(2, [2 * a - b for a, b in zip(e2_of_2tau, e2)]),
                 (4, _divisor_power_sums(4, 240, order))]
    elif level == 3:
        forms = [(1, _theta_series(order, lambda m, n: m * m + m * n + n * n)),
                 (3, [27 * v for v in _eta_quotient(order, {3: 9, 1: -3})])]
    elif level == 4:
        theta = _theta_series(order, lambda m, n: m * m + n * n)
        forms = [(1, theta), (2, _eta_quotient(order, {4: 8, 2: -4}))]
    else:
        raise ValueError(f"no quasimodular generators at level {level}")
    return [(2, e2)] + forms


def quasimodular_basis(weight: int, level: int, order: int) -> list:
    """(weight, series) for every monomial in the generators of
    `quasimodular_generators` of weight at most `weight`; they span the
    quasimodular forms on Gamma_1(level) of mixed weight at most `weight`.
    The first is the constant 1, of weight 0."""
    columns = [(0, [Fraction(1)] + [Fraction(0)] * order)]
    for w, g in quasimodular_generators(level, order):
        for u, col in columns[:]:
            while u + w <= weight:
                u, col = u + w, series_mul(col, g)
                columns.append((u, col))
    return columns


def quasimodular_fit(coeffs, weight: int, level: int = 1):
    """Fit coefficients of q^0..q^order to `quasimodular_basis(weight, level,
    order)`: (a solution, one coefficient per column, or None, the rank)."""
    columns = quasimodular_basis(weight, level, len(coeffs) - 1)
    return _solve_exact([col for _, col in columns], coeffs)


# -- a Fraction-list oracle for Polynomial ---------------------------------
# Coefficient lists in ascending degree, without trailing zeros.


def frac_trim(cs) -> list[Fraction]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def frac_add(a: list, b: list) -> list[Fraction]:
    n = max(len(a), len(b))
    return frac_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def frac_mul(a: list, b: list) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_trim(out)


def frac_pow(a: list, n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(n):
        out = frac_mul(out, a)
    return out


def frac_str(a: list) -> str:
    """The printed form: ascending degree, `c*x^i`, signs between terms."""
    out = ""
    for i, c in enumerate(a):
        if c == 0:
            continue
        body = str(abs(c))
        if i:
            power = "x" if i == 1 else f"x^{i}"
            body = power if body == "1" else f"{body}*{power}"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


# -- the numerator parser by recursive descent -----------------------------


def parse_polynomial_by_descent(src: str) -> Polynomial:
    """The CLI's numerator grammar parsed by recursive descent over the same
    tokens: an oracle for `cli.parse_polynomial`, which must return an equal
    polynomial, or raise the same message at the same offset."""
    tokens = _tokenize(src)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def parse_coeff() -> Fraction:
        kind, val, off = advance()
        assert kind == "int"
        if peek()[0] == "/":
            advance()
            k2, v2, o2 = peek()
            if k2 != "int":
                raise PolynomialSyntaxError("expected a denominator", o2)
            advance()
            if v2 == 0:
                raise PolynomialSyntaxError("denominator must be nonzero", o2)
            return Fraction(val, v2)
        return Fraction(val)

    def parse_exponent() -> int:
        advance()  # 'x'
        if peek()[0] == "^":
            advance()
            kind, val, off = peek()
            if kind != "int":
                raise PolynomialSyntaxError("expected an exponent", off)
            if val > MAX_EXPONENT:
                raise PolynomialSyntaxError(
                    f"exponent {val} exceeds the cap {MAX_EXPONENT}", off
                )
            advance()
            return val
        return 1

    def parse_term() -> tuple[Fraction, int]:
        kind, _, off = peek()
        if kind == "int":
            c = parse_coeff()
            if peek()[0] == "*":
                advance()
                if peek()[0] != "x":
                    raise PolynomialSyntaxError("expected x after '*'", peek()[2])
            if peek()[0] == "x":
                return c, parse_exponent()
            return c, 0
        if kind == "x":
            return Fraction(1), parse_exponent()
        raise PolynomialSyntaxError("expected a term", off)

    coeffs: dict[int, Fraction] = {}
    sign = Fraction(1)
    if peek()[0] in ("+", "-"):
        sign = Fraction(-1 if advance()[0] == "-" else 1)
    c, d = parse_term()
    coeffs[d] = coeffs.get(d, Fraction(0)) + sign * c
    while peek()[0] in ("+", "-"):
        sign = Fraction(-1 if advance()[0] == "-" else 1)
        c, d = parse_term()
        coeffs[d] = coeffs.get(d, Fraction(0)) + sign * c
    if peek()[0] != "end":
        raise PolynomialSyntaxError("unexpected trailing input", peek()[2])
    top = max(coeffs) if coeffs else 0
    return poly_from_rationals([coeffs.get(i, 0) for i in range(top + 1)])


# -- which package code runs ---------------------------------------------


def _qualnames(code: CodeType, prefix: str, out: dict) -> None:
    """Key each function's code under `code` to its `module.qualname`;
    comprehensions, generator expressions and lambdas count as part of the
    function around them."""
    for const in code.co_consts:
        if isinstance(const, CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & 1:  # CO_OPTIMIZED: a function, not a class body
                out[const.co_filename, const.co_firstlineno] = name
                _qualnames(const, name + ".<locals>.", out)
            else:
                _qualnames(const, name + ".", out)


def package_functions() -> dict:
    """{(file, first line): 'module.qualname'} of every function the package
    defines, read from its compiled source, nested functions included."""
    out = {}
    for module in PACKAGE_MODULES:
        path = module.__file__
        code = compile(Path(path).read_text(), path, "exec")
        _qualnames(code, module.__name__.removeprefix("cyclomac.") + ".", out)
    return out


def entered_functions(fn) -> set:
    """The `module.qualname` of every package function that fn() enters,
    run under sys.setprofile after the package's lru caches are cleared."""
    names = package_functions()
    for module in PACKAGE_MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = names.get((code.co_filename, code.co_firstlineno))
            if name is not None:
                entered.add(name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered

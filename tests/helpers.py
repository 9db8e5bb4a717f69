"""Shared corpus construction and slow oracles for the test suite."""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from cyclomac import (
    AdmissibleInput,
    CycNum,
    MacMahonSpec,
    QSeries,
    admissible_polynomials,
    c_coefficients,
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
from cyclomac.field import coerce_pair


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
    the scaled weight coefficient c(j, ell) times conj(chi)(j), merged by
    key; an oracle for `closed_form`, which sums over the poles first."""
    n, k = inp.N, inp.k
    p = c_coefficients(pfd_coefficients(inp))
    acc: dict = {}
    for j in pole_exponents(n):
        for ell in range(1, k + 1):
            c = p.c[(j, ell)]
            if not c:
                continue
            for g in divisors(n):
                reduced = n // g
                scale = Fraction(2 * g ** (ell - 1), euler_phi(reduced))
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


def nested_enumeration(spec: MacMahonSpec, order: int) -> QSeries:
    """Direct sum over index tuples; exponential in t, test oracle only.
    Tuples with index sum beyond the order cannot contribute."""
    weights = {n: weight_series(spec.N, spec.k, spec.Q, n, order)
               for n in range(1, order + 1)}
    total = QSeries.zero(order)

    def recurse(start: int, depth: int, budget: int, prod: QSeries):
        nonlocal total
        if depth == 0:
            total = total + prod
            return
        for n in range(start, budget + 1):
            recurse(n + (1 if spec.strict else 0), depth - 1, budget - n,
                    prod * weights[n])

    recurse(1, spec.t, order, QSeries.one(order))
    return total


def bernoulli_by_generating_function(k: int, chi):
    """B_{k,chi} read off the exponential generating function
    sum_a chi(a) t e^(a t) / (e^(f t) - 1), f the modulus, by truncated
    series division; an oracle independent of the Bernoulli-polynomial sum."""
    f = chi.modulus
    # numerator / t = sum_a chi(a) e^(a t); denominator / t = (e^(f t) - 1) / t.
    num = QSeries.zero(k)
    for a in range(1, f + 1):
        exp_at = QSeries([Fraction(a**i, factorial(i)) for i in range(k + 1)])
        num = num + exp_at.scale(chi.value(a))
    den = QSeries([Fraction(f ** (i + 1), factorial(i + 1)) for i in range(k + 1)])
    return (num * den.inverse())[k] * factorial(k)


def reconstruct_series(p, order: int) -> QSeries:
    """Re-expand the partial-fraction sum of pole data `p` (a
    PfdCoefficients) as a power series in x; must equal the direct series
    of Q(x)/Phi_N(x)^k."""
    n, k = p.input.N, p.input.k
    coeffs: list = [Fraction(0)] * (order + 1)

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
                    term = a_r * Fraction(w if n == 1 else w * (-1) ** m)
                else:
                    term = a_r * zeta(n, root_exp * m) * Fraction(w)
                coeffs[m] = coeffs[m] + term

    if n <= 2:
        add_family({r: p.a[(1, r)] for r in range(1, k + 1)}, 0)
    else:
        # The data at the conjugate pole zeta^j is the complex conjugate.
        for j in pole_exponents(n):
            add_family({r: p.a[(j, r)] for r in range(1, k + 1)}, j)
            add_family({r: p.a[(j, r)].conjugate() for r in range(1, k + 1)}, -j)
    return QSeries(coeffs, order)


def rational_function_series(inp: AdmissibleInput, order: int) -> QSeries:
    """The direct power-series expansion of Q(x)/Phi_N(x)^k."""
    phi_series = QSeries.from_polynomial(cyclotomic_polynomial(inp.N), order)
    q_series = QSeries.from_polynomial(inp.Q, order)
    return q_series * (phi_series.inverse() ** inp.k)


def verify_reconstruction(p, order: int | None = None) -> bool:
    if order is None:
        order = 4 * p.input.phi_times_k()
    return reconstruct_series(p, order) == rational_function_series(p.input, order)


def evaluate_term_by_term(cf, order: int) -> QSeries:
    """A closed form's series as the sum over its terms of coefficient *
    f_series, plus the constant and, in the G-form, each term's completing
    constant; every scalar is lifted to the lcm of all levels first.  The
    coefficients stay CycNums wherever a term brings one."""
    scalars = [t.coefficient for t in cf.terms] + [cf.constant]
    level = lcm(*(t.character.level for t in cf.terms),
                *(v.level for v in scalars if isinstance(v, CycNum)))

    def lift(v):
        return v.embed(level) if isinstance(v, CycNum) else v

    total = QSeries.zero(order)
    offset = lift(cf.constant)
    for t in cf.terms:
        c = lift(t.coefficient)
        series = f_series(t.weight, t.character, t.dilation, order)
        total = total + QSeries([lift(v) for v in series.coeffs], order).scale(c)
        if cf.form == "G":
            offset = offset + c * lift(g_constant(t.weight, t.character))
    return total + offset

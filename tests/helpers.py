"""Shared corpus construction and slow oracles for the test suite."""

from fractions import Fraction
from math import comb, factorial, lcm

from cyclomac import (
    AdmissibleInput,
    CycNum,
    MacMahonSpec,
    QSeries,
    admissible_polynomials,
    cyclotomic_polynomial,
    euler_phi,
    f_series,
    g_constant,
    pole_exponents,
    weight_series,
    zeta,
)


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

"""Shared corpus construction and slow oracles for the test suite."""

from fractions import Fraction
from math import factorial

from cyclomac import (
    AdmissibleInput,
    MacMahonSpec,
    QSeries,
    admissible_polynomials,
    euler_phi,
    weight_series,
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

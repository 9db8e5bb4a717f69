"""Brute-force generators for the nested series

    sum over n_1 < ... < n_t (or <=) of prod_j Q(q^(n_j)) / Phi_N(q^(n_j))^k,

their decomposition into polynomials in the single sums, and coefficient-wise
identity certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .comb import Partition, factorial, partitions
from .field import value_str
from .pfdform import (
    AdmissibleInput,
    NonPositiveParameterError,
    NonzeroConstantTermError,
    closed_form,
)
from .polynomial import Polynomial, cyclotomic_polynomial
from .series import OrderMismatchError, QSeries, substitute_qn


@dataclass(frozen=True)
class MacMahonSpec:
    """Parameters of one nested series; `strict` picks n_1 < ... < n_t over
    weak inequalities.  Brute-force evaluation needs only Q(0) = 0, not the
    closed-form symmetry condition."""

    t: int
    N: int
    k: int
    Q: Polynomial
    strict: bool = True

    def label(self) -> str:
        star = "" if self.strict else "*"
        return f"U{star}(t={self.t}, k={self.k}, N={self.N}; {self.Q})"


def weight_series(n_level: int, k: int, q_poly: Polynomial, n: int,
                  order: int) -> QSeries:
    """Q(q^n)/Phi_N(q^n)^k as a q-series.  Computed in the variable y = q^n
    and spread out, so the cost shrinks with n."""
    sub = order // n
    if sub < 1:
        return QSeries.zero(order)
    q_y = QSeries.from_polynomial(q_poly, sub)
    phi_y = QSeries.from_polynomial(cyclotomic_polynomial(n_level), sub)
    w_y = q_y * (phi_y.inverse() ** k)
    return substitute_qn(w_y, n, order)


def validate_spec(spec: MacMahonSpec) -> MacMahonSpec:
    """Check the clauses brute-force evaluation needs, raising the one that
    fails.  Indices n > order cannot reach tracked coefficients: the n-th
    factor has q-valuation >= n exactly when Q(0) = 0, as Phi_N(0) = +-1."""
    for name in ("t", "N", "k"):
        if getattr(spec, name) < 1:
            raise NonPositiveParameterError(f"{name} must be a positive integer")
    if spec.Q.coefficient(0) != 0:
        raise NonzeroConstantTermError("Q(0) = 0 is required for sound truncation")
    return spec


def brute_force(spec: MacMahonSpec, order: int) -> QSeries:
    """The z^t coefficient of prod_n (1 + z w_n), or of prod_n 1/(1 - z w_n)
    for weak inequalities, where w_n = r(q^n) and r = Q/Phi_N^k is expanded
    once.  Both products evolve by f[d] += w_n f[d-1]: strict runs d down and
    reads the old f[d-1], weak runs d up and reads the new one."""
    validate_spec(spec)
    t = spec.t
    w1 = weight_series(spec.N, spec.k, spec.Q, 1, order)
    depths = range(t, 0, -1) if spec.strict else range(1, t + 1)
    f = [QSeries.one(order)] + [QSeries.zero(order) for _ in range(t)]
    for n in range(1, order + 1):
        w = substitute_qn(w1, n, order)
        for d in depths:
            # w is zero off multiples of n, and `*` skips the left factor's zeros.
            f[d] = f[d] + w * f[d - 1]
    return f[t]


def power_polynomial(q_poly: Polynomial, s: int) -> Polynomial:
    """Exact s-th power of the numerator polynomial."""
    if s < 1:
        raise ValueError("the power must be a positive integer")
    return q_poly**s


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


def evaluate_isobaric(n_level: int, k: int, q_poly: Polynomial, t: int,
                      strict: bool, order: int,
                      single_sum=None) -> QSeries:
    """Assemble the nested series from the single sums U_s = sum over n of
    Q(q^n)^s / Phi_N(q^n)^(s k), via the partition decomposition.

    `single_sum(s)` supplies U_s; the default is the brute-force generator,
    and closed-form callers can substitute their own series.
    """
    if single_sum is None:
        def single_sum(s: int) -> QSeries:
            return brute_force(
                MacMahonSpec(1, n_level, s * k, power_polynomial(q_poly, s)),
                order,
            )

    u_cache: dict[int, QSeries] = {}

    def u_of(s: int) -> QSeries:
        if s not in u_cache:
            u_cache[s] = single_sum(s)
        return u_cache[s]

    total = QSeries.zero(order)
    for term in isobaric_decomposition(t, strict):
        prod = QSeries.one(order)
        for s, m in term.partition.multiplicities:
            prod = prod * (u_of(s) ** m)
        total = total + prod.scale(term.weight * term.sign)
    return total


def evaluate_isobaric_closed(inp: AdmissibleInput, t: int, strict: bool,
                             order: int) -> QSeries:
    """The isobaric assembly with every single sum replaced by its
    closed-form Eisenstein series."""

    def single_sum(s: int) -> QSeries:
        powered = AdmissibleInput(inp.N, s * inp.k,
                                  power_polynomial(inp.Q, s))
        return closed_form(powered).evaluate(order)

    return evaluate_isobaric(inp.N, inp.k, inp.Q, t, strict, order, single_sum)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a coefficient-wise comparison of two series."""

    descriptor: str
    order: int
    lhs_label: str
    rhs_label: str
    match: bool
    first_mismatch: tuple | None  # (exponent, lhs value, rhs value)
    constant_offset: object = Fraction(0)

    def to_json(self) -> dict:
        mismatch = None
        if self.first_mismatch is not None:
            e, lv, rv = self.first_mismatch
            mismatch = {"exponent": e, "lhs": value_str(lv), "rhs": value_str(rv)}
        return {
            "descriptor": self.descriptor,
            "order": self.order,
            "lhs": self.lhs_label,
            "rhs": self.rhs_label,
            "constant_offset": value_str(self.constant_offset),
            "match": self.match,
            "first_mismatch": mismatch,
        }


def certify(lhs: QSeries, rhs: QSeries, lhs_label: str, rhs_label: str,
            descriptor: str = "", constant_offset=Fraction(0)) -> Certificate:
    """Compare two series coefficient by coefficient.  A declared constant
    offset is allowed at q^0 (lhs[0] = rhs[0] + offset); everything else must
    agree exactly.  Reports the first mismatch."""
    if lhs.order != rhs.order:
        raise OrderMismatchError(
            f"orders differ: {lhs.order} vs {rhs.order}"
        )
    first = None
    for j in range(lhs.order + 1):
        expected = rhs.coeffs[j]
        if j == 0 and constant_offset:
            expected = expected + constant_offset
        if lhs.coeffs[j] != expected:
            first = (j, lhs.coeffs[j], rhs.coeffs[j])
            break
    return Certificate(
        descriptor=descriptor,
        order=lhs.order,
        lhs_label=lhs_label,
        rhs_label=rhs_label,
        match=first is None,
        first_mismatch=first,
        constant_offset=constant_offset,
    )

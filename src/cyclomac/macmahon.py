"""Brute-force generators for the nested series

    sum over n_1 < ... < n_t (or <=) of prod_j Q(q^(n_j)) / Phi_N(q^(n_j))^k,

their assembly from the single sums by Newton's identities, and
coefficient-wise identity certificates.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm
from typing import NamedTuple

from .pfdform import NonPositiveParameterError, NonzeroConstantTermError
from .polynomial import Polynomial, cyclotomic_power
from .series import OrderMismatchError, QSeries, kronecker_product


class MacMahonSpec(NamedTuple):
    """Parameters of one nested series; `strict` picks n_1 < ... < n_t over
    weak inequalities.  Brute-force evaluation needs only Q(0) = 0, not the
    closed-form symmetry condition."""

    t: int
    N: int
    k: int
    Q: Polynomial
    strict: bool = True


@lru_cache(maxsize=1)
def _inverse_power(n_level: int, k: int, order: int) -> QSeries:
    """Phi_N^-k through q^order, from `cyclotomic_power`.  The sweep runs
    the numerators of one (N, k) in a row, so one entry serves them all;
    more would keep a series of order + 1 terms for every (N, k) seen."""
    return QSeries(cyclotomic_power(n_level, -k, order), order, 1)


def weight_series(n_level: int, k: int, q_poly: Polynomial,
                  order: int) -> QSeries:
    """Q/Phi_N^k through q^order: Q times Phi_N^-k."""
    return (QSeries(q_poly.nums, order, q_poly.den)
            * _inverse_power(n_level, k, order))


def validate_spec(spec: MacMahonSpec) -> MacMahonSpec:
    """Check the clauses brute-force evaluation needs, raising the one that
    fails.  Indices n > order cannot reach tracked coefficients: the n-th
    factor has q-valuation >= n exactly when Q(0) = 0, as Phi_N(0) = +-1."""
    for name in ("t", "N", "k"):
        if getattr(spec, name) < 1:
            raise NonPositiveParameterError(f"{name} must be a positive integer")
    if any(spec.Q.nums[:1]):
        raise NonzeroConstantTermError("Q(0) = 0 is required for sound truncation")
    return spec


def brute_force(spec: MacMahonSpec, order: int) -> QSeries:
    """The z^t coefficient of prod_n (1 + z w_n), or of prod_n 1/(1 - z w_n)
    for weak inequalities, where w_n = r(q^n) and r = Q/Phi_N^k is expanded
    once, on the numerators of D r = sum_j r_j q^j, D the `den` of the
    weight series.

    At depth t = 1 both are p_1 = sum_n w_n, whose q^e coefficient is the
    divisor sum of the r_j over j | e, one plain loop over the multiples of
    each j.  Deeper, both products evolve by f_d += w_n f_(d-1) for the
    indices n from `order` down to 1: strict runs d down and reads the old
    f_(d-1), weak runs d up and reads the new one.  f_d is D^d times the
    depth-d series, held as one integer sum_e f_d[e] 2^(B (order + 1 - e))
    plus an error (Kronecker substitution, as in `series`, with q^0 in the
    top digit and a guard digit q^(order+1) below q^order).  f_1 gains w_n
    itself, sum_j r_j 2^(B (order + 1 - j n)) over j n <= order, built
    once per n and exact.  At d >= 2, times q^(j n) is the floor shift
    f_(d-1) >> B j n, which drops the terms past the guard digit, so adding
    w_n f_(d-1) is a shift, multiply and add per r_j != 0 with
    j n <= order, summed smallest first.  A step whose shift is at least
    the bit length of f_(d-1) is skipped.  With the indices taken
    downwards, w_m starts at q^m as Q(0) = 0, so f_(d-1) holds only indices
    m >= n and starts at q^((d-1) n) or higher: a short integer, past which
    the steps of large j n all fall.

    Exactness: while every digit and the error are below 2^(B-2) in size,
    the dropped digits and the error add up to less than 2^(B j n) (1/3 +
    1/4), so a floor shift differs from the truncation of the exact digits
    by 0 or -1, and a skipped step (0 where the shift gives 0 or -1) by at
    most 1.  Each step is thus off by at most |r_j|, and the errors of one
    depth total at most S = sum over e <= order of A_e (A below), which
    counts |r_j| once for each j n = e.  They do not grow from depth to
    depth, as the next depth's floor shifts absorb them.  At the end, with the guard
    digit plus the error below 2^(B-1) in size, (f_t + 2^(B-1)) >> B rounds
    them off exactly, and the signed digits are read off once, each offset
    by 2^(B-1).

    The width B: the order of the indices is free, as e_d and h_d are
    symmetric in the w_n, and after any set of indices f_d is e_d (strict)
    or h_d (weak) of their weights, the guard digit holding some of its
    terms.  Every monomial of h_d occurs in p_1^d, and every monomial of e_d
    occurs there d! times, so |[q^e] f_d| <= [q^e] A^d, over d! when
    strict, at every step and e <= order + 1, where
    A = p_1(|w_1|, |w_2|, ...) has A_e = sum over j | e of |r_j|.  With b_d
    the bits of the largest [q^e] A^d, e <= order + 1, and
    L_d = floor(log2 d!) when strict (0 when weak), every digit of f_d is
    below 2^(b_d - L_d); B = 2 + max(b, bit length of S), b the largest
    b_d - L_d over d <= t, keeps every digit and the error below 2^(B-2).
    A^d runs packed in bytes over order + 2 digits, each below
    (max A)^d (order + 2)^(d-1), so none carries."""
    validate_spec(spec)
    t = spec.t
    w = weight_series(spec.N, spec.k, spec.Q, order)
    r = w.nums
    rows = r if t == 1 else [abs(c) for c in r]
    top = order if t == 1 else order + 1  # deeper, q^top is a guard digit
    a = [0] * (top + 1)
    for j in range(1, order + 1):
        if v := rows[j]:
            for e in range(j, top + 1, j):
                a[e] += v
    if t == 1:
        return QSeries(a, order, w.den)
    size = (t * max(a).bit_length()
            + (t - 1) * (top + 1).bit_length()) // 8 + 1  # bytes per digit
    packed = int.from_bytes(b"".join(c.to_bytes(size, "little") for c in a),
                            "little")
    power, bits = 1, 0
    for d in range(1, t + 1):
        power = (power * packed) & ((1 << 8 * size * (top + 1)) - 1)
        raw = power.to_bytes(size * (top + 1), "little")
        # The largest digit's bits, from the largest byte at each place.
        high = max((max(raw[p::size]) << 8 * p).bit_length()
                   for p in range(size))
        bits = max(bits, high - (factorial(d).bit_length() - 1
                                 if spec.strict else 0))
    width = 2 + max(bits, sum(a[:top]).bit_length())
    depths = range(t, 0, -1) if spec.strict else range(1, t + 1)
    f = [0] * (t + 1)
    for n in range(order, 0, -1):
        steps = [(r[j], width * j * n) for j in range(order // n, 0, -1)
                 if r[j]]
        for d in depths:
            if d == 1:  # f_0 = 1: add w_n itself
                f[1] += sum(c << width * top - shift for c, shift in steps)
            elif src := f[d - 1]:
                length, acc = src.bit_length(), 0
                for c, shift in steps:
                    if shift < length:
                        acc += c * (src >> shift)
                f[d] += acc
    half, digit = 1 << width - 1, (1 << width) - 1
    digits = ((f[t] + half) >> width) + half * (
        ((1 << width * (order + 1)) - 1) // digit)
    return QSeries([((digits >> width * (order - e)) & digit) - half
                    for e in range(order + 1)], order, w.den**t)


def evaluate_isobaric(singles: list[QSeries], strict: bool) -> QSeries:
    """Assemble the nested series at depth t = len(singles) from the single
    sums U_1..U_t, U_s = sum over n of Q(q^n)^s / Phi_N(q^n)^(s k), all at
    one order (else OrderMismatchError).

    U_s is the power sum p_s of the weights Q(q^n)/Phi_N(q^n)^k, so the
    strict series is the elementary symmetric function e_t and the weak one
    the complete one h_t.  Newton's identities t e_t = sum_i (-1)^(i-1)
    e_(t-i) p_i and t h_t = sum_i h_(t-i) p_i (Macdonald, Symmetric
    Functions and Hall Polynomials, I 2) build them in t(t-1)/2 products,
    as the term by e_0 = h_0 = 1 needs none.
    These run on integers: P_i = D U_i for D the lcm of the single sums'
    `den`s, and E_j = j! D^j e_j obeys E_j = sum_i (+-1)^(i-1)
    (j-1)!/(j-i)! D^(i-1) E_(j-i) P_i, so the result is E_t over t! D^t.
    """
    if not singles:
        raise ValueError("at least one single sum is needed")
    t, order = len(singles), singles[0].order
    if any(u.order != order for u in singles):
        raise OrderMismatchError(
            f"orders differ: {[u.order for u in singles]}")
    scale = lcm(*(u.den for u in singles))
    p = [[c * (scale // u.den) for c in u.nums] for u in singles]
    e = [[1] + [0] * order]
    for j in range(1, t + 1):
        acc = [0] * (order + 1)
        weight = 1  # (+-1)^(i-1) (j-1)!/(j-i)! D^(i-1)
        for i in range(1, j):
            prod = kronecker_product(e[j - i], p[i - 1], order)
            acc = [a + weight * b for a, b in zip(acc, prod)]
            weight *= (i - j if strict else j - i) * scale
        # The i = j term is E_0 P_j = P_j, as E_0 = 1.
        e.append([a + weight * b for a, b in zip(acc, p[j - 1])])
    return QSeries(e[t], order, factorial(t) * scale**t)


class Certificate(NamedTuple):
    """Outcome of a coefficient-wise comparison of two series."""

    descriptor: str
    order: int
    lhs_label: str
    rhs_label: str
    match: bool
    first_mismatch: tuple | None  # (exponent, lhs value, rhs value)

    def to_json(self) -> dict:
        mismatch = None
        if self.first_mismatch is not None:
            e, lv, rv = self.first_mismatch
            mismatch = {"exponent": e, "lhs": str(lv), "rhs": str(rv)}
        return {
            "descriptor": self.descriptor,
            "order": self.order,
            "lhs": self.lhs_label,
            "rhs": self.rhs_label,
            "constant_offset": "0",  # kept in the format; always zero
            "match": self.match,
            "first_mismatch": mismatch,
        }


def certify(lhs: QSeries, rhs: QSeries, lhs_label: str, rhs_label: str,
            descriptor: str = "") -> Certificate:
    """Compare two series coefficient by coefficient; every coefficient must
    agree exactly.  Both are in lowest terms, so they agree exactly when
    their numerators and denominators do; reports the first mismatch."""
    if lhs.order != rhs.order:
        raise OrderMismatchError(
            f"orders differ: {lhs.order} vs {rhs.order}"
        )
    first = None
    if (lhs.nums, lhs.den) != (rhs.nums, rhs.den):
        j = next(j for j, (a, b) in enumerate(zip(lhs.nums, rhs.nums))
                 if a * rhs.den != b * lhs.den)
        first = (j, lhs.coefficient(j), rhs.coefficient(j))
    return Certificate(
        descriptor=descriptor,
        order=lhs.order,
        lhs_label=lhs_label,
        rhs_label=rhs_label,
        match=first is None,
        first_mismatch=first,
    )

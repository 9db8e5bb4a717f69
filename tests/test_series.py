import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomac import (
    NonUnitError,
    Polynomial,
    QSeries,
    cyclotomic_polynomial,
    enumerate_characters,
    f_series,
    g_constant,
    mobius,
    trivial_character,
)
from cyclomac.series import kronecker_product
from helpers import (
    as_fraction,
    eulerian_poly,
    poly_from_rationals,
    principal_character,
    series_from_rationals,
    substitute_qn,
)


def test_mul_binomials():
    s = QSeries([1, 1], 5) * QSeries([1, -1], 5)
    assert list(s.coeffs) == [1, 0, -1, 0, 0, 0]


def test_mul_geometric_telescopes():
    geom = QSeries([1] * 11, 10)
    assert list((geom * QSeries([1, -1], 10)).coeffs) == [1] + [0] * 10


def test_mul_matches_schoolbook_convolution():
    rng = random.Random(7)
    for _ in range(20):
        a = poly_from_rationals([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                 for _ in range(rng.randint(1, 6))])
        b = poly_from_rationals([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                 for _ in range(rng.randint(1, 6))])
        order = 12
        product = QSeries(a.nums, order, a.den) * QSeries(b.nums, order, b.den)
        expected = QSeries((a * b).nums, order, (a * b).den)
        assert product == expected


def _schoolbook(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                out[i + j] += x * y
    return out


_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-2**64, 2**64),
                     st.integers(-2**260, 2**260))


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTRIES, max_size=9), st.lists(_ENTRIES, max_size=9),
       st.integers(0, 12))
def test_kronecker_product_matches_schoolbook(a, b, order):
    assert kronecker_product(a, b, order) == _schoolbook(a, b, order)


@pytest.mark.parametrize("a, b, order", [
    ([0, 0, 0], [5, -7], 4),                          # all zero
    ([], [1, 2], 2),                                  # empty
    ([-3], [4], 0),                                   # single entries
    ([2**201 + 1, -2**205], [-2**203, 3, 2**200], 3),  # beyond 2^200
    ([1, 2, 3, 4, 5, 6], [1, -1], 2),                 # cut below both lengths
    ([1], [1, 1, 1, 1], 7),                           # order past the product
    ([-255] * 4, [255] * 4, 6),                       # a digit at the bound
    ([255] * 4, [255] * 4, 6),
    ([255], [1], 1),                                  # ... filling whole bytes
    ([1, 1], [-(2**16 - 1)], 2),
    # Shorter than order + 1, with digits at -bound and +bound: a biased
    # digit of 1 and one that fills its bytes, padded with biased zeros.
    ([-127], [1], 3),
    ([127, -127], [-1], 4),
    ([-(2**15 - 1), 2**15 - 1], [1], 5),
    ([1], [2**15 - 1, -(2**15 - 1)], 6),
    ([-3, 0, 5], [-2, 7], 9),
])
def test_kronecker_product_edge_cases(a, b, order):
    assert kronecker_product(a, b, order) == _schoolbook(a, b, order)


_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def _is_canonical(s):
    return (s.den > 0 and math.gcd(s.den, *s.nums) == 1
            and (any(s.nums) or s.den == 1))


def _fraction_inverse(a):
    out = [1 / a[0]]
    for n in range(1, len(a)):
        out.append(-out[0] * sum(a[i] * out[n - i] for i in range(1, n + 1)))
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(_FRACTIONS, max_size=8), st.lists(_FRACTIONS, max_size=8),
       st.integers(0, 7), st.integers(0, 7), st.integers(1, 30))
def test_integer_form_matches_fraction_definitions(ca, cb, oa, ob, g):
    a, b = series_from_rationals(ca, oa), series_from_rationals(cb, ob)
    # The Fraction definitions, on the coefficients padded to the order.
    fa = (ca + [Fraction(0)] * 8)[: oa + 1]
    fb = (cb + [Fraction(0)] * 8)[: ob + 1]
    m = min(oa, ob)
    assert a.coeffs == tuple(fa) and a.order == oa
    results = {"*": (a * b, _schoolbook(fa, fb, m))}
    if fa[0]:
        results["inverse"] = (a.inverse(), _fraction_inverse(fa))
    for op, (got, expected) in results.items():
        assert _is_canonical(got), op
        assert got.coeffs == tuple(expected), op
    # The integer constructor: numerators over a den, reduced on the way in.
    same = QSeries([c * g for c in a.nums], oa, a.den * g)
    assert _is_canonical(same)
    assert (same.nums, same.den) == (a.nums, a.den) and same == a
    assert (a == b) == (a.order == b.order and a.coeffs == b.coeffs)


def test_mixed_order_truncates_to_smaller():
    a = QSeries([1, 1, 1], 2)
    b = QSeries([1] * 6, 5)
    assert (a * b).order == 2


def test_scalars_are_not_series_operands():
    # Series multiply series only; any other operand is a TypeError.
    s = QSeries([1, 2], 3)
    for op in (lambda: s * 2, lambda: 2 * s, lambda: s + s, lambda: -s):
        with pytest.raises(TypeError):
            op()


def test_inverse_geometric():
    inv = QSeries([1, -1], 8).inverse()
    assert list(inv.coeffs) == [1] * 9


def test_inverse_of_cyclotomic_one():
    # q - 1 inverts to the negated geometric series
    inv = QSeries(cyclotomic_polynomial(1).nums, 6).inverse()
    assert list(inv.coeffs) == [-1] * 7


def test_inverse_of_cyclotomic_six_by_remultiplication():
    s = QSeries(cyclotomic_polynomial(6).nums, 12)
    assert s * s.inverse() == QSeries([1], 12)


def test_inverse_requires_unit_constant():
    with pytest.raises(NonUnitError):
        QSeries([0, 1], 4).inverse()


def test_inverse_two_sided_on_random_unit_series():
    rng = random.Random(11)
    for _ in range(15):
        coeffs = [Fraction(rng.choice([1, -1, 2, 3]))] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(10)
        ]
        s = series_from_rationals(coeffs, 10)
        inv = s.inverse()
        assert s * inv == QSeries([1], 10)
        assert inv * s == QSeries([1], 10)


def test_substitute_monomial():
    s = substitute_qn(Polynomial.monomial(2), 3, 10)
    assert s.coeffs[6] == 1
    assert sum(1 for c in s.coeffs if c != 0) == 1


def test_substitute_geometric():
    geom = QSeries([1] * 13, 12)
    assert list(substitute_qn(geom, 2, 6).coeffs) == [1, 0, 1, 0, 1, 0, 1]


def test_substitute_cyclotomic_polynomial():
    s = substitute_qn(cyclotomic_polynomial(3), 2, 10)
    assert list(s.coeffs) == [1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0]


def sigma(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def test_f_series_weight_two_is_divisor_sum():
    f2 = f_series(2, trivial_character(), 1, 12)
    assert f2[1:] == [sigma(1, n) for n in range(1, 13)]
    assert f2[:5] == [0, 1, 3, 4, 7]


def test_f_series_dilation():
    f2d = f_series(2, trivial_character(), 2, 4)
    assert f2d == [0, 0, 1, 0, 3]


def test_f_series_character_coefficients():
    chi = enumerate_characters(3)[1]
    f1 = f_series(1, chi, 1, 9)
    # direct oracle: coefficient of q^j is sum over divisors m | j of chi(m)
    pattern = {0: 0, 1: 1, 2: -1}
    for j in range(1, 10):
        expected = sum(pattern[m % 3] for m in range(1, j + 1) if j % m == 0)
        assert f1[j] == expected, j
    assert f1[1] == 1
    assert not f1[2]


def test_g_constant_values():
    assert as_fraction(g_constant(2, trivial_character())) == Fraction(-1, 24)
    assert as_fraction(g_constant(4, trivial_character())) == Fraction(1, 240)
    chi = enumerate_characters(3)[1]
    assert as_fraction(g_constant(1, chi)) == Fraction(1, 6)


def test_g_constant_parity_violations():
    with pytest.raises(ValueError):
        g_constant(3, trivial_character())
    with pytest.raises(ValueError):
        g_constant(1, trivial_character())
    chi = enumerate_characters(3)[1]
    with pytest.raises(ValueError):
        g_constant(2, chi)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_principal_character_mobius_identity(n, k):
    order = 60
    lhs = f_series(k, principal_character(n), 1, order)
    rhs = [0] * (order + 1)
    for d in range(1, n + 1):
        if n % d == 0:
            for e, v in enumerate(f_series(k, trivial_character(), d, order)):
                rhs[e] += mobius(d) * d ** (k - 1) * v
    assert lhs == rhs


def test_eulerian_series_identity():
    # p_ell(q)/(1-q)^(ell+1) = sum n^ell q^(n-1), to order 40
    order = 40
    geometric = QSeries([1, -1], order).inverse()
    for ell in range(9):
        lhs = QSeries(eulerian_poly(ell).nums, order)
        for _ in range(ell + 1):
            lhs = lhs * geometric
        for n in range(1, order + 2):
            assert lhs.coeffs[n - 1] == Fraction(n) ** ell


def test_coefficients_are_integers_over_a_positive_denominator():
    # Rationals enter as integer numerators over `den`; series_from_rationals
    # in the test helpers is the Fraction intake.
    for coeffs in ([Fraction(1, 2)], [1, Fraction(3)], [0.5]):
        with pytest.raises(TypeError):
            QSeries(coeffs, 0 if len(coeffs) == 1 else 1)
    for den in (0, -2):
        with pytest.raises(ValueError):
            QSeries([1], 0, den)
    assert QSeries([2, 4], 1, 6) == series_from_rationals(
        [Fraction(1, 3), Fraction(2, 3)])


def test_series_equality_requires_same_order():
    assert QSeries([1, 2], 1) != QSeries([1, 2, 0], 2)


_NUMERATORS = st.one_of(st.integers(-50, 50), st.just(0),
                        st.integers(-2**100, 2**100),
                        st.integers(2**64, 2**100).map(lambda c: -c))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, 12), st.integers(2**64, 2**70)), st.data())
def test_json_coefficients_print_as_their_fractions(den, data):
    # Numerators negative, zero, multiples of den and beyond 2^64, over den
    # before the series reduces them.
    nums = data.draw(st.lists(st.one_of(
        _NUMERATORS, _NUMERATORS.map(lambda c: c * den)), min_size=1,
        max_size=10))
    s = QSeries(nums, len(nums) - 1, den)
    assert s.to_json()["coefficients"] == [str(Fraction(c, den))
                                           for c in nums]


def test_json_round_trip_rational():
    s = series_from_rationals(
        [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)], 3)
    data = s.to_json()
    assert data == {
        "order": 3,
        "coefficients": ["1/2", "-3", "0", "7/5"],
    }
    assert series_from_rationals([Fraction(c) for c in data["coefficients"]],
                                 data["order"]) == s

import random
from fractions import Fraction

import pytest

from cyclomac import (
    NonUnitError,
    Polynomial,
    QSeries,
    cyclotomic_polynomial,
    enumerate_characters,
    eulerian_poly,
    f_series,
    g_constant,
    mobius,
    principal_character,
    substitute_qn,
    trivial_character,
    zeta,
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
        a = Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 6))])
        b = Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 6))])
        order = 12
        product = QSeries.from_polynomial(a, order) * QSeries.from_polynomial(b, order)
        expected = QSeries.from_polynomial(a * b, order)
        assert product == expected


def test_mixed_order_truncates_to_smaller():
    a = QSeries([1, 1, 1], 2)
    b = QSeries([1] * 6, 5)
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_inverse_geometric():
    inv = QSeries([1, -1], 8).inverse()
    assert list(inv.coeffs) == [1] * 9


def test_inverse_of_cyclotomic_one():
    # q - 1 inverts to the negated geometric series
    inv = QSeries.from_polynomial(cyclotomic_polynomial(1), 6).inverse()
    assert list(inv.coeffs) == [-1] * 7


def test_inverse_of_cyclotomic_six_by_remultiplication():
    s = QSeries.from_polynomial(cyclotomic_polynomial(6), 12)
    assert s * s.inverse() == QSeries.one(12)


def test_inverse_requires_unit_constant():
    with pytest.raises(NonUnitError):
        QSeries([0, 1], 4).inverse()


def test_inverse_two_sided_on_random_unit_series():
    rng = random.Random(11)
    for _ in range(15):
        coeffs = [Fraction(rng.choice([1, -1, 2, 3]))] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(10)
        ]
        s = QSeries(coeffs, 10)
        inv = s.inverse()
        assert s * inv == QSeries.one(10)
        assert inv * s == QSeries.one(10)


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
    assert list(f2.coeffs)[1:] == [sigma(1, n) for n in range(1, 13)]
    assert list(f2.coeffs)[:5] == [0, 1, 3, 4, 7]


def test_f_series_dilation():
    f2d = f_series(2, trivial_character(), 2, 4)
    assert list(f2d.coeffs) == [0, 0, 1, 0, 3]


def test_f_series_character_coefficients():
    chi = enumerate_characters(3)[1]
    f1 = f_series(1, chi, 1, 9)
    # direct oracle: coefficient of q^j is sum over divisors m | j of chi(m)
    pattern = {0: 0, 1: 1, 2: -1}
    for j in range(1, 10):
        expected = sum(pattern[m % 3] for m in range(1, j + 1) if j % m == 0)
        assert f1.coeffs[j] == Fraction(expected), j
    assert f1.coeffs[1] == 1
    assert not f1.coeffs[2]


def test_g_constant_values():
    assert g_constant(2, trivial_character()) == Fraction(-1, 24)
    assert g_constant(4, trivial_character()) == Fraction(1, 240)
    chi = enumerate_characters(3)[1]
    assert g_constant(1, chi) == Fraction(1, 6)


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
    rhs = QSeries.zero(order)
    for d in range(1, n + 1):
        if n % d == 0 and mobius(d) != 0:
            rhs = rhs + f_series(k, trivial_character(), d, order).scale(
                Fraction(mobius(d) * d ** (k - 1))
            )
    assert lhs == rhs


def test_eulerian_series_identity():
    # p_ell(q)/(1-q)^(ell+1) = sum n^ell q^(n-1), to order 40
    order = 40
    one_minus_q = QSeries([1, -1], order)
    for ell in range(9):
        lhs = QSeries.from_polynomial(eulerian_poly(ell), order) * (
            one_minus_q.inverse() ** (ell + 1)
        )
        for n in range(1, order + 2):
            assert lhs.coeffs[n - 1] == Fraction(n) ** ell


def test_series_equality_requires_same_order():
    assert QSeries([1, 2], 1) != QSeries([1, 2, 0], 2)


def test_json_round_trip_rational():
    s = QSeries([Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)], 3)
    data = s.to_json()
    assert data == {
        "order": 3,
        "coefficients": ["1/2", "-3", "0", "7/5"],
    }
    assert QSeries.from_json(data) == s


def test_json_round_trip_cyclotomic():
    s = QSeries([Fraction(1), zeta(3), zeta(4)], 2)
    data = s.to_json()
    assert data["order"] == 2
    assert data["level"] == 12
    restored = QSeries.from_json(data)
    assert restored == s

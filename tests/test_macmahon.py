from fractions import Fraction

import pytest

from cyclomac import (
    AdmissibleInput,
    MacMahonSpec,
    OrderMismatchError,
    Polynomial,
    QSeries,
    admissible_polynomials,
    brute_force,
    certify,
    cyclotomic_polynomial,
    evaluate_isobaric,
    evaluate_isobaric_closed,
    f_series,
    isobaric_decomposition,
    power_polynomial,
    substitute_qn,
    trivial_character,
    weight_series,
)
from helpers import nested_enumeration

X = Polynomial.monomial(1)
X2 = Polynomial.monomial(2)


def test_brute_force_single_sum_is_divisor_sum():
    series = brute_force(MacMahonSpec(1, 1, 2, X), 12)
    sigma = [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 13)]
    assert list(series.coeffs) == [0] + sigma
    assert list(series.coeffs)[:6] == [0, 1, 3, 4, 7, 6]


def test_brute_force_matches_nested_enumeration_small():
    for spec in [
        MacMahonSpec(2, 1, 2, X, strict=True),
        MacMahonSpec(2, 1, 2, X, strict=False),
        MacMahonSpec(2, 4, 2, X2, strict=True),
        MacMahonSpec(3, 3, 1, X, strict=False),
    ]:
        order = 14
        assert brute_force(spec, order) == nested_enumeration(spec, order)


def test_strict_equals_weak_for_single_index():
    for n, k, q_poly in [(1, 2, X), (4, 2, X2), (6, 1, X)]:
        a = brute_force(MacMahonSpec(1, n, k, q_poly, strict=True), 25)
        b = brute_force(MacMahonSpec(1, n, k, q_poly, strict=False), 25)
        assert a == b


def test_brute_force_requires_vanishing_numerator_at_zero():
    with pytest.raises(ValueError):
        brute_force(MacMahonSpec(1, 2, 1, Polynomial([1, 1]), strict=True), 5)


def test_weight_series_matches_direct_expansion():
    order = 24
    for n_level, k, q_poly in [(1, 2, X), (4, 2, X2), (6, 3, X)]:
        for n in (1, 2, 3, 5, 7):
            direct = substitute_qn(q_poly, n, order) * (
                substitute_qn(cyclotomic_polynomial(n_level), n, order).inverse() ** k
            )
            assert weight_series(n_level, k, q_poly, n, order) == direct


def test_power_polynomial():
    assert power_polynomial(X, 3) == Polynomial.monomial(3)
    assert power_polynomial(X + Polynomial.monomial(3), 2) == Polynomial(
        [0, 0, 1, 0, 2, 0, 1]
    )
    for s in (1, 2, 5):
        assert power_polynomial(X2, s).degree() == 2 * s


def test_isobaric_decomposition_single_index():
    terms = isobaric_decomposition(1, True)
    assert len(terms) == 1
    assert terms[0].weight == 1 and terms[0].sign == 1


def test_isobaric_decomposition_pair_terms():
    strict = {
        tuple(t.partition.parts()): t.weight * t.sign
        for t in isobaric_decomposition(2, True)
    }
    assert strict == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    weak = {
        tuple(t.partition.parts()): t.weight * t.sign
        for t in isobaric_decomposition(2, False)
    }
    assert weak == {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}


def test_isobaric_terms_have_weight_t():
    for t in range(1, 8):
        for strict in (True, False):
            for term in isobaric_decomposition(t, strict):
                assert term.partition.total() == t


def test_evaluate_isobaric_matches_brute_force():
    order = 30
    assert evaluate_isobaric(1, 2, X, 2, True, order) == brute_force(
        MacMahonSpec(2, 1, 2, X, True), order
    )
    assert evaluate_isobaric(4, 1, X, 3, True, order) == brute_force(
        MacMahonSpec(3, 4, 1, X, True), order
    )


def test_evaluate_isobaric_single_index_is_brute_force():
    order = 20
    for strict in (True, False):
        assert evaluate_isobaric(3, 2, X2, 1, strict, order) == brute_force(
            MacMahonSpec(1, 3, 2, X2, strict), order
        )


def _exp_of_x_polynomial(coeffs: list[QSeries], t: int, order: int):
    """exp of sum_m coeffs[m] X^m truncated at X^t, an oracle independent of
    the partition decomposition."""
    result = [QSeries.one(order)] + [QSeries.zero(order) for _ in range(t)]
    power = [QSeries.one(order)] + [QSeries.zero(order) for _ in range(t)]
    fact = 1
    for i in range(1, t + 1):
        new_power = [QSeries.zero(order) for _ in range(t + 1)]
        for d1 in range(t + 1):
            for d2 in range(1, t + 1 - d1):
                new_power[d1 + d2] = new_power[d1 + d2] + power[d1] * coeffs[d2]
        power = new_power
        fact *= i
        for d in range(t + 1):
            result[d] = result[d] + power[d].scale(Fraction(1, fact))
    return result


@pytest.mark.parametrize(
    "n,k",
    [(1, 2), (2, 2), (3, 1), (4, 1), (6, 1), (12, 1)],
)
def test_log_exponential_identities(n, k):
    # the X^t coefficient of exp(sum_m (+-1)^(m-1) U_(mk)(Q^m) X^m / m)
    # reproduces the nested series, strict with alternating signs and weak
    # with all-plus signs
    order = 40
    t_max = 5
    q_poly = admissible_polynomials(n, k)[0]
    singles = {
        m: brute_force(MacMahonSpec(1, n, m * k, power_polynomial(q_poly, m)),
                       order)
        for m in range(1, t_max + 1)
    }
    for strict in (True, False):
        coeffs = [QSeries.zero(order)]
        for m in range(1, t_max + 1):
            sign = Fraction((-1) ** (m - 1)) if strict else Fraction(1)
            coeffs.append(singles[m].scale(sign / m))
        exp = _exp_of_x_polynomial(coeffs, t_max, order)
        for t in range(1, t_max + 1):
            assert exp[t] == brute_force(
                MacMahonSpec(t, n, k, q_poly, strict), order
            ), (n, k, t, strict)


def test_strict_weak_bridge_at_two_indices():
    order = 30
    for n, k, q_poly in [(1, 2, X), (3, 1, X), (4, 2, X2), (6, 2, X2)]:
        weak = brute_force(MacMahonSpec(2, n, k, q_poly, strict=False), order)
        strict = brute_force(MacMahonSpec(2, n, k, q_poly, strict=True), order)
        single = brute_force(
            MacMahonSpec(1, n, 2 * k, power_polynomial(q_poly, 2)), order
        )
        assert weak - strict == single


def test_isobaric_closed_form_equivalence():
    order = 30
    inp = AdmissibleInput(4, 1, X)
    for t in (2, 3):
        for strict in (True, False):
            assert evaluate_isobaric_closed(inp, t, strict, order) == brute_force(
                MacMahonSpec(t, 4, 1, X, strict), order
            )


def test_certify_identical_series():
    s = brute_force(MacMahonSpec(1, 1, 2, X), 20)
    cert = certify(s, s, "lhs", "rhs")
    assert cert.match and cert.first_mismatch is None


def test_certify_reports_first_mismatch():
    a = QSeries([0, 1, 2, 3, 4], 4)
    b = QSeries([0, 1, 2, 5, 9], 4)
    cert = certify(a, b, "a", "b")
    assert not cert.match
    assert cert.first_mismatch[0] == 3
    assert cert.first_mismatch[1] == 3 and cert.first_mismatch[2] == 5


def test_certify_constant_offset():
    a = QSeries([Fraction(1, 8), 1, 2], 2)
    b = QSeries([0, 1, 2], 2)
    assert certify(a, b, "a", "b", constant_offset=Fraction(1, 8)).match
    assert not certify(a, b, "a", "b").match


def test_certify_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        certify(QSeries([1], 0), QSeries([1, 0], 1), "a", "b")


def test_certify_reference_case_level_four():
    order = 60
    brute = brute_force(MacMahonSpec(1, 4, 2, X2), order)
    manual = f_series(2, trivial_character(), 2, order) - f_series(
        2, trivial_character(), 4, order
    ).scale(Fraction(4))
    assert certify(brute, manual, "brute", "reference combination").match


def test_certificate_json_shape():
    cert = certify(QSeries([0, 1], 1), QSeries([0, 2], 1), "a", "b",
                   descriptor="demo")
    data = cert.to_json()
    assert set(data) == {
        "descriptor", "order", "lhs", "rhs", "constant_offset", "match",
        "first_mismatch",
    }
    assert data["first_mismatch"] == {"exponent": 1, "lhs": "1", "rhs": "2"}

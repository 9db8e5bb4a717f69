import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomac import macmahon, series
from cyclomac import (
    AdmissibleInput,
    MacMahonSpec,
    OrderMismatchError,
    Polynomial,
    QSeries,
    admissible_polynomials,
    brute_force,
    certify,
    closed_form,
    evaluate_isobaric,
    f_series,
    to_g_form,
    trivial_character,
    weight_series,
)
from cyclomac.cli import REFERENCE_CASES, build_parser, main
from helpers import (
    as_fraction,
    brute_single_sums,
    entered_functions,
    frac_pow,
    isobaric_by_partitions,
    isobaric_decomposition,
    nested_enumeration,
    poly_coeffs,
    poly_from_rationals,
    quasimodular_basis,
    quasimodular_fit,
    rational_function_series,
    series_from_rationals,
    series_mul,
    sweep_inputs,
)

X = Polynomial.monomial(1)
X2 = Polynomial.monomial(2)


def test_brute_force_single_sum_is_divisor_sum():
    series = brute_force(MacMahonSpec(1, 1, 2, X), 12)
    sigma = [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 13)]
    assert list(series.coeffs) == [0] + sigma
    assert list(series.coeffs)[:6] == [0, 1, 3, 4, 7, 6]


def test_brute_force_matches_nested_enumeration_small():
    # Rational numerators at N = 1, 2, 3, 12, odd and even k: brute force
    # scales them to integers, and Phi_1^k has constant term (-1)^k.
    half_x = poly_from_rationals([0, Fraction(1, 2), Fraction(-2, 3)])
    three_quarters = poly_from_rationals([0, Fraction(3, 4), 0, 1])
    third = poly_from_rationals([0, 1, Fraction(-1, 3)])
    two_fifths = poly_from_rationals([0, 0, Fraction(2, 5), 0, 1])
    for spec in [
        MacMahonSpec(2, 1, 2, X, strict=True),
        MacMahonSpec(2, 1, 2, X, strict=False),
        MacMahonSpec(2, 4, 2, X2, strict=True),
        MacMahonSpec(3, 3, 1, X, strict=False),
        MacMahonSpec(3, 1, 3, half_x, strict=False),
        MacMahonSpec(4, 1, 2, half_x, strict=True),
        MacMahonSpec(4, 2, 1, three_quarters, strict=True),
        MacMahonSpec(2, 2, 2, three_quarters, strict=False),
        MacMahonSpec(3, 3, 1, third, strict=True),
        MacMahonSpec(4, 3, 2, third, strict=False),
        MacMahonSpec(2, 12, 3, two_fifths, strict=False),
        MacMahonSpec(3, 12, 4, two_fifths, strict=True),
    ]:
        order = 14
        assert brute_force(spec, order) == nested_enumeration(spec, order)
    # Depth 1 returns the divisor sums of the weight series' numerators,
    # here with Phi_1^k negated (odd k), Q = 0, and at order 1.
    for spec in [
        MacMahonSpec(1, 1, 3, half_x, strict=True),
        MacMahonSpec(1, 1, 1, third, strict=False),
        MacMahonSpec(1, 12, 3, Polynomial([0]), strict=True),
    ]:
        for order in (1, 14):
            assert brute_force(spec, order) == nested_enumeration(spec, order)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "weak"])
@pytest.mark.parametrize("t, n_level, k, order", [
    (4, 5, 3, 24), (5, 3, 1, 22), (6, 1, 2, 24), (1, 1, 3, 24), (1, 5, 2, 1),
])
def test_brute_force_matches_nested_enumeration_deep(t, n_level, k, order,
                                                     strict):
    # A signed, fractional numerator with a large coefficient: the packed
    # recurrence's digits are wide and of both signs, and Q = 0 packs
    # nothing at all.
    signed = poly_from_rationals([0, Fraction(-7, 3), 0, 1000, Fraction(1, 2)])
    for q_poly in (signed, Polynomial([0])):
        spec = MacMahonSpec(t, n_level, k, q_poly, strict)
        assert brute_force(spec, order) == nested_enumeration(spec, order)


# Numerators with Q(0) = 0 and signed fractional coefficients, up to x^5.
NUMERATORS = st.lists(st.fractions(min_value=-40, max_value=40,
                                   max_denominator=6),
                      min_size=1, max_size=5).map(
                          lambda c: poly_from_rationals([0, *c]))


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.builds(MacMahonSpec, st.integers(1, 5), st.integers(1, 12),
                 st.integers(1, 3), NUMERATORS, st.booleans()),
       st.integers(1, 20))
def test_brute_force_matches_nested_enumeration_drawn(spec, order):
    # The packed recurrence skips the steps whose shift clears the whole
    # integer and floors every other shift into the guard digit, which is
    # rounded off once; both must be exact on any draw.
    assert brute_force(spec, order) == nested_enumeration(spec, order)


def test_brute_force_is_exact_at_deep_order():
    # Each floor shift is off by at most |r_j|, so the errors of one depth
    # total at most S, the sum of the majorant's coefficients through the
    # order, and the width leaves room for them below the guard digit.  At
    # t = 2, N = 3, k = 1, Q = x and order 1000, S has 13 bits, one short of
    # the majorant's 14 strict (15 weak): of the specs tried, there the
    # errors come nearest to the digits in size.
    order = 1000
    singles = brute_single_sums(3, 1, X, 2, order)
    for strict in (True, False):
        assert brute_force(MacMahonSpec(2, 3, 1, X, strict), order) == (
            evaluate_isobaric(singles, strict)), strict


def test_brute_force_runs_without_the_isobaric_code(monkeypatch):
    # Brute force is the other side of the isobaric certificates, so it may
    # share none of their code: not the Kronecker product, not the assembly.
    def fail(*args, **kwargs):
        raise AssertionError("brute force reached the isobaric code")

    third = poly_from_rationals([0, Fraction(1, 3), 0, -2])
    expected = {strict: nested_enumeration(MacMahonSpec(3, 4, 2, third, strict),
                                           16)
                for strict in (True, False)}
    for module in (series, macmahon):
        monkeypatch.setattr(module, "kronecker_product", fail)
    monkeypatch.setattr(macmahon, "evaluate_isobaric", fail)
    for strict in (True, False):
        spec = MacMahonSpec(3, 4, 2, third, strict)
        assert brute_force(spec, 16) == expected[strict]


def test_isobaric_assembly_shares_no_product_with_brute_force(monkeypatch):
    # Brute force multiplies its weight series with QSeries.__mul__, so the
    # Newton assembly, the other side of the isobaric certificates, may not.
    def fail(*args, **kwargs):
        raise AssertionError("the isobaric assembly reached QSeries.__mul__")

    order = 40
    singles = brute_single_sums(6, 1,
                                poly_from_rationals([0, 1, 0, Fraction(-1, 2)]),
                                5, order)
    runs = [(t, strict) for t in (3, 5) for strict in (True, False)]
    expected = {run: evaluate_isobaric(singles[:run[0]], run[1])
                for run in runs}
    monkeypatch.setattr(QSeries, "__mul__", fail)
    for t, strict in runs:
        assert evaluate_isobaric(singles[:t], strict) == expected[t, strict]


@pytest.mark.parametrize("argv", [
    ["verify", "--N", "6", "--k", "2", "--Q", "x^2", "--t", "3", "--format",
     "json"],
    ["sweep", "--max-N", "6", "--max-k", "2", "--order", "20", "--format",
     "json"],
], ids=["verify", "sweep"])
def test_matching_certificates_build_no_fraction_series(argv, capsys,
                                                        monkeypatch):
    # Certificates compare numerators and denominators; Fractions are built
    # only to report a mismatch.
    def refuse(self):
        raise AssertionError("a Fraction view of a series was built")

    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(QSeries, "coeffs", property(refuse))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_strict_equals_weak_for_single_index():
    for n, k, q_poly in [(1, 2, X), (4, 2, X2), (6, 1, X)]:
        a = brute_force(MacMahonSpec(1, n, k, q_poly, strict=True), 25)
        b = brute_force(MacMahonSpec(1, n, k, q_poly, strict=False), 25)
        assert a == b


def test_brute_force_requires_vanishing_numerator_at_zero():
    with pytest.raises(ValueError):
        brute_force(MacMahonSpec(1, 2, 1, Polynomial([1, 1]), strict=True), 5)


def test_weight_series_matches_direct_expansion():
    rational = poly_from_rationals([0, Fraction(3, 4), Fraction(-2, 3), 0, 0, 5])
    for n_level in (1, 2, 3, 4, 6, 12):
        for k in (1, 2, 3, 4, 9):
            for q_poly in (X, X2, rational):
                for order in (1, 3, 24):
                    direct = rational_function_series(
                        AdmissibleInput(n_level, k, q_poly), order)
                    assert weight_series(n_level, k, q_poly,
                                         order).coeffs == tuple(direct)


def test_polynomial_power():
    # The numerators Q^s of the single sums U_s, as repeated products.
    assert X * X * X == Polynomial.monomial(3)
    q_poly = X + Polynomial.monomial(3)
    assert q_poly * q_poly == Polynomial([0, 0, 1, 0, 2, 0, 1])
    power = X2
    for s in range(2, 6):
        power = power * X2
        assert power == Polynomial.monomial(2 * s)


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
    assert evaluate_isobaric(brute_single_sums(1, 2, X, 2, order),
                             True) == brute_force(
        MacMahonSpec(2, 1, 2, X, True), order
    )
    assert evaluate_isobaric(brute_single_sums(4, 1, X, 3, order),
                             True) == brute_force(
        MacMahonSpec(3, 4, 1, X, True), order
    )
    # The Newton assembly of depth-1 brute forces checks the packed width at
    # depth, where nested enumeration is exponential.  The strict width
    # divides the majorant A^d by d!.  At t = 2, N = 1 that bound is tight
    # at depth 2, so a width two bits narrower gives wrong strict digits
    # (q^95 to q^100); one bit narrower still passes, as the width is a
    # sufficient bound, not a tight one.
    signed = poly_from_rationals([0, Fraction(-7, 3), 0, 1000, Fraction(1, 2)])
    for t, n, k, q_poly, order in [(20, 3, 1, X, 240), (8, 1, 1, signed, 100),
                                   (8, 12, 2, signed, 100),
                                   (2, 1, 1, signed, 100)]:
        singles = brute_single_sums(n, k, q_poly, t, order)
        for strict in (True, False):
            assert evaluate_isobaric(singles, strict) == brute_force(
                MacMahonSpec(t, n, k, q_poly, strict), order), (t, n, strict)


def test_evaluate_isobaric_single_index_is_brute_force():
    order = 20
    for strict in (True, False):
        assert evaluate_isobaric(brute_single_sums(3, 2, X2, 1, order),
                                 strict) == brute_force(
            MacMahonSpec(1, 3, 2, X2, strict), order
        )


def test_evaluate_isobaric_rejects_single_sums_of_different_orders():
    # U_1 at order 10 and U_2 at order 5 (N = 3, k = 1, Q = x): reading U_2
    # past its order would give q^6 = 1/2, where brute force gives 3.
    u1 = brute_force(MacMahonSpec(1, 3, 1, X), 10)
    u2 = brute_force(MacMahonSpec(1, 3, 2, X2), 5)
    assert brute_force(MacMahonSpec(2, 3, 1, X), 10)[6] == 3
    for strict in (True, False):
        with pytest.raises(OrderMismatchError):
            evaluate_isobaric([u1, u2], strict)


def test_evaluate_isobaric_needs_a_single_sum():
    for strict in (True, False):
        with pytest.raises(ValueError):
            evaluate_isobaric([], strict)


@pytest.mark.parametrize("n, k, q_poly, order", [
    (1, 3, Polynomial([0, 1, -1]), 20),        # Phi_1 = x - 1 is negated
    (3, 1, Polynomial(), 20),                  # Q = 0
    (12, 2, poly_from_rationals([0, Fraction(1, 2), Fraction(-2, 3)]), 20),
    (4, 2, X2, 1),
    (6, 1, Polynomial([0, 1, 0, 1]), 25),
])
def test_newton_assembly_matches_partition_formula(n, k, q_poly, order):
    singles = brute_single_sums(n, k, q_poly, 8, order)
    for t in range(1, 9):
        for strict in (True, False):
            assert evaluate_isobaric(singles[:t], strict) == (
                isobaric_by_partitions(lambda s: singles[s - 1], t, strict,
                                       order)
            ), (t, strict)


def test_newton_assembly_makes_t_choose_2_products(monkeypatch):
    # The term by E_0 = 1 of each E_j needs no product, so depth t makes
    # t(t-1)/2 Kronecker products, not t(t+1)/2, with the same result.
    order = 20
    singles = brute_single_sums(6, 1,
                                poly_from_rationals([0, 1, 0, Fraction(-1, 2)]),
                                6, order)
    calls = []

    def counting(*args):
        calls.append(args)
        return series.kronecker_product(*args)

    monkeypatch.setattr(macmahon, "kronecker_product", counting)
    for t in range(1, 7):
        for strict in (True, False):
            calls.clear()
            got = evaluate_isobaric(singles[:t], strict)
            assert len(calls) == t * (t - 1) // 2, (t, strict)
            assert got == isobaric_by_partitions(lambda s: singles[s - 1], t,
                                                 strict, order), (t, strict)


def _add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def _exp_of_x_polynomial(coeffs: list[list], t: int, order: int):
    """exp of sum_m coeffs[m] X^m truncated at X^t, each coefficient a
    Fraction list through q^order; an oracle independent of the partition
    decomposition."""
    zero = [Fraction(0)] * (order + 1)
    result = [[Fraction(1)] + zero[1:]] + [zero] * t
    power = list(result)
    fact = 1
    for i in range(1, t + 1):
        new_power = [zero] * (t + 1)
        for d1 in range(t + 1):
            for d2 in range(1, t + 1 - d1):
                new_power[d1 + d2] = _add(new_power[d1 + d2],
                                          series_mul(power[d1], coeffs[d2]))
        power = new_power
        fact *= i
        for d in range(t + 1):
            result[d] = _add(result[d], [c / fact for c in power[d]])
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
    singles = dict(enumerate(brute_single_sums(n, k, q_poly, t_max, order),
                             1))
    for strict in (True, False):
        coeffs = [None]
        for m in range(1, t_max + 1):
            sign = Fraction((-1) ** (m - 1)) if strict else Fraction(1)
            coeffs.append([sign / m * c for c in singles[m].coeffs])
        exp = _exp_of_x_polynomial(coeffs, t_max, order)
        for t in range(1, t_max + 1):
            assert tuple(exp[t]) == brute_force(
                MacMahonSpec(t, n, k, q_poly, strict), order
            ).coeffs, (n, k, t, strict)


def test_strict_weak_bridge_at_two_indices():
    order = 30
    for n, k, q_poly in [(1, 2, X), (3, 1, X), (4, 2, X2), (6, 2, X2)]:
        weak = brute_force(MacMahonSpec(2, n, k, q_poly, strict=False), order)
        strict = brute_force(MacMahonSpec(2, n, k, q_poly, strict=True), order)
        single = brute_force(
            MacMahonSpec(1, n, 2 * k, q_poly * q_poly), order
        )
        assert _add(weak.coeffs, [-c for c in strict.coeffs]) == list(
            single.coeffs)


def test_isobaric_closed_form_equivalence():
    order = 30
    closed = [closed_form(AdmissibleInput(4, s, Polynomial.monomial(s)))
              .evaluate(order) for s in (1, 2, 3)]
    for t in (2, 3):
        for strict in (True, False):
            assert evaluate_isobaric(closed[:t], strict) == brute_force(
                MacMahonSpec(t, 4, 1, X, strict), order)


X_X3 = Polynomial([0, 1, 0, 1])


@pytest.mark.parametrize("t, k, q_poly, rank", [
    (1, 2, X, 2), (2, 2, X, 4), (3, 2, X, 7), (2, 4, X2, 11), (3, 4, X_X3, 23),
])
def test_level_one_series_are_quasimodular(t, k, q_poly, rank):
    # At N = 1 the admissible series are quasimodular on SL2(Z) of mixed
    # weight <= k t, so they lie in the span of E2^a E4^b E6^c; the fit uses
    # none of chars, field or pfdform.  Full rank makes the fit unique.
    order = 60
    singles = [closed_form(AdmissibleInput(
        1, s * k,
        poly_from_rationals(frac_pow(poly_coeffs(q_poly), s)))).evaluate(order)
        for s in range(1, t + 1)]
    for strict in (True, False):
        for series in (brute_force(MacMahonSpec(t, 1, k, q_poly, strict),
                                   order),
                       evaluate_isobaric(singles, strict)):
            solution, found = quasimodular_fit(series.coeffs, k * t)
            assert solution is not None and found == rank, (t, k, strict)


@pytest.mark.parametrize("t, k, q_poly", [
    (1, 3, X), (2, 2, Polynomial([0, 1, 1])), (2, 4, X),
])
def test_inadmissible_level_one_series_are_not_quasimodular(t, k, q_poly):
    # Without the reflection rule the fit must fail: the oracle can say no.
    for strict in (True, False):
        series = brute_force(MacMahonSpec(t, 1, k, q_poly, strict), 60)
        assert quasimodular_fit(series.coeffs, k * t)[0] is None, strict


def test_quasimodular_bases_use_no_characters_fields_or_closed_forms():
    # The oracle must not share code with the closed form it checks.
    entered = entered_functions(
        lambda: [quasimodular_basis(4, level, 20) for level in (1, 2, 3, 4)])
    assert not {name for name in entered
                if name.split(".")[0] in ("chars", "field", "pfdform")}


@pytest.mark.parametrize("n, t, k, q_poly, rank", [
    (2, 1, 2, X, 3), (2, 2, 2, X, 7), (2, 3, 2, X, 13),
    (3, 1, 1, X, 2), (3, 2, 1, X, 4), (3, 3, 1, X, 7), (3, 2, 2, X2, 11),
    (3, 2, 2, X_X3, 11),
    (4, 1, 1, X, 2), (4, 2, 1, X, 5), (4, 3, 1, X, 8), (4, 2, 2, X2, 14),
])
def test_series_at_levels_two_to_four_are_quasimodular(n, t, k, q_poly, rank):
    # The admissible series lie in the quasimodular forms on Gamma_1(N) of
    # mixed weight <= k t; the rank is the number of basis columns, so the
    # fit is unique.
    order = 60
    assert len(quasimodular_basis(k * t, n, order)) == rank
    singles = [closed_form(AdmissibleInput(
        n, s * k,
        poly_from_rationals(frac_pow(poly_coeffs(q_poly), s)))).evaluate(order)
        for s in range(1, t + 1)]
    for strict in (True, False):
        for series in (brute_force(MacMahonSpec(t, n, k, q_poly, strict),
                                   order),
                       evaluate_isobaric(singles, strict)):
            solution, found = quasimodular_fit(series.coeffs, k * t, n)
            assert solution is not None and found == rank, (t, k, strict)


@pytest.mark.parametrize("n, t, k, q_poly", [
    (3, 2, 1, X2), (4, 2, 2, X), (2, 2, 2, Polynomial([0, 1, 1])),
])
def test_inadmissible_series_at_levels_two_to_four_are_not_quasimodular(
        n, t, k, q_poly):
    for strict in (True, False):
        series = brute_force(MacMahonSpec(t, n, k, q_poly, strict), 60)
        assert quasimodular_fit(series.coeffs, k * t, n)[0] is None, strict


def test_fitted_weight_zero_part_is_the_g_form_constant():
    # Each G-form term is a quasimodular form of one weight >= 1, so the
    # weight-0 column of a unique fit is the printed G-form constant, which
    # the G certificate cannot check: evaluate adds back what to_g_form
    # subtracted.  Order 30 gives full rank at every weight <= 4 here.
    order = 30
    checked = 0
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3, 4):
            columns = len(quasimodular_basis(k, n, order))
            for q_poly in admissible_polynomials(n, k):
                series = brute_force(MacMahonSpec(1, n, k, q_poly), order)
                solution, found = quasimodular_fit(series.coeffs, k, n)
                assert found == columns, (n, k, q_poly)
                constant = to_g_form(closed_form(
                    AdmissibleInput(n, k, q_poly))).constant
                assert solution[0] == as_fraction(constant), (n, k, q_poly)
                checked += 1
    assert checked == 28


def _dim_modular_forms(k: int, n: int) -> int:
    """dim M_k(Gamma_1(n)) for k >= 0 and n <= 4 (Diamond and Shurman, A
    First Course in Modular Forms, ch. 3); 0 for odd k at n <= 2."""
    if n <= 2 and k % 2:
        return 0
    if n == 1:
        return k // 12 + 1 - (k % 12 == 2)
    return k // {2: 4, 3: 3, 4: 2}[n] + 1


def _full_rank_order(columns) -> int | None:
    """The least r at which the coefficients of q^0..q^r of the columns are
    linearly independent, by elimination one row at a time; None if they
    are not through the columns' order."""
    pivots = {}  # pivot column -> its row, 1 there and 0 at earlier pivots
    for r in range(len(columns[0][1])):
        row = [col[r] for _, col in columns]
        for c, pivot in pivots.items():
            if row[c]:
                f = row[c]
                row = [a - f * b for a, b in zip(row, pivot)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is not None:
            pivots[lead] = [v / row[lead] for v in row]
            if len(pivots) == len(columns):
                return r
    return None


# r_0 by (N, W): the least order at which the quasimodular forms on
# Gamma_1(N) of mixed weight <= W are told apart by their coefficients of
# q^0..q^r_0; README's table.
FULL_RANK_ORDERS = {(1, 2): 1, (1, 3): 1, (1, 4): 3, (2, 2): 2, (2, 3): 2,
                    (2, 4): 6, (3, 1): 1, (3, 2): 3, (3, 3): 6, (3, 4): 10,
                    (3, 6): 22, (4, 1): 1, (4, 2): 4, (4, 3): 7, (4, 4): 13,
                    (4, 6): 29}


def _benchmark_certificates_at_levels_one_to_four():
    """(N, W, order) for the certificates that the benchmark's argvs print
    at N <= 4, W the largest weight of the series they compare: k t for
    verify, k for the examples cases and the sweep items."""
    digests = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                          / "digests.json").read_text())["digests"]
    out = set()
    for command in digests:
        args = build_parser().parse_args(shlex.split(command))
        if args.command == "verify" and args.N <= 4:
            out.add((args.N, args.k * args.t, args.order))
        elif args.command == "examples":
            out.update((case["N"], case["k"], args.order)
                       for case in REFERENCE_CASES if case["N"] <= 4)
        elif args.command == "sweep":
            out.update((inp.N, inp.k, args.order) for inp in sweep_inputs(
                min(args.max_N, 4), args.max_k, args.degree_bound))
    return sorted(out)


def test_benchmark_certificates_at_levels_one_to_four_are_proofs():
    # Both sides of a certificate lie in the quasimodular forms on
    # Gamma_1(N) of mixed weight <= W, M[E2] (Kaneko and Zagier), a space of
    # the dimension below.  Once its basis has full column rank through
    # q^r_0, two of its forms that agree through q^r_0 are equal, so a
    # match at an order >= r_0 is a proof.
    cases = _benchmark_certificates_at_levels_one_to_four()
    assert {(n, w) for n, w, _ in cases} == set(FULL_RANK_ORDERS)
    for n, w, order in cases:
        columns = quasimodular_basis(w, n, order)
        assert len(columns) == sum(_dim_modular_forms(u - 2 * j, n)
                                   for u in range(w + 1)
                                   for j in range(u // 2 + 1)), (n, w)
        r0 = _full_rank_order(columns)
        assert r0 == FULL_RANK_ORDERS[n, w] and r0 <= order, (n, w, order)


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


def test_certify_reports_a_mismatch_at_q0():
    a = series_from_rationals([Fraction(1, 8), 1, 2], 2)
    b = QSeries([0, 1, 2], 2)
    cert = certify(a, b, "a", "b")
    assert not cert.match
    assert cert.first_mismatch == (0, Fraction(1, 8), 0)


def test_certify_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        certify(QSeries([1], 0), QSeries([1, 0], 1), "a", "b")


def test_certify_reference_case_level_four():
    order = 60
    brute = brute_force(MacMahonSpec(1, 4, 2, X2), order)
    manual = QSeries([a - 4 * b for a, b in zip(
        f_series(2, trivial_character(), 2, order),
        f_series(2, trivial_character(), 4, order))])
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

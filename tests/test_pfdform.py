import math
import tracemalloc
from fractions import Fraction

import pytest

from cyclomac import pfdform
from cyclomac import (
    AdmissibleInput,
    ClosedForm,
    DegreeTooLargeError,
    EisensteinTerm,
    NonzeroConstantTermError,
    NotRationalError,
    Polynomial,
    QSeries,
    SymmetryViolationError,
    admissible_polynomials,
    c_coefficients,
    closed_form,
    conjugate_relation_violations,
    cyclotomic_polynomial,
    enumerate_characters,
    euler_phi,
    f_series,
    pfd_coefficients,
    pole_exponents,
    to_g_form,
    trivial_character,
    validate,
    zeta,
)
from cyclomac.field import maybe_rational
from helpers import (
    closed_form_per_pole,
    evaluate_term_by_term,
    rational_function_series,
    reconstruct_series,
    sweep_inputs,
    verify_reconstruction,
)

X = Polynomial.monomial(1)
X2 = Polynomial.monomial(2)


def test_validate_accepts_symmetric_inputs():
    validate(AdmissibleInput(3, 2, X2))
    validate(AdmissibleInput(1, 2, X))


def test_validate_rejects_asymmetric_numerator():
    with pytest.raises(SymmetryViolationError):
        validate(AdmissibleInput(3, 2, X))


def test_validate_rejects_large_degree():
    with pytest.raises(DegreeTooLargeError):
        validate(AdmissibleInput(3, 1, X2))


def test_validate_rejects_nonzero_constant_term():
    with pytest.raises(NonzeroConstantTermError):
        validate(AdmissibleInput(2, 2, Polynomial([1, 1])))


def test_validate_signed_reflection_for_level_one():
    validate(AdmissibleInput(1, 3, X - X2))
    with pytest.raises(SymmetryViolationError):
        validate(AdmissibleInput(1, 3, X + X2))


def test_pole_exponents():
    assert pole_exponents(3) == [1]
    assert pole_exponents(4) == [1]
    assert pole_exponents(12) == [1, 5]
    assert pole_exponents(11) == [1, 2, 3, 4, 5]


def test_pole_coefficients_level_two_weight_four():
    p = pfd_coefficients(AdmissibleInput(2, 4, X2))
    assert p.a[(1, 4)] == 1
    assert p.a[(1, 3)] == -1
    assert p.a[(1, 2)] == 0
    assert p.a[(1, 1)] == 0


def _solve_linear(rows, rhs):
    # plain Gaussian elimination over Fractions, local to this oracle
    n = len(rhs)
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def test_pole_coefficients_match_linear_solve_oracle():
    # Independent route: expand Q(x)/x / Phi_1(x)^k and solve for the
    # combination of 1/(1-x)^r series matching the first k coefficients.
    for k, q_poly in [(2, X), (4, X + Polynomial.monomial(3)), (4, X2)]:
        inp = validate(AdmissibleInput(1, k, q_poly))
        # series of Q(x)/x / (x-1)^k = Q(x)/x * (-1)^k / (1-x)^k
        order = k - 1
        q_over_x = Polynomial(list(q_poly.coeffs)[1:])
        inv = QSeries([1, -1], order).inverse() ** k
        lhs = QSeries.from_polynomial(q_over_x, order) * inv
        lhs = lhs.scale(Fraction((-1) ** k))
        rows = [
            [math.comb(m + r - 1, r - 1) for r in range(1, k + 1)]
            for m in range(k)
        ]
        solved = _solve_linear(rows, [lhs.coeffs[m] for m in range(k)])
        p = pfd_coefficients(inp)
        for r in range(1, k + 1):
            assert p.a[(1, r)] == solved[r - 1], (k, str(q_poly), r)


def test_reconstruction_of_simple_level_one_input():
    p = pfd_coefficients(AdmissibleInput(1, 2, X))
    assert p.a[(1, 1)] == 0 and p.a[(1, 2)] == 1
    order = 8
    assert reconstruct_series(p, order) == rational_function_series(p.input, order)


@pytest.mark.parametrize("inp", sweep_inputs(max_n=12, degree_bound=10),
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_reconstruction_invariant(inp):
    assert verify_reconstruction(pfd_coefficients(inp))


def _top_coefficient_product_formula(inp, j):
    # closed form for the top-order pole coefficient:
    # (-(1/N) * prod over proper divisors d of Phi_d(zeta_N^(-j)))^k * Q(zeta_N^(-j))
    root = zeta(inp.N, -j)
    prod = Fraction(1, inp.N) * -1
    acc = None
    for d in range(1, inp.N):
        if inp.N % d == 0:
            v = cyclotomic_polynomial(d)(root)
            acc = v if acc is None else acc * v
    base = prod * acc
    return base**inp.k * inp.Q(root)


@pytest.mark.parametrize("inp", [i for i in sweep_inputs(max_n=9, degree_bound=8)
                                 if i.N >= 3],
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_top_pole_coefficient_product_formula(inp):
    p = pfd_coefficients(inp)
    for j in pole_exponents(inp.N):
        assert p.a[(j, inp.k)] == _top_coefficient_product_formula(inp, j)


def test_weight_coefficients_reference_values():
    p2 = c_coefficients(pfd_coefficients(AdmissibleInput(2, 4, X2)))
    assert p2.c[(1, 2)] == Fraction(-1, 6)
    assert p2.c[(1, 4)] == Fraction(1, 6)

    root3i = zeta(3) - zeta(3, 2)
    p3 = c_coefficients(pfd_coefficients(AdmissibleInput(3, 2, X2)))
    assert p3.c[(1, 1)] == root3i * Fraction(1, 9)
    assert p3.c[(1, 2)] == Fraction(-1, 3)

    p4 = c_coefficients(pfd_coefficients(AdmissibleInput(4, 2, X2)))
    assert p4.c[(1, 1)] == 0
    assert p4.c[(1, 2)] == Fraction(-1, 4)

    p6 = c_coefficients(pfd_coefficients(AdmissibleInput(6, 2, X2)))
    assert p6.c[(1, 1)] == -root3i * Fraction(1, 9)
    assert p6.c[(1, 2)] == Fraction(-1, 3)


@pytest.mark.parametrize("n", [1, 2])
def test_odd_weight_coefficients_vanish(n):
    for k in range(1, 7):
        for q_poly in admissible_polynomials(n, k):
            p = c_coefficients(pfd_coefficients(AdmissibleInput(n, k, q_poly)))
            for ell in range(1, k + 1, 2):
                assert p.c[(1, ell)] == 0, (n, k, str(q_poly), ell)


@pytest.mark.parametrize("inp", sweep_inputs(max_n=9, degree_bound=10),
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_leading_weight_coefficients(inp):
    n, k = inp.N, inp.k
    p = c_coefficients(pfd_coefficients(inp))
    fact = Fraction(1, math.factorial(k - 1))
    if n == 1:
        assert p.c[(1, k)] == Fraction((-1) ** k) * inp.Q(Fraction(1)) * fact
    elif n == 2:
        assert p.c[(1, k)] == inp.Q(Fraction(-1)) * fact
    else:
        for j in pole_exponents(n):
            expected = _top_coefficient_product_formula(inp, j) * fact
            assert p.c[(j, k)] == expected


@pytest.mark.parametrize("inp", [i for i in sweep_inputs(max_n=9, degree_bound=8)
                                 if i.N >= 3],
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_conjugate_weight_relation(inp):
    assert conjugate_relation_violations(inp) == []


def test_conjugate_relation_catches_asymmetric_pole_data(monkeypatch):
    # Pole data expanded from Q = x breaks the reflection rule that the
    # admissible Q = x^2 (N = 5, k = 1) satisfies.
    expand = pfdform._pole_taylor
    monkeypatch.setattr(pfdform, "_pole_taylor", lambda n, k, q: expand(n, k, X))
    inp = AdmissibleInput(5, 1, X2)
    bad = conjugate_relation_violations(inp)
    assert [(j, ell) for j, ell, _, _ in bad] == [(1, 1), (2, 1)]
    for _, ell, c, c_bar in bad:
        assert c_bar == c.conjugate() != c * (-1) ** ell


def test_closed_form_level_two_weight_four_terms():
    cf = closed_form(AdmissibleInput(2, 4, X2))
    triples = [
        (t.dilation, t.weight, t.coefficient) for t in cf.terms
    ]
    assert triples == [
        (1, 2, Fraction(1, 6)),
        (1, 4, Fraction(-1, 6)),
        (2, 2, Fraction(-2, 3)),
        (2, 4, Fraction(8, 3)),
    ]
    assert all(t.character.modulus == 1 for t in cf.terms)


def test_closed_form_level_one_is_divisor_sum():
    cf = closed_form(AdmissibleInput(1, 2, X))
    assert len(cf.terms) == 1
    t = cf.terms[0]
    assert (t.weight, t.dilation, t.coefficient) == (2, 1, Fraction(1))
    series = cf.evaluate(10)
    sigma = [0] + [sum(d for d in range(1, n + 1) if n % d == 0)
                   for n in range(1, 11)]
    assert list(series.coeffs) == sigma


def test_closed_form_level_four_matches_reference_combination():
    order = 60
    cf = closed_form(AdmissibleInput(4, 2, X2))
    manual = f_series(2, trivial_character(), 2, order) - f_series(
        2, trivial_character(), 4, order
    ).scale(Fraction(4))
    assert cf.evaluate(order) == manual
    gf = to_g_form(cf)
    assert maybe_rational(gf.constant) == Fraction(-1, 8)


def test_g_form_evaluates_to_same_series():
    for n, k in [(2, 4), (3, 2), (4, 2), (6, 2)]:
        cf = closed_form(AdmissibleInput(n, k, X2))
        gf = to_g_form(cf)
        assert gf.evaluate(30) == cf.evaluate(30)


def test_g_form_uses_primitive_or_trivial_characters():
    gf = to_g_form(closed_form(AdmissibleInput(6, 2, X2)))
    for t in gf.terms:
        assert t.character.modulus == 1 or t.character.is_primitive


def test_closed_form_keeps_parity_matched_characters():
    cf = closed_form(AdmissibleInput(5, 2, Polynomial.monomial(4)))
    for t in cf.terms:
        assert t.character.parity == (-1) ** t.weight


def test_closed_form_rationality_on_slice(full_sweep):
    for inp in full_sweep:
        if inp.N < 3 or inp.N > 6:
            continue
        try:
            closed_form(inp).evaluate(20)
        except NotRationalError:
            pytest.fail(f"not rational at N={inp.N}, k={inp.k}")


def test_closed_form_evaluation_matches_brute_on_slice():
    from cyclomac import MacMahonSpec, brute_force

    for inp in sweep_inputs(max_n=6, degree_bound=6):
        order = 30
        assert closed_form(inp).evaluate(order) == brute_force(
            MacMahonSpec(1, inp.N, inp.k, inp.Q), order
        ), (inp.N, inp.k, str(inp.Q))


@pytest.mark.parametrize("inp", sweep_inputs(max_n=12, degree_bound=8),
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_evaluate_matches_term_by_term_sum(inp):
    cf = closed_form(inp)
    for form in (cf, to_g_form(cf)):
        series = form.evaluate(12)
        assert series == evaluate_term_by_term(form, 12), form.form
        assert all(type(c) is Fraction for c in series.coeffs)


@pytest.mark.parametrize("inp", [i for i in sweep_inputs(max_n=12, degree_bound=10)
                                 if i.N >= 3],
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_closed_form_matches_per_pole_route(inp):
    # Summing the pole data against conj(chi)(j) before the one Gauss-sum
    # product must give the same terms, at the same levels, as one product
    # per pole.
    terms = {(t.dilation, t.character, t.weight): t.coefficient
             for t in closed_form(inp).terms}
    oracle = closed_form_per_pole(inp)
    assert set(terms) == set(oracle)
    for key, coef in terms.items():
        assert coef.level == oracle[key].level, key
        assert coef == oracle[key], key


def test_evaluate_raises_on_a_group_that_is_not_rational():
    chi = enumerate_characters(5)[1]
    assert chi.value(2) == zeta(4)
    term = EisensteinTerm(weight=1, character=chi, dilation=1,
                          coefficient=Fraction(1))
    cf = ClosedForm(AdmissibleInput(5, 1, X2), "F", (term,), Fraction(0))
    # chi(1) = 1 is rational: the check covers every residue, not only the
    # ones that reach the truncation order.
    with pytest.raises(NotRationalError):
        cf.evaluate(1)


def test_huge_k_is_rejected_without_a_dense_mirror():
    tracemalloc.start()
    try:
        with pytest.raises(SymmetryViolationError):
            validate(AdmissibleInput(3, 3_000_000, X))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A coefficient list of length phi(N) k would take far more.
    assert peak < 5_000_000


def test_admissible_corpus_is_valid_and_sized():
    for n in range(1, 13):
        for k in range(1, 5):
            if euler_phi(n) * k > 12:
                continue
            polys = admissible_polynomials(n, k)
            d = euler_phi(n) * k
            expected = (d - 1) // 2 if d % 2 else d // 2
            assert len(polys) == expected, (n, k)
            for q in polys:
                validate(AdmissibleInput(n, k, q))


def test_closed_form_json_shape():
    cf = closed_form(AdmissibleInput(4, 2, X2))
    data = cf.to_json()
    assert set(data) == {"form", "N", "k", "Q", "terms", "constant"}
    for term in data["terms"]:
        assert set(term) == {"weight", "character", "dilation", "coefficient"}
        assert set(term["character"]) == {"modulus", "exponents"}

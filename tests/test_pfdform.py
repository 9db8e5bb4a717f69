import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from cyclomac import field, pfdform
from cyclomac import (
    AdmissibleInput,
    ClosedForm,
    CycNum,
    DegreeTooLargeError,
    EisensteinTerm,
    InternalMismatchError,
    NonzeroConstantTermError,
    NotRationalError,
    Polynomial,
    QSeries,
    SymmetryViolationError,
    admissible_polynomials,
    closed_form,
    conjugate_relation_violations,
    cyclotomic_polynomial,
    divisors,
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
from helpers import (
    as_fraction,
    c_by_stirling_sum,
    closed_form_per_pole,
    conductor,
    evaluate_term_by_term,
    pole_taylor_by_horner,
    poly_from_rationals,
    rational_function_series,
    rational_series,
    reconstruct_series,
    series_mul,
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
    validate(AdmissibleInput(1, 3, Polynomial([0, 1, -1])))
    with pytest.raises(SymmetryViolationError):
        validate(AdmissibleInput(1, 3, X + X2))


def test_pole_exponents():
    assert pole_exponents(3) == [1]
    assert pole_exponents(4) == [1]
    assert pole_exponents(12) == [1, 5]
    assert pole_exponents(11) == [1, 2, 3, 4, 5]


def test_pole_coefficients_level_two_weight_four():
    p = pfd_coefficients(AdmissibleInput(2, 4, X2))
    assert p.a[4] == 1
    assert p.a[3] == -1
    assert p.a[2] == 0
    assert p.a[1] == 0


def test_pole_data_is_one_shared_read_only_record():
    inp = AdmissibleInput(3, 2, X2)
    p = pfd_coefficients(inp)
    assert pfd_coefficients(AdmissibleInput(3, 2, X2)) is p
    with pytest.raises(AttributeError):
        p.c = {}
    with pytest.raises(TypeError):
        p.c[1] = CycNum.zero()
    with pytest.raises(TypeError):
        p.a[1] = CycNum.zero()
    assert len(p.taylor) == len(p.a) == len(p.c) == inp.k


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
        q_over_x = Polynomial(q_poly.nums[1:], q_poly.den)
        lhs = [(-1) ** k * c
               for c in QSeries(q_over_x.nums, order, q_over_x.den).coeffs]
        for _ in range(k):
            lhs = series_mul(lhs, [1] * k)      # times 1/(1 - x)
        rows = [
            [math.comb(m + r - 1, r - 1) for r in range(1, k + 1)]
            for m in range(k)
        ]
        solved = _solve_linear(rows, lhs)
        p = pfd_coefficients(inp)
        for r in range(1, k + 1):
            assert as_fraction(p.a[r]) == solved[r - 1], (k, str(q_poly), r)


def test_reconstruction_of_simple_level_one_input():
    p = pfd_coefficients(AdmissibleInput(1, 2, X))
    assert p.a[1] == 0 and p.a[2] == 1
    order = 8
    assert reconstruct_series(p, order) == rational_function_series(
        p.input, order)


@pytest.mark.parametrize("inp", sweep_inputs(max_n=12, degree_bound=10),
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_reconstruction_invariant(inp):
    assert verify_reconstruction(pfd_coefficients(inp))


@pytest.mark.parametrize("inp", [
    *sweep_inputs(max_n=24, max_k=12, degree_bound=12),
    AdmissibleInput(7, 2, poly_from_rationals([0, Fraction(1, 3), 0, 0, 0, 0,
                                               Fraction(5, 7), 0, 0, 0, 0,
                                               Fraction(1, 3)])),
    AdmissibleInput(10, 3, poly_from_rationals([0] * 6 + [Fraction(2, 9)])),
    # Phi_105 has a coefficient -2; a fourth-order pole at a composite
    # level; the two rational poles, and N = 3, at high pole orders.
    AdmissibleInput(105, 1, Polynomial.monomial(24)),
    AdmissibleInput(30, 4, Polynomial.monomial(16)),
    AdmissibleInput(1, 16, Polynomial.monomial(4) + Polynomial.monomial(12)),
    AdmissibleInput(2, 16, Polynomial.monomial(4) + Polynomial.monomial(12)),
    AdmissibleInput(3, 40, X + Polynomial.monomial(40)
                    + Polynomial.monomial(79)),
], ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_pole_taylor_matches_horner_expansion(inp):
    validate(inp)
    assert pfdform._pole_taylor(inp.N, inp.k, inp.Q) == pole_taylor_by_horner(
        inp.N, inp.k, inp.Q)


@pytest.mark.parametrize("inp", [
    AdmissibleInput(1, 4, X + Polynomial.monomial(3)),
    AdmissibleInput(2, 3, X + X2),
    AdmissibleInput(3, 5, Polynomial.monomial(5)),
    AdmissibleInput(12, 2, poly_from_rationals([0, 0, Fraction(1, 2), 0, 0, 0,
                                                Fraction(1, 2)])),
    AdmissibleInput(30, 4, Polynomial.monomial(16)),
], ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_pole_taylor_divides_nothing_in_the_field(inp, monkeypatch):
    validate(inp)
    expected = pole_taylor_by_horner(inp.N, inp.k, inp.Q)

    def refuse(*args):
        raise AssertionError("division in the pole expansion")

    monkeypatch.setattr(CycNum, "inverse", refuse)
    monkeypatch.setattr(QSeries, "inverse", refuse)
    assert pfdform._pole_taylor(inp.N, inp.k, inp.Q) == expected


def _top_coefficient_product_formula(inp, j):
    # closed form for the top-order pole coefficient:
    # (-(1/N) * prod over proper divisors d of Phi_d(zeta_N^(-j)))^k * Q(zeta_N^(-j))
    root = zeta(inp.N, -j)
    prod = CycNum.from_rational(inp.N, -1, inp.N)
    acc = None
    for d in range(1, inp.N):
        if inp.N % d == 0:
            v = cyclotomic_polynomial(d)(root)
            acc = v if acc is None else acc * v
    base = prod * acc
    return math.prod([base] * inp.k) * inp.Q(root)


@pytest.mark.parametrize("inp", [i for i in sweep_inputs(max_n=9, degree_bound=8)
                                 if i.N >= 3],
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_top_pole_coefficient_product_formula(inp):
    p = pfd_coefficients(inp)
    for j in pole_exponents(inp.N):
        assert p.a[inp.k].galois(j) == _top_coefficient_product_formula(inp, j)


def test_weight_coefficients_reference_values():
    p2 = pfd_coefficients(AdmissibleInput(2, 4, X2))
    assert as_fraction(p2.c[2]) == Fraction(-1, 6)
    assert as_fraction(p2.c[4]) == Fraction(1, 6)

    root3i = zeta(3) - zeta(3, 2)
    p3 = pfd_coefficients(AdmissibleInput(3, 2, X2))
    assert p3.c[1] * 9 == root3i
    assert as_fraction(p3.c[2]) == Fraction(-1, 3)

    p4 = pfd_coefficients(AdmissibleInput(4, 2, X2))
    assert p4.c[1] == 0
    assert as_fraction(p4.c[2]) == Fraction(-1, 4)

    p6 = pfd_coefficients(AdmissibleInput(6, 2, X2))
    assert p6.c[1] * 9 == -root3i
    assert as_fraction(p6.c[2]) == Fraction(-1, 3)


@pytest.mark.parametrize("n", [1, 2])
def test_odd_weight_coefficients_vanish(n):
    for k in range(1, 7):
        for q_poly in admissible_polynomials(n, k):
            p = pfd_coefficients(AdmissibleInput(n, k, q_poly))
            for ell in range(1, k + 1, 2):
                assert p.c[ell] == 0, (n, k, str(q_poly), ell)


@pytest.mark.parametrize("inp", sweep_inputs(max_n=9, degree_bound=10),
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_leading_weight_coefficients(inp):
    n, k = inp.N, inp.k
    p = pfd_coefficients(inp)
    fact = math.factorial(k - 1)
    if n == 1:
        assert p.c[k] * fact == (-1) ** k * inp.Q(zeta(1))
    elif n == 2:
        assert p.c[k] * fact == inp.Q(zeta(2))
    else:
        for j in pole_exponents(n):
            expected = _top_coefficient_product_formula(inp, j)
            assert p.c[k].galois(j) * fact == expected


@pytest.mark.parametrize("inp", [i for i in sweep_inputs(max_n=9, degree_bound=8)
                                 if i.N >= 3],
                         ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_conjugate_weight_relation(inp):
    assert conjugate_relation_violations(inp) == []


def test_conjugate_relation_catches_asymmetric_pole_data(monkeypatch):
    # Pole data expanded from Q = x breaks the reflection rule that the
    # admissible Q = x^2 (N = 5, k = 1) satisfies.
    # The uncached builder keeps the corrupted record out of the shared cache.
    expand = pfdform._pole_taylor
    monkeypatch.setattr(pfdform, "_pole_taylor", lambda n, k, q: expand(n, k, X))
    monkeypatch.setattr(pfdform, "pfd_coefficients",
                        pfdform.pfd_coefficients.__wrapped__)
    inp = AdmissibleInput(5, 1, X2)
    bad = conjugate_relation_violations(inp)
    assert [ell for ell, _, _ in bad] == [1]
    for ell, c, c_bar in bad:
        assert c_bar == c.conjugate() != c * (-1) ** ell


@pytest.mark.parametrize("inp", [
    *sweep_inputs(),
    AdmissibleInput(3, 100, Polynomial.monomial(100)),
    AdmissibleInput(5, 30, Polynomial.monomial(60)),
], ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_weight_coefficients_match_the_stirling_sum(inp):
    p = pfd_coefficients(inp)
    assert dict(p.c) == c_by_stirling_sum(p.a, inp.k)


@pytest.mark.parametrize("route", ["_c_from_a", "_c_from_taylor"])
def test_weight_coefficient_routes_are_cross_checked(route, monkeypatch):
    # Either route, off by one at ell = 2, fails the comparison.  The
    # uncached builder keeps the failed input out of the shared cache.
    compute = getattr(pfdform, route)

    def off_by_one(data, k):
        c = compute(data, k)
        c[2] = c[2] + 1
        return c

    monkeypatch.setattr(pfdform, route, off_by_one)
    with pytest.raises(InternalMismatchError, match=r"at ell=2:"):
        pfdform.pfd_coefficients.__wrapped__(
            AdmissibleInput(5, 3, Polynomial.monomial(6)))


def test_closed_form_level_two_weight_four_terms():
    cf = closed_form(AdmissibleInput(2, 4, X2))
    triples = [
        (t.dilation, t.weight, as_fraction(t.coefficient)) for t in cf.terms
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
    assert (t.weight, t.dilation, t.coefficient) == (2, 1, 1)
    series = cf.evaluate(10)
    sigma = [0] + [sum(d for d in range(1, n + 1) if n % d == 0)
                   for n in range(1, 11)]
    assert list(series.coeffs) == sigma


def test_closed_form_level_four_matches_reference_combination():
    order = 60
    cf = closed_form(AdmissibleInput(4, 2, X2))
    manual = QSeries([a - 4 * b for a, b in zip(
        f_series(2, trivial_character(), 2, order),
        f_series(2, trivial_character(), 4, order))])
    assert cf.evaluate(order) == manual
    gf = to_g_form(cf)
    assert as_fraction(gf.constant) == Fraction(-1, 8)


def test_g_form_evaluates_to_same_series():
    for n, k in [(2, 4), (3, 2), (4, 2), (6, 2)]:
        cf = closed_form(AdmissibleInput(n, k, X2))
        gf = to_g_form(cf)
        assert gf.evaluate(30) == cf.evaluate(30)


def test_every_g_form_constant_is_rational():
    # The G-form constant is the weight-0 part of a series with rational
    # coefficients, so it is rational however many characters add into it.
    inputs = sweep_inputs(12, 4, 12) + [
        AdmissibleInput(n, 1, q) for n in (5, 7, 11, 13, 17, 19, 23)
        for q in admissible_polynomials(n, 1)]
    assert len(inputs) == 109 + 44
    for inp in inputs:
        assert to_g_form(closed_form(inp)).constant.is_rational(), inp


def test_g_form_uses_primitive_or_trivial_characters():
    gf = to_g_form(closed_form(AdmissibleInput(6, 2, X2)))
    for t in gf.terms:
        assert (t.character.modulus == 1
                or conductor(t.character) == t.character.modulus)


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
    # At order 40, products m g from different dilations and weights land
    # on the same entry of evaluate's one divisor-sum pass.  Orders 1 and 5
    # lie below the largest dilation at N = 12, so some dilations reach no
    # m at all and some residue classes of m reach none below the order.
    for form, order in product((cf, to_g_form(cf)), (1, 5, 12, 40)):
        series = form.evaluate(order)
        assert series == rational_series(evaluate_term_by_term(form, order)), (
            form.form)
        assert all(type(c) is Fraction for c in series.coeffs)


@pytest.mark.parametrize("inp", [
    *(i for i in sweep_inputs(max_n=12, degree_bound=10) if i.N >= 3),
    # Six poles: the Galois exponents i * j folded into the pole sum.
    *(AdmissibleInput(13, 1, q) for q in admissible_polynomials(13, 1)),
    # Prime powers (16, 25, 27), 20 = 4 * 5 and 21 = 3 * 7: levels
    # L = lcm(N, e) that _reduce divides down in one to three steps.
    *(AdmissibleInput(n, 1, q) for n in (16, 20, 21, 25, 27)
      for q in admissible_polynomials(n, 1)[:3]),
], ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_closed_form_matches_per_pole_route(inp):
    # Summing the pole data against conj(chi)(j) and convolving the sum
    # with the Gauss sum must give the same terms, at the same levels, as
    # one product per pole.
    terms = {(t.dilation, t.character, t.weight): t.coefficient
             for t in closed_form(inp).terms}
    oracle = closed_form_per_pole(inp)
    assert set(terms) == set(oracle)
    for key, coef in terms.items():
        assert coef.level == oracle[key].level, key
        assert coef == oracle[key], key


@pytest.mark.parametrize("inp", [
    AdmissibleInput(5, 2, Polynomial.monomial(4)),
    AdmissibleInput(7, 1, Polynomial.monomial(3)),
    # c(2) = 0 and c(3) = 0: those weights get no row at all.
    AdmissibleInput(12, 2, X + Polynomial.monomial(7)),
    AdmissibleInput(12, 3, Polynomial.monomial(3) + Polynomial.monomial(9)),
    *(AdmissibleInput(13, k, q) for k in (1, 2)
      for q in admissible_polynomials(13, k)[:2]),
], ids=lambda i: f"N{i.N}k{i.k}{i.Q}")
def test_closed_form_reduces_each_term_once(inp, monkeypatch):
    # Each term is the Gauss sum convolved with the pole data into one
    # row, reduced once: no CycNum product, and no row for a weight whose
    # c(ell) is zero.  The pole data reduce only their k Taylor rows; every
    # other row they build is reduced already.
    closed_form(inp)  # fills the caches of the Gauss sums and the plan
    pfd_coefficients.cache_clear()
    calls = {"_reduce": 0, "__mul__": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    reduce = counting("_reduce", field._reduce)
    monkeypatch.setattr(field, "_reduce", reduce)
    monkeypatch.setattr(pfdform, "_reduce", reduce)
    mul = counting("__mul__", CycNum.__mul__)
    monkeypatch.setattr(CycNum, "__mul__", mul)
    monkeypatch.setattr(CycNum, "__rmul__", mul)
    p = pfd_coefficients(inp)
    assert calls == {"_reduce": inp.k, "__mul__": 0}
    terms = [(g, chi, ell) for g in divisors(inp.N)
             for chi in enumerate_characters(inp.N // g)
             for ell in range(1, inp.k + 1)
             if chi.parity == (-1) ** ell and p.c[ell]]
    cf = closed_form(inp)
    assert calls == {"_reduce": inp.k + len(terms), "__mul__": 0}
    assert len(cf.terms) <= len(terms)


def test_evaluate_raises_on_a_group_that_is_not_rational():
    chi = enumerate_characters(5)[1]
    assert chi.value(2) == zeta(4)
    term = EisensteinTerm(weight=1, character=chi, dilation=1,
                          coefficient=CycNum.from_rational(1, 1))
    cf = ClosedForm(AdmissibleInput(5, 1, X2), "F", (term,), CycNum.zero())
    # chi(1) = 1 is rational: the check covers every residue, not only the
    # ones that reach the truncation order.
    with pytest.raises(NotRationalError) as info:
        cf.evaluate(1)
    # The error reports the first entry that is not rational: chi(2) =
    # zeta_4, at the group's level.
    assert info.value.value.level == 4
    assert info.value.value == chi.value(2)


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

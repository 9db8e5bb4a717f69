"""Acceptance suite.  Every check uses exact arithmetic, so all comparisons
are equalities with zero tolerance; one PASS line prints per criterion
(run with `pytest tests/test_acceptance.py -v -s`).
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache

from cyclomac import (
    AdmissibleInput,
    CycNum,
    MacMahonSpec,
    NotRationalError,
    Polynomial,
    QSeries,
    admissible_polynomials,
    brute_force,
    certify,
    closed_form,
    conjugate_relation_violations,
    cyclotomic_polynomial,
    enumerate_characters,
    euler_phi,
    evaluate_isobaric,
    f_series,
    mobius,
    pfd_coefficients,
    pole_exponents,
    to_g_form,
    trivial_character,
    zeta,
)
from cyclomac.cli import MAX_T, main
from helpers import (
    as_fraction,
    brute_single_sums,
    eulerian_poly,
    nested_enumeration,
    rational_series,
    reversed_to,
    stirling_first_unsigned,
    sweep_inputs,
    zeta_power_expand,
)

X = Polynomial.monomial(1)
X2 = Polynomial.monomial(2)
ODD_MOD_3 = enumerate_characters(3)[1]


def _reference_case(n, k, order):
    inp = AdmissibleInput(n, k, X2)
    brute = brute_force(MacMahonSpec(1, n, k, X2), order)
    cf = closed_form(inp)
    gf = to_g_form(cf)
    return brute, cf.evaluate(order), gf


def _combination(order, *terms):
    """The series sum of c * F_weight(chi; dilation * tau) over the terms
    (c, weight, dilation) with chi trivial, or (c, weight, dilation, chi)."""
    total = [Fraction(0)] * (order + 1)
    for c, weight, dilation, *chi in terms:
        f = f_series(weight, chi[0] if chi else trivial_character(), dilation,
                     order)
        total = [a + c * b for a, b in zip(total, rational_series(f).coeffs)]
    return QSeries(total, order)


def test_acceptance_1a_reference_case_level_two():
    order = 100
    started = time.perf_counter()
    brute, closed, gf = _reference_case(2, 4, order)
    # -1/6 (4 F_2(2 tau) - F_2(tau)) + 1/6 (16 F_4(2 tau) - F_4(tau))
    manual = _combination(order, (Fraction(-4, 6), 2, 2),
                          (Fraction(1, 6), 2, 1), (Fraction(16, 6), 4, 2),
                          (Fraction(-1, 6), 4, 1))
    elapsed = time.perf_counter() - started
    assert certify(closed, brute, "closed", "brute").match
    assert certify(manual, brute, "reference combination", "brute").match
    assert as_fraction(gf.constant) == Fraction(-1, 32)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1a: PASS (order {order}, constant -1/32, {elapsed:.2f}s)")


def test_acceptance_1b_reference_case_level_three():
    order = 100
    brute, closed, gf = _reference_case(3, 2, order)
    manual = _combination(order, (-3, 2, 3), (Fraction(1, 3), 2, 1),
                          (Fraction(-1, 3), 1, 1, ODD_MOD_3))
    assert closed == manual
    assert certify(closed, brute, "closed", "brute").match
    assert certify(manual, brute, "reference combination",
                   "brute").match
    assert as_fraction(gf.constant) == Fraction(-1, 18)
    print(f"ACCEPTANCE 1b: PASS (order {order}, constant -1/18)")


def test_acceptance_1c_reference_case_level_four():
    order = 100
    brute, closed, gf = _reference_case(4, 2, order)
    manual = _combination(order, (1, 2, 2), (-4, 2, 4))
    assert certify(closed, brute, "closed", "brute").match
    assert certify(manual, brute, "reference combination", "brute").match
    assert as_fraction(gf.constant) == Fraction(-1, 8)
    print(f"ACCEPTANCE 1c: PASS (order {order}, constant -1/8)")


def test_acceptance_1d_reference_case_level_six():
    order = 100
    brute, closed, gf = _reference_case(6, 2, order)
    manual = _combination(order, (-12, 2, 6), (3, 2, 3),
                          (Fraction(4, 3), 2, 2), (Fraction(-1, 3), 2, 1),
                          (Fraction(2, 3), 1, 2, ODD_MOD_3),
                          (Fraction(1, 3), 1, 1, ODD_MOD_3))
    assert closed == manual
    assert certify(closed, brute, "closed", "brute").match
    assert certify(manual, brute, "reference combination",
                   "brute").match
    assert as_fraction(gf.constant) == Fraction(-1, 2)
    print(f"ACCEPTANCE 1d: PASS (order {order}, constant -1/2)")


def test_acceptance_2_reference_weight_coefficients():
    root3i = zeta(3) - zeta(3, 2)
    p2 = pfd_coefficients(AdmissibleInput(2, 4, X2))
    assert as_fraction(p2.c[2]) == Fraction(-1, 6)
    assert as_fraction(p2.c[4]) == Fraction(1, 6)
    p3 = pfd_coefficients(AdmissibleInput(3, 2, X2))
    assert p3.c[1] * 9 == root3i
    assert as_fraction(p3.c[2]) == Fraction(-1, 3)
    p4 = pfd_coefficients(AdmissibleInput(4, 2, X2))
    assert p4.c[1] == 0
    assert as_fraction(p4.c[2]) == Fraction(-1, 4)
    p6 = pfd_coefficients(AdmissibleInput(6, 2, X2))
    assert p6.c[1] * -9 == root3i
    assert as_fraction(p6.c[2]) == Fraction(-1, 3)
    print("ACCEPTANCE 2: PASS (8 reference coefficients exact)")


@lru_cache(maxsize=1)
def _sweep_results():
    """Shared by criteria 3 and 5: evaluate every closed form in the corpus
    once, recording rationality and equality with brute force."""
    order = 60
    results = []
    started = time.perf_counter()
    for inp in sweep_inputs():
        try:
            evaluated = closed_form(inp).evaluate(order)
        except NotRationalError:
            rational, match = False, False
        else:
            rational = True
            brute = brute_force(MacMahonSpec(1, inp.N, inp.k, inp.Q), order)
            match = evaluated == brute
        results.append((inp, rational, match))
    return results, time.perf_counter() - started


def test_acceptance_3_closed_form_sweep():
    results, elapsed = _sweep_results()
    assert len(results) == 109
    failures = [(i.N, i.k, str(i.Q)) for i, rational, match in results
                if not (rational and match)]
    assert failures == []
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3: PASS ({len(results)} inputs, order 60, "
          f"{elapsed:.1f}s)")


def test_acceptance_4_isobaric_sweep():
    order = 40
    started = time.perf_counter()
    combos = [(1, 2, X)]
    combos += [(n, k, Polynomial.monomial(euler_phi(n) * k // 2))
               for n in (3, 4, 6) for k in (1, 2)]
    checked = 0
    for t in (2, 3, 4, 5):
        for n, k, q_poly in combos:
            for strict in (True, False):
                iso = evaluate_isobaric(
                    brute_single_sums(n, k, q_poly, t, order), strict)
                brute = brute_force(MacMahonSpec(t, n, k, q_poly, strict), order)
                assert iso == brute, (t, n, k, strict)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4: PASS ({checked} comparisons, order {order}, "
          f"{elapsed:.1f}s)")


def test_acceptance_4b_verify_at_the_largest_depth():
    # All five certificates at t = MAX_T: closed forms F and G, the strict
    # and weak isobaric assemblies, and the isobaric closed form.
    argv = ["verify", "--N", "3", "--k", "1", "--Q", "x", "--t", str(MAX_T),
            "--order", "60", "--format", "json"]
    out = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out):
        code = main(argv)
    elapsed = time.perf_counter() - started
    certs = json.loads(out.getvalue())["certificates"]
    assert code == 0
    assert len(certs) == 5 and all(c["match"] for c in certs)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 4b: PASS (t = {MAX_T}, order 60, {elapsed:.2f}s)")


def _check_stirling_eulerian_expansion():
    # the weighted combination of Eulerian kernels reproduces 1/(1-x)^r
    order = 50
    geometric = QSeries([1, -1], order).inverse()
    geom_powers = {0: QSeries([1], order)}
    for ell in range(1, 9):
        geom_powers[ell] = geom_powers[ell - 1] * geometric
    for r in range(1, 9):
        acc = [Fraction(0)] * (order + 1)
        for ell in range(1, r + 1):
            st = stirling_first_unsigned(r - 1, ell - 1)
            if not st:
                continue
            kernel = QSeries(eulerian_poly(ell - 1).coeffs, order) * (
                geom_powers[ell]
            )
            weight = Fraction(st, math.factorial(r - 1))
            acc = [a + weight * c for a, c in zip(acc, kernel.coeffs)]
        assert tuple(acc) == geom_powers[r].coeffs, r


def _check_root_power_expansion():
    for n in range(1, 13):
        for m in range(1, 2 * n + 1):
            total = 0
            for v in zeta_power_expand(n, m).values():
                total = total + v
            assert total == zeta(n, m), (n, m)


def _check_orthogonality():
    for n in range(1, 25):
        chars = enumerate_characters(n)
        for a in range(n):
            total = CycNum.zero(chars[0].level)
            for chi in chars:
                total = total + chi.value(a)
            expected = euler_phi(n) if a % n == 1 % n else 0
            assert total == expected, (n, a)


def _check_eulerian_reciprocity():
    for k in range(1, 11):
        p = eulerian_poly(k)
        assert reversed_to(p, k - 1) == p, k


def _check_cyclotomic_product():
    for n in range(1, 31):
        prod = Polynomial([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == Polynomial([-1] + [0] * (n - 1) + [1]), n


def _check_principal_mobius_identity():
    order = 60
    for n in (2, 3, 4, 6, 12):
        principal = enumerate_characters(n)[0]
        for k in range(1, 5):
            lhs = f_series(k, principal, 1, order)
            rhs = [0] * (order + 1)
            for d in range(1, n + 1):
                if n % d == 0:
                    for e, v in enumerate(f_series(k, trivial_character(), d,
                                                   order)):
                        rhs[e] += mobius(d) * d ** (k - 1) * v
            assert lhs == rhs, (n, k)


def _check_odd_weight_vanishing():
    for n in (1, 2):
        for k in range(1, 7):
            for q_poly in admissible_polynomials(n, k):
                p = pfd_coefficients(AdmissibleInput(n, k, q_poly))
                for ell in range(1, k + 1, 2):
                    assert p.c[ell] == 0, (n, k, str(q_poly))


def _top_product_formula(inp, j):
    root = zeta(inp.N, -j)
    acc = 1
    for d in range(1, inp.N):
        if inp.N % d == 0:
            acc = acc * cyclotomic_polynomial(d)(root)
    base = CycNum.from_rational(inp.N, -1, inp.N) * acc
    return math.prod([base] * inp.k) * inp.Q(root)


def _check_leading_coefficients(corpus):
    for inp in corpus:
        p = pfd_coefficients(inp)
        k = inp.k
        fact = math.factorial(k - 1)
        if inp.N == 1:
            assert p.c[k] * fact == (-1) ** k * inp.Q(zeta(1))
        elif inp.N == 2:
            assert p.c[k] * fact == inp.Q(zeta(2))
        else:
            for j in pole_exponents(inp.N):
                assert p.a[k].galois(j) == _top_product_formula(inp, j)
                assert p.c[k].galois(j) * fact == p.a[k].galois(j)


def _check_conjugate_relation(corpus):
    for inp in corpus:
        assert conjugate_relation_violations(inp) == [], (inp.N, inp.k)


def test_acceptance_5_property_suites():
    corpus = sweep_inputs()
    _check_stirling_eulerian_expansion()
    _check_root_power_expansion()
    _check_orthogonality()
    _check_eulerian_reciprocity()
    _check_cyclotomic_product()
    _check_principal_mobius_identity()
    _check_odd_weight_vanishing()
    _check_leading_coefficients(corpus)
    _check_conjugate_relation(corpus)
    results, _ = _sweep_results()
    assert all(rational for _, rational, _ in results)
    print("ACCEPTANCE 5: PASS (10 property suites exhaustive)")


def test_acceptance_6_oracle_equivalence():
    rng = random.Random(20260810)
    pool = [(n, k) for n in range(1, 13) for k in range(1, 5)
            if euler_phi(n) * k <= 12 and admissible_polynomials(n, k)]
    checked = 0
    while checked < 20:
        n, k = rng.choice(pool)
        q_poly = rng.choice(admissible_polynomials(n, k))
        t = rng.randint(1, 3)
        order = rng.randint(10, 25)
        strict = rng.choice([True, False])
        spec = MacMahonSpec(t, n, k, q_poly, strict)
        assert brute_force(spec, order) == nested_enumeration(spec, order), (
            t, n, k, str(q_poly), order, strict,
        )
        checked += 1
    print("ACCEPTANCE 6: PASS (20 randomized oracle comparisons)")


def test_acceptance_7_classical_divisor_sums():
    order = 60
    series = brute_force(MacMahonSpec(1, 1, 2, X), order)
    for n in range(1, order + 1):
        sigma = sum(d for d in range(1, n + 1) if n % d == 0)
        assert series.coeffs[n] == sigma, n
    print("ACCEPTANCE 7: PASS (divisor sums to order 60)")

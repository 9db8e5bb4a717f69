import importlib.util
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from cyclomac import (
    QSeries,
    binomial,
    comb,
    cyclotomic_polynomial,
    enumerate_characters,
    euler_phi,
    factorial,
    gen_bernoulli,
    mobius,
    trivial_character,
)
from cyclomac.polynomial import Polynomial, cyclotomic_power
from cyclomac.cli import MAX_K
from helpers import (
    Partition,
    _divide_exactly,
    as_fraction,
    bernoulli_by_generating_function,
    cyclotomic_by_division,
    eulerian_poly,
    partitions,
    poly_coeffs,
    reversed_to,
    rising_factorial,
    series_mul,
    stirling_first_unsigned,
)


def test_comb_loads_without_the_package():
    # field and polynomial import comb at their top, so comb itself may
    # import nothing from the package when it loads; its Bernoulli numbers
    # are integers, so it needs no fractions either, which a fresh
    # interpreter loading comb.py alone must show.
    spec = importlib.util.spec_from_file_location("comb_alone", comb.__file__)
    alone = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(alone)
    assert alone.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert alone.euler_phi(12) == 4
    assert alone.mobius(30) == -1
    script = ("import importlib.util, sys; "
              "spec = importlib.util.spec_from_file_location('comb_alone', "
              f"{comb.__file__!r}); "
              "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
              "print('fractions' in sys.modules)")
    out = subprocess.run([sys.executable, "-s", "-c", script],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


def test_stirling_empty_product():
    assert stirling_first_unsigned(0, 0) == 1


@pytest.mark.parametrize("n,k,expected", [(3, 2, 3), (4, 2, 11)])
def test_stirling_small_values_against_polynomial_oracle(n, k, expected):
    assert poly_coeffs(rising_factorial(n))[k] == expected
    assert stirling_first_unsigned(n, k) == expected


def test_stirling_matches_rising_factorial_everywhere():
    # The rising-factorial coefficients obey s(n, k) = s(n-1, k-1) +
    # (n-1) s(n-1, k), with s(0, 0) = 1.
    for n in range(1, 31):
        for k in range(n + 2):
            lower = stirling_first_unsigned(n - 1, k - 1) if k else 0
            assert stirling_first_unsigned(n, k) == (
                lower + (n - 1) * stirling_first_unsigned(n - 1, k))


def test_stirling_row_sums_are_factorials():
    for n in range(13):
        assert sum(stirling_first_unsigned(n, k) for k in range(n + 1)) == factorial(n)


def test_stirling_vanishes_above_diagonal():
    assert stirling_first_unsigned(2, 5) == 0


def test_eulerian_first_values():
    assert eulerian_poly(0) == Polynomial([1])
    assert eulerian_poly(1) == Polynomial([1])
    assert eulerian_poly(2) == Polynomial([1, 1])
    assert eulerian_poly(3) == Polynomial([1, 4, 1])


def test_eulerian_degree_and_reciprocity():
    for k in range(1, 11):
        p = eulerian_poly(k)
        assert p.degree() == k - 1
        assert reversed_to(p, k - 1) == p


def test_eulerian_defining_series():
    # p_k(x)/(1-x)^(k+1) = sum n^k x^(n-1), checked to order 30.
    order = 30
    for k in range(9):
        p = eulerian_poly(k)
        geom = _inverse_one_minus_x_power(k + 1, order)
        series = _poly_times_series(list(poly_coeffs(p)), geom, order)
        for n in range(1, order + 2):
            assert series[n - 1] == n**k, (k, n)


def _inverse_one_minus_x_power(r: int, order: int) -> list[Fraction]:
    return [Fraction(math.comb(i + r - 1, r - 1)) for i in range(order + 2)]


def _poly_times_series(a, b, order):
    out = [Fraction(0)] * (order + 2)
    for i, x in enumerate(a):
        if i > order + 1:
            break
        for j in range(order + 2 - i):
            out[i + j] += x * b[j]
    return out


def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(1) == Polynomial([-1, 1])
    x4 = Polynomial([-1, 0, 0, 0, 1])
    # _divide_exactly asserts that the remainder is zero.
    x2 = Polynomial([-1, 1]) * Polynomial([1, 1])
    assert x4.den == x2.den == 1
    q = _divide_exactly(list(x4.nums), x2.nums)
    assert cyclotomic_polynomial(4) == Polynomial(q)
    assert cyclotomic_polynomial(4) == Polynomial([1, 0, 1])
    assert cyclotomic_polynomial(6) == Polynomial([1, -1, 1])


def test_cyclotomic_product_identity():
    for n in [*range(1, 31), 420]:
        prod = Polynomial([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == Polynomial([-1] + [0] * (n - 1) + [1]), n


@pytest.mark.parametrize("e", [-3, -2, -1, 0, 1, 2, 3])
def test_cyclotomic_power_matches_series_powers(e):
    order = 25
    for n in range(1, 41):
        phi_n = cyclotomic_polynomial(n)
        phi = QSeries(phi_n.nums, order, phi_n.den)
        base, expected = phi.inverse() if e < 0 else phi, QSeries([1], order)
        for _ in range(abs(e)):
            expected = expected * base
        got = cyclotomic_power(n, e, order)
        assert all(type(c) is int for c in got), n
        assert QSeries(got, order) == expected, n


def test_cyclotomic_power_gives_the_pole_cofactor():
    # (x^N - 1)/Phi_N, of degree N - phi(N) < N, is -Phi_N^-1 truncated there.
    for n in range(1, 400):
        assert cyclotomic_polynomial(n).den == 1
        phi = cyclotomic_polynomial(n).nums
        product = [0] * (n + 1)
        for i, a in enumerate(cyclotomic_power(n, -1, n - euler_phi(n))):
            for j, b in enumerate(phi, i):
                product[j] -= a * b
        assert product == [-1] + [0] * (n - 1) + [1], n


@pytest.mark.parametrize("n", range(1, 41))
def test_cyclotomic_power_inverts_phi_built_by_division(n):
    # Phi_N from x^N - 1 and the Phi_d below it, so that neither side of the
    # check runs cyclotomic_power; the product of the k-th powers is 1.
    phi = list(cyclotomic_by_division(n))
    order = 2 * n + 1
    assert cyclotomic_power(n, 1, len(phi) - 1) == phi
    phi += [0] * (order + 1 - len(phi))
    for k in range(1, 4):
        product = cyclotomic_power(n, -k, order)
        for _ in range(k):
            product = series_mul(product, phi)
        assert product == [1] + [0] * order, (n, k)


def test_partitions_of_one():
    parts = partitions(1)
    assert len(parts) == 1
    assert parts[0] == Partition.from_parts([1])


def test_partitions_counts_match_euler_recurrence():
    # p(n) via the pentagonal-number recurrence, independent of the generator.
    limit = 20
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    for n in range(1, limit + 1):
        assert len(partitions(n)) == p[n], n
    assert len(partitions(4)) == 5
    assert len(partitions(7)) == 15


def test_partitions_structure_and_order():
    parts4 = [q.parts() for q in partitions(4)]
    assert parts4 == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    for n in range(1, 12):
        for lam in partitions(n):
            assert lam.total() == n
            assert all(m > 0 for _, m in lam.multiplicities)


def test_gen_bernoulli_weight_two_trivial():
    assert as_fraction(gen_bernoulli(2, trivial_character())) == Fraction(1, 6)


def test_gen_bernoulli_matches_exponential_oracle():
    # Independent oracle: coefficients of t e^t/(e^t - 1) via direct series
    # division over Fractions, to order MAX_K, the largest weight `verify`
    # and `closed-form` reach.  The inverse t/(e^t - 1) gives the classical
    # B_m, which comb holds as the integers (m+1)! B_m.
    order = MAX_K
    num = [Fraction(1, factorial(i)) for i in range(order + 1)]  # e^t
    den = [Fraction(1, factorial(i + 1)) for i in range(order + 1)]  # (e^t-1)/t
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / den[0]
    for n in range(1, order + 1):
        inv[n] = -inv[0] * sum(den[i] * inv[n - i] for i in range(1, n + 1))
    series = [
        sum(num[i] * inv[n - i] for i in range(n + 1)) for n in range(order + 1)
    ]
    for k in range(order + 1):
        assert comb._bernoulli(k) == inv[k] * factorial(k) * factorial(k + 1)
        expected = series[k] * factorial(k)
        assert as_fraction(gen_bernoulli(k, trivial_character())) == expected


@pytest.mark.parametrize("k,modulus,index", [(50, 1, 0), (100, 1, 0),
                                             (99, 3, 1)])
def test_gen_bernoulli_at_the_largest_weights(k, modulus, index):
    # The weights verify and closed-form reach, up to MAX_K: the trivial
    # character and the odd character mod 3.
    chi = enumerate_characters(modulus)[index]
    assert gen_bernoulli(k, chi) == bernoulli_by_generating_function(k, chi)


def test_gen_bernoulli_matches_generating_function_for_every_character():
    for n in range(1, 13):
        for chi in enumerate_characters(n):
            for k in range(9):
                assert gen_bernoulli(k, chi) == bernoulli_by_generating_function(
                    k, chi), (n, chi.index, k)


def test_gen_bernoulli_weight_one_odd_character():
    chi = enumerate_characters(3)[1]
    assert chi.parity == -1
    # finite-sum oracle: B_1 = (1/N) sum_a chi(a) a
    oracle = chi.value(1) * 1 + chi.value(2) * 2
    assert oracle == -1
    assert gen_bernoulli(1, chi) * 3 == oracle


def test_gen_bernoulli_weight_zero_nontrivial_vanishes():
    for n in (3, 4, 5, 7, 8):
        for chi in enumerate_characters(n):
            if not any(chi.exponents):
                continue
            value = gen_bernoulli(0, chi)
            assert value == 0 or value.is_zero()


def _phi_oracle(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def _mobius_oracle(n: int) -> int:
    factors = []
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            count = 0
            while m % d == 0:
                m //= d
                count += 1
            if count > 1:
                return 0
            factors.append(d)
        d += 1
    if m > 1:
        factors.append(m)
    return -1 if len(factors) % 2 else 1


def test_arithmetic_functions_against_oracles():
    for n in range(1, 120):
        assert euler_phi(n) == _phi_oracle(n)
        assert mobius(n) == _mobius_oracle(n)
    assert mobius(6) == 1
    assert mobius(4) == 0
    assert euler_phi(12) == 4


def test_binomial_factorial_are_standard():
    assert binomial(5, 2) == 10
    assert factorial(6) == 720

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomac import (
    CycNum,
    LevelMismatchError,
    NotRationalError,
    cyclotomic_polynomial,
    enumerate_characters,
    gauss_sum,
    zeta,
)
from cyclomac import field
from cyclomac.field import coerce_pair
from cyclomac.polynomial import Polynomial, format_polynomial
from helpers import (
    NotInSubfieldError,
    conductor,
    frac_mul,
    from_rationals,
    poly_from_rationals,
    project,
)


def test_make_basis_element():
    z = CycNum.from_exponents(3, {1: 1})
    assert z.coeffs == (Fraction(0), Fraction(1))


def test_make_reduces_by_cyclotomic_relation():
    # zeta_3^2 = -1 - zeta_3
    assert CycNum.from_exponents(3, {2: 1}).coeffs == (Fraction(-1), Fraction(-1))


def test_make_sum_of_primitive_fifth_roots():
    assert CycNum.from_exponents(5, {1: 1, 2: 1, 3: 1, 4: 1}) == -1


def test_make_empty_map_is_zero():
    assert CycNum.from_exponents(7, {}).is_zero()


def test_make_takes_integer_coefficients_only():
    with pytest.raises(TypeError):
        CycNum.from_exponents(3, {1: Fraction(1, 2)})
    with pytest.raises(TypeError):
        CycNum.from_exponents(3, {1: Fraction(2)})
    assert from_rationals(3, {1: Fraction(1, 2)}) == (
        zeta(3) * CycNum.from_rational(3, 1, 2))


@pytest.mark.parametrize("bad", [Fraction(1, 3), Fraction(2), 0.5, "1/3"],
                         ids=["Fraction", "integral Fraction", "float", "str"])
def test_non_integer_scalars_are_rejected(bad):
    # CycNum and Polynomial arithmetic take ints and their own type only; a
    # rational enters CycNum as an integer pair, and a Polynomial as integer
    # numerators over a denominator.
    x, p = zeta(5), Polynomial([1, 2])
    for op in (lambda: CycNum.from_rational(5, bad), lambda: x + bad,
               lambda: bad + x, lambda: x - bad, lambda: x * bad,
               lambda: bad * x, lambda: Polynomial([bad]),
               lambda: Polynomial([1, bad]), lambda: p * bad,
               lambda: bad * p):
        with pytest.raises(TypeError):
            op()
    # == finds such a scalar unequal even to its own value.
    assert CycNum.from_rational(5, 1, 3) != Fraction(1, 3)


def test_from_rational_needs_a_positive_denominator():
    assert CycNum.from_rational(4, 6, 4).to_rational() == (3, 2)
    for den in (0, -2):
        with pytest.raises(ValueError):
            CycNum.from_rational(4, 1, den)


def test_repr_is_the_from_exponents_call():
    # zeta^5 = zeta^3 - zeta modulo Phi_12 = x^4 - x^2 + 1.
    v = from_rationals(12, {1: Fraction(1, 2), 5: Fraction(-2, 3)})
    assert repr(v) == "CycNum.from_exponents(12, {0: 0, 1: 7, 2: 0, 3: -4}, 6)"
    assert eval(repr(v)) == v


def test_mul_third_roots():
    assert zeta(3) * zeta(3, 2) == 1


def test_mul_conjugate_pair_at_level_four():
    a = 1 + zeta(4)
    b = -zeta(4) + 1
    assert a * b == 2


def test_square_of_root_three_i():
    s = zeta(3) - zeta(3, 2)
    # hand reduction with zeta_3^2 = -1 - zeta_3: (2 zeta_3 + 1)^2 = -3
    assert s * s == -3


def test_inverse_of_rational():
    assert CycNum.from_rational(5, 2).inverse().to_rational() == (1, 2)


def test_inverse_of_root_of_unity_is_conjugate_power():
    assert zeta(3).inverse() == zeta(3, 2)


def test_inverse_product_check():
    a = 1 + zeta(4)
    inv = a.inverse()
    assert inv * 2 == -zeta(4) + 1
    assert a * inv == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(3).inverse()


@pytest.mark.parametrize("level", [1, 2, 7, 9, 12, 16, 20, 36, 45, 60, 105,
                                   420])
def test_inverse_at_prime_powers_and_composite_levels(level):
    # x = 2/3 y with y integral and nonzero: N(y) is a nonzero integer, so
    # N(x) = (2/3)^phi N(y) is no unit, and x has a denominator.
    # Level 1 and 2 have no other conjugate; 9, 16, 20, 36, 45, 60 and 420
    # have a square prime factor.
    rng = random.Random(level)
    y = CycNum.from_exponents(level, [(i, rng.randint(-9, 9))
                                      for i in range(level)])
    if y.is_zero():
        y = y + 1
    x = y * CycNum.from_rational(level, 2, 3)
    inv = x.inverse()
    assert x * inv == 1 and inv * x == 1
    assert inv.level == level
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(level).inverse()


def test_embed_square_root_of_unity():
    assert zeta(2).embed(4) == zeta(4, 2)


def test_embed_rational_unchanged():
    assert CycNum.from_rational(1, 5).embed(12) == 5


def test_embed_power_check():
    e = zeta(3).embed(12)
    assert e == zeta(12, 4)
    assert e * e * e == 1
    assert e != 1


def test_embed_rejects_non_multiple():
    with pytest.raises(LevelMismatchError):
        zeta(4).embed(6)


def test_to_rational_after_cancellation():
    v = CycNum.from_exponents(3, {0: -1}) - zeta(3) + zeta(3)
    assert v.to_rational() == (-1, 1)


def test_to_rational_rejects_imaginary():
    with pytest.raises(NotRationalError) as info:
        zeta(4).to_rational()
    assert info.value.value == zeta(4)


def test_to_rational_gauss_product():
    chi = enumerate_characters(3)[1]
    assert chi.parity == -1 and conductor(chi) == chi.modulus
    g = gauss_sum(chi)
    gbar = gauss_sum(chi.conjugate())
    assert (g * gbar).to_rational() == (-3, 1)


def test_galois_basic():
    assert zeta(3).galois(2) == zeta(3, 2)


def test_galois_fixes_rationals():
    seven_thirds = CycNum.from_rational(12, 7, 3)
    assert seven_thirds.galois(5) == seven_thirds
    assert seven_thirds.galois(5).to_rational() == (7, 3)


def test_galois_negates_root_three_i():
    s = zeta(3) - zeta(3, 2)
    assert s.galois(2) == -s


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        zeta(6).galois(3)


def test_coerce_pair_embeds_at_the_lcm():
    a, b = coerce_pair(zeta(3), zeta(4))
    assert a.level == b.level == 12
    assert a == zeta(3) and b == zeta(4)


@pytest.mark.parametrize("level", range(1, 31))
def test_root_of_unity_relations(level):
    z = zeta(level)
    assert math.prod([z] * level) == 1
    phi = cyclotomic_polynomial(level)
    assert phi(z) == 0


def test_embed_project_round_trip():
    values = [zeta(3) - zeta(3, 2), CycNum.from_rational(3, 5, 7),
              1 + 2 * zeta(6)]
    for v in values:
        assert project(v.embed(12), v.level) == v


def test_project_rejects_outside_subfield():
    with pytest.raises(NotInSubfieldError):
        project(zeta(12), 3)


def _small_fractions():
    return st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    )


def _cyc_numbers(level):
    return st.builds(
        lambda cs: from_rationals(level, enumerate(cs)),
        st.lists(
            _small_fractions(),
            min_size=len(CycNum.zero(level).nums),
            max_size=len(CycNum.zero(level).nums),
        ),
    )


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
def test_ring_axioms(data, level):
    a = data.draw(_cyc_numbers(level))
    b = data.draw(_cyc_numbers(level))
    c = data.draw(_cyc_numbers(level))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_galois_composition(data):
    level = data.draw(st.sampled_from([3, 4, 5, 7, 8, 9, 12]))
    a = data.draw(_cyc_numbers(level))
    units = [s for s in range(1, level) if math.gcd(s, level) == 1]
    s = data.draw(st.sampled_from(units))
    s2 = data.draw(st.sampled_from(units))
    assert a.galois(s).galois(s2) == a.galois((s * s2) % level)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_embed_is_ring_homomorphism(data):
    level = data.draw(st.sampled_from([2, 3, 4, 6]))
    target = data.draw(st.sampled_from([level * 2, level * 3, level * 4]))
    a = data.draw(_cyc_numbers(level))
    b = data.draw(_cyc_numbers(level))
    assert (a * b).embed(target) == a.embed(target) * b.embed(target)
    assert (a + b).embed(target) == a.embed(target) + b.embed(target)


MIXED_LEVELS = [1, 2, 3, 4, 5, 6, 8, 12, 15, 20, 24]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(MIXED_LEVELS))
def test_mixed_operands_meet_at_the_lcm_of_their_levels(data, level):
    # b is a CycNum at any listed level, or an int, which sits at a's
    # level; each operation on (a, b), with b on either side,
    # equals the same operation on the pair embedded by hand.  CycNum has
    # no __rsub__ (the package never subtracts from a rational), so a
    # rational minus a is written -a + b.
    a = data.draw(_cyc_numbers(level))
    b = data.draw(st.one_of(
        st.sampled_from(MIXED_LEVELS).flatmap(_cyc_numbers),
        st.integers(min_value=-6, max_value=6),
    ))
    if isinstance(b, CycNum):
        x, y = coerce_pair(a, b)
    else:
        x, y = a, CycNum.from_rational(level, b)
    assert x.level == y.level == math.lcm(level, getattr(b, "level", 1))
    b_minus_a = b - a if isinstance(b, CycNum) else -a + b
    for got, want in ((a + b, x + y), (b + a, y + x), (a - b, x - y),
                      (b_minus_a, y - x), (a * b, x * y), (b * a, y * x)):
        assert (got.level, got.nums, got.den) == (x.level, want.nums, want.den)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20]))
def test_cyclotomic_numbers_print_like_polynomials(data, level):
    phi = len(CycNum.zero(level).nums)
    cs = data.draw(st.one_of(
        st.just([0] * phi),
        st.lists(_small_fractions(), min_size=phi, max_size=phi),
    ))
    assert str(from_rationals(level, enumerate(cs))) == (
        format_polynomial(poly_from_rationals(cs)).replace("x", f"z{level}"))


def _is_canonical(v):
    return (v.den > 0 and math.gcd(v.den, *v.nums) == 1
            and (any(v.nums) or v.den == 1))


def _from_exponents(level, terms):
    """The Fraction-coefficient definition of sum(c x^e) over (e, c) pairs,
    reduced modulo the monic Phi_level by long division on Fractions."""
    modulus = cyclotomic_polynomial(level).coeffs
    phi = len(modulus) - 1
    dense = [Fraction(0)] * max(max((e for e, _ in terms), default=0) + 1, phi)
    for e, c in terms:
        dense[e] += c
    for top in range(len(dense) - 1, phi - 1, -1):
        c = dense[top]
        for i, m in enumerate(modulus, top - phi):
            dense[i] -= c * m
    return from_rationals(level, enumerate(dense[:phi]))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 12, 15, 42]))
def test_integer_form_matches_fraction_definitions(data, level):
    a = data.draw(_cyc_numbers(level))
    b = data.draw(_cyc_numbers(level))
    r = data.draw(st.integers(min_value=-6, max_value=6))
    results = [a + b, a - b, a * b, a - a, a * 0, a * r, -a]
    assert all(_is_canonical(v) for v in results)
    assert (a - a).nums == (0,) * len(a.nums) and (a - a).den == 1
    assert a + b == from_rationals(
        level, enumerate([x + y for x, y in zip(a.coeffs, b.coeffs)]))
    product = frac_mul(a.coeffs, b.coeffs)
    assert a * b == _from_exponents(level, list(enumerate(product)))
    assert a * r == from_rationals(
        level, enumerate([x * r for x in a.coeffs]))
    units = [s for s in range(1, level + 1) if math.gcd(s, level) == 1]
    s = data.draw(st.sampled_from(units))
    image = a.galois(s)
    assert _is_canonical(image)
    assert image == _from_exponents(
        level, [(i * s % level, c) for i, c in enumerate(a.coeffs)])
    target = level * data.draw(st.sampled_from([2, 3, 5]))
    lifted = a.embed(target)
    assert _is_canonical(lifted)
    assert lifted == _from_exponents(
        target, [(i * (target // level), c) for i, c in enumerate(a.coeffs)])


@pytest.mark.parametrize("level", [*range(1, 37), 60, 105, 210, 420])
def test_reduce_matches_long_division_by_phi(level):
    # _reduce divides by Phi_d(x^(level/d)) for d = p_1, p_1 p_2, ... and
    # only then by Phi_level.  Its remainder must be the one long division
    # by Phi_level gives, for rows as long as a product (2 phi - 1) and as a
    # convolution of closed_form (level + phi).
    rng = random.Random(level)
    phi = len(CycNum.zero(level).nums)
    for length in (1, phi, 2 * phi - 1, level, level + phi):
        row = [rng.randint(-9, 9) for _ in range(length)]
        expected = _from_exponents(level, list(enumerate(row)))
        assert expected.den == 1
        assert tuple(field._reduce(level, row)) == expected.nums, length

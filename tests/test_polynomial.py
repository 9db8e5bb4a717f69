"""`Polynomial` against a Fraction-list oracle.

A polynomial holds integer numerators over one denominator, and takes ints
(and Polynomials) as operands; the oracle in helpers holds plain Fraction
lists, and `poly_from_rationals` builds a Polynomial from one.  Every
operation must give the same value in lowest terms, read back through
`helpers.poly_coeffs`, `degree` and `str`, and
equal values must compare and hash equal however they were built, as
`pfd_coefficients` memoizes on `AdmissibleInput(N, k, Q)`.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomac import AdmissibleInput, CycNum, Polynomial, pfd_coefficients, zeta
from helpers import (
    frac_add,
    frac_mul,
    frac_str,
    frac_trim,
    poly_coeffs,
    poly_from_rationals,
)

RATIONALS = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6),
              st.integers(min_value=1, max_value=4)),
)
COEFFS = st.lists(RATIONALS, max_size=6)
INTS = st.integers(min_value=-6, max_value=6)


def _agrees(p: Polynomial, cs: list) -> None:
    assert poly_coeffs(p) == tuple(cs)
    assert all(type(c) is Fraction for c in poly_coeffs(p))
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1]
    assert p.degree() == (len(cs) - 1 if cs else float("-inf"))
    assert p.is_zero() == (not cs)
    assert str(p) == frac_str(cs)


@settings(max_examples=200, deadline=None)
@given(COEFFS, COEFFS, RATIONALS, INTS)
def test_polynomial_matches_the_fraction_list_oracle(a, b, r, n):
    p, q = poly_from_rationals(a), poly_from_rationals(b)
    pr = poly_from_rationals([r])
    fa, fb, fr, fn = frac_trim(a), frac_trim(b), frac_trim([r]), frac_trim([n])
    _agrees(p, fa)
    _agrees(p + q, frac_add(fa, fb))
    _agrees(p * q, frac_mul(fa, fb))
    _agrees(p * pr, frac_mul(fa, fr))
    _agrees(pr * p, frac_mul(fa, fr))
    _agrees(p * n, frac_mul(fa, fn))
    _agrees(n * p, frac_mul(fa, fn))
    assert (p == q) == (fa == fb)
    assert (p == pr) == (fa == fr)
    assert (p == n) == (fa == fn)
    if p == q:
        assert hash(p) == hash(q)


@settings(max_examples=100, deadline=None)
@given(COEFFS, st.integers(min_value=0, max_value=3))
def test_equal_values_built_differently_hash_equal(a, zeros):
    p = poly_from_rationals(a)
    scaled = Polynomial([int(c * 12) for c in a] + [0] * zeros, 12)
    as_fractions = poly_from_rationals([Fraction(c) for c in a]
                                       + [Fraction(0)] * zeros)
    for other in (scaled, as_fractions):
        assert p == other and hash(p) == hash(other)
        assert (p.nums, p.den) == (other.nums, other.den)


def test_ints_and_fractions_share_one_pole_data_record():
    assert Polynomial([2]) == Polynomial([4], 2)
    assert hash(Polynomial([2])) == hash(Polynomial([4], 2))
    ints = AdmissibleInput(3, 2, Polynomial([0, 0, 2]))
    fractions = AdmissibleInput(3, 2, Polynomial([0, 0, 4], 2))
    assert pfd_coefficients(ints) is pfd_coefficients(fractions)


@settings(max_examples=200, deadline=None)
@given(COEFFS)
def test_repr_rebuilds_the_value(a):
    p = poly_from_rationals(a)
    assert eval(repr(p)) == p
    assert repr(Polynomial([2, 4, 0], 6)) == "Polynomial([1, 2], 3)"


def test_denominators_below_one_are_rejected():
    for nums, den in (([1], 0), ([1], -2), ([], 0), ([2, 4], -6)):
        with pytest.raises(ValueError):
            Polynomial(nums, den)


def test_numerators_are_in_lowest_terms():
    p = Polynomial([2, 0, 6, 0], 4)
    assert (p.nums, p.den) == ((1, 0, 3), 2)
    assert Polynomial([2, 4], 6) == poly_from_rationals([Fraction(1, 3),
                                                         Fraction(2, 3)])
    zero = Polynomial([0, 0], 5)
    assert (zero.nums, zero.den) == ((), 1)


def test_non_rational_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Polynomial([0.5])


def test_the_zero_polynomial_evaluates_to_the_zero_of_the_argument_ring():
    # Horner's rule has no coefficient to start from, so the value is the
    # zero of the ring the argument lives in: a CycNum at its level.
    value = Polynomial()(zeta(5))
    assert isinstance(value, CycNum) and value.level == 5 and value.is_zero()
    assert Polynomial()(CycNum.from_rational(1, 2, 3)) == 0

"""`Polynomial` against a Fraction-list oracle.

A polynomial holds integer numerators over one denominator; the oracle in
helpers holds plain Fraction lists.  Every operation must give the same
value, read back through `coeffs`, `coefficient`, `degree` and `str`, and
equal values must compare and hash equal however they were built, as
`pfd_coefficients` memoizes on `AdmissibleInput(N, k, Q)`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomac import AdmissibleInput, Polynomial, pfd_coefficients
from helpers import frac_add, frac_mul, frac_str, frac_trim

RATIONALS = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6),
              st.integers(min_value=1, max_value=4)),
)
COEFFS = st.lists(RATIONALS, max_size=6)


def _agrees(p: Polynomial, cs: list) -> None:
    assert p.coeffs == tuple(cs) and all(type(c) is Fraction for c in p.coeffs)
    assert p.degree() == (len(cs) - 1 if cs else float("-inf"))
    assert p.is_zero() == (not cs)
    for i in range(-1, len(cs) + 2):
        assert p.coefficient(i) == (cs[i] if 0 <= i < len(cs) else 0)
    assert str(p) == frac_str(cs)


@settings(max_examples=200, deadline=None)
@given(COEFFS, COEFFS, RATIONALS)
def test_polynomial_matches_the_fraction_list_oracle(a, b, r):
    p, q = Polynomial(a), Polynomial(b)
    fa, fb, fr = frac_trim(a), frac_trim(b), frac_trim([r])
    _agrees(p, fa)
    _agrees(p + q, frac_add(fa, fb))
    _agrees(p * q, frac_mul(fa, fb))
    _agrees(p * r, frac_mul(fa, fr))
    _agrees(r * p, frac_mul(fa, fr))
    assert (p == q) == (fa == fb)
    assert (p == r) == (fa == fr)
    if p == q:
        assert hash(p) == hash(q)


@settings(max_examples=100, deadline=None)
@given(COEFFS, st.integers(min_value=0, max_value=3))
def test_equal_values_built_differently_hash_equal(a, zeros):
    p = Polynomial(a)
    scaled = Polynomial([int(c * 12) for c in a] + [0] * zeros, 12)
    as_fractions = Polynomial([Fraction(c) for c in a] + [Fraction(0)] * zeros)
    for other in (scaled, as_fractions):
        assert p == other and hash(p) == hash(other)
        assert (p.nums, p.den) == (other.nums, other.den)


def test_ints_and_fractions_share_one_pole_data_record():
    assert Polynomial([2]) == Polynomial([Fraction(4, 2)])
    assert hash(Polynomial([2])) == hash(Polynomial([Fraction(4, 2)]))
    ints = AdmissibleInput(3, 2, Polynomial([0, 0, 2]))
    fractions = AdmissibleInput(3, 2, Polynomial([0, 0, Fraction(4, 2)]))
    assert pfd_coefficients(ints) is pfd_coefficients(fractions)


def test_numerators_are_in_lowest_terms():
    p = Polynomial([Fraction(2, 4), 0, Fraction(3, 2), 0])
    assert (p.nums, p.den) == ((1, 0, 3), 2)
    assert Polynomial([2, 4], 6) == Polynomial([Fraction(1, 3), Fraction(2, 3)])
    zero = Polynomial([0, Fraction(0, 5)])
    assert (zero.nums, zero.den) == ((), 1)


def test_non_rational_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Polynomial([0.5])

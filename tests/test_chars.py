import math
from fractions import Fraction

import pytest

from cyclomac import (
    CycNum,
    enumerate_characters,
    euler_phi,
    gauss_sum,
    induced_character,
    mobius,
    primitive_character,
    principal_character,
    trivial_character,
    zeta,
)
from helpers import gauss_sum_per_residue, zeta_power_expand


def units(n):
    return [a for a in range(n) if math.gcd(a, n) == 1]


def test_modulus_one_single_character():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    assert chars[0].value(17) == 1
    assert chars[0].is_principal and chars[0].is_primitive


def test_modulus_three_characters():
    chars = enumerate_characters(3)
    assert len(chars) == 2
    assert chars[0].is_principal
    quad = chars[1]
    assert quad.value(2) == -1
    assert quad.parity == -1


def test_modulus_eight_characters_all_real():
    chars = enumerate_characters(8)
    assert len(chars) == 4
    for chi in chars:
        for a in range(8):
            v = chi.value(a)
            assert v.is_zero() or v == 1 or v == -1
    # brute-force: the four tables are distinct and multiplicative
    tables = {tuple(str(chi.value(a)) for a in range(8)) for chi in chars}
    assert len(tables) == 4


@pytest.mark.parametrize("n", range(1, 25))
def test_character_count_and_distinctness(n):
    chars = enumerate_characters(n)
    assert len(chars) == euler_phi(n)
    seen = []
    for chi in chars:
        values = [chi.value(a) for a in range(n)]
        assert values not in seen
        seen.append(values)
    assert chars[0].is_principal


@pytest.mark.parametrize("n", [*range(1, 21), 24, 35, 40])
def test_complete_multiplicativity(n):
    for chi in enumerate_characters(n):
        assert chi.value(1) == 1
        for a in units(n):
            for b in units(n):
                assert chi.value(a) * chi.value(b) == chi.value(a * b), (n, a, b)
        for a in range(n):
            assert (math.gcd(a, n) > 1) == chi.value(a).is_zero()


@pytest.mark.parametrize("n", range(1, 25))
def test_values_are_roots_of_unity_dividing_group_exponent(n):
    for chi in enumerate_characters(n):
        for a in units(n):
            assert chi.value(a) ** chi.level == 1


@pytest.mark.parametrize("n", range(1, 25))
def test_orthogonality(n):
    chars = enumerate_characters(n)
    for a in range(n):
        total = CycNum.zero(chars[0].level)
        for chi in chars:
            total = total + chi.value(a)
        if a % n == 1 % n:
            assert total == euler_phi(n)
        else:
            assert total.is_zero()


def test_gauss_sum_trivial_character():
    assert gauss_sum(trivial_character()) == 1


@pytest.mark.parametrize("n", range(1, 16))
def test_gauss_sum_principal_is_mobius(n):
    # Ramanujan-sum oracle: sum of zeta_n^a over units a.
    oracle = CycNum.zero(n)
    for a in units(n) if n > 1 else [1]:
        oracle = oracle + zeta(n, a)
    assert gauss_sum(principal_character(n)) == oracle
    assert oracle == mobius(n)


def test_gauss_sum_odd_character_mod_three():
    chi = enumerate_characters(3)[1]
    assert gauss_sum(chi) == zeta(3) - zeta(3, 2)


@pytest.mark.parametrize("n", range(1, 16))
def test_gauss_product_for_primitive_characters(n):
    for chi in enumerate_characters(n):
        if not chi.is_primitive:
            continue
        g = gauss_sum(chi)
        gbar = gauss_sum(chi.conjugate())
        assert g * gbar == Fraction(chi.parity * n), (n, chi.index)


@pytest.mark.parametrize("n", [*range(1, 17), 20, 21, 24])
def test_character_census(n):
    # The exponent tables against CycNum values: Gauss sums against one
    # product per residue, parity against chi(-1), and the primitive
    # character against chi on the units.
    for chi in enumerate_characters(n):
        g = gauss_sum(chi)
        oracle = gauss_sum_per_residue(chi)
        assert g.level == oracle.level and g == oracle, (n, chi.index)
        assert chi.value(-1) == chi.parity, (n, chi.index)
        psi = primitive_character(chi)
        assert psi.modulus == chi.conductor and psi.is_primitive
        for a in units(n):
            assert psi.value(a) == chi.value(a), (n, chi.index, a)


def test_power_expansion_single_character_case():
    parts = zeta_power_expand(3, 3)
    assert list(parts) == [0]
    assert parts[0] == 1


def test_power_expansion_at_four_two():
    parts = zeta_power_expand(4, 2)
    total = Fraction(0)
    for v in parts.values():
        total = total + v
    assert total == -1
    assert total == zeta(4, 2)


def test_power_expansion_at_five_two():
    parts = zeta_power_expand(5, 2)
    assert len(parts) == 4
    total = Fraction(0)
    for v in parts.values():
        total = total + v
    assert total == zeta(5, 2)


@pytest.mark.parametrize("n", range(1, 13))
def test_power_expansion_totals(n):
    for m in range(1, 2 * n + 1):
        total = Fraction(0)
        for v in zeta_power_expand(n, m).values():
            total = total + v
        assert total == zeta(n, m), (n, m)


def test_induced_character_three_to_six():
    chi = enumerate_characters(3)[1]
    chi6 = induced_character(chi, 6)
    assert chi6.modulus == 6
    assert chi6.value(5) == -1
    assert chi6.value(2).is_zero()
    assert chi6.value(3).is_zero()
    assert chi6.value(4).is_zero()
    assert chi6.conductor == 3
    assert not chi6.is_primitive


def test_induced_character_identity_cases():
    assert induced_character(trivial_character(), 5) == principal_character(5)
    chi = enumerate_characters(3)[1]
    assert induced_character(chi, 3) == chi


def test_induced_character_rejects_non_multiple():
    with pytest.raises(ValueError):
        induced_character(enumerate_characters(3)[1], 5)


def test_conductor_of_principal_character():
    assert principal_character(6).conductor == 1
    assert trivial_character().conductor == 1


def test_conductor_primitive_mod_three():
    chi = enumerate_characters(3)[1]
    assert chi.conductor == 3
    assert chi.is_primitive


def test_primitive_character_round_trip():
    chi = enumerate_characters(3)[1]
    chi6 = induced_character(chi, 6)
    assert primitive_character(chi6) == chi


@pytest.mark.parametrize("m", range(1, 25))
def test_primitivity_census(m):
    # a primitive character modulo m exists exactly when m is not 2 mod 4
    exists = any(chi.is_primitive for chi in enumerate_characters(m))
    assert exists == (m % 4 != 2)

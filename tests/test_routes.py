"""The two sides of every certificate run different code.

Each side of each certificate that `verify --N 6 --k 2 --Q x^2 --t 3
--order 40` prints is rebuilt here from its inputs, with the package's caches
cleared, and the package functions it enters are collected.  Two sides may
share only the functions pinned below, each with the reason why sharing it
cannot hide a fault that both sides would then make alike.  A change that
makes the routes share more code must extend a list and say why.
"""

import json

import pytest

from cyclomac import (
    AdmissibleInput,
    MacMahonSpec,
    Polynomial,
    brute_force,
    closed_form,
    evaluate_isobaric,
    to_g_form,
)
from cyclomac.cli import main, parse_polynomial
from helpers import entered_functions

N, K, T, ORDER = 6, 2, 3, 40
ARGV = ["verify", "--N", str(N), "--k", str(K), "--Q", "x^2", "--t", str(T),
        "--order", str(ORDER), "--format", "json"]
Q = parse_polynomial("x^2")
POWERS = [Polynomial.monomial(2 * s) for s in range(1, T + 1)]


def _brute_singles():
    return [brute_force(MacMahonSpec(1, N, s * K, q), ORDER)
            for s, q in enumerate(POWERS, 1)]


def _closed_singles():
    return [closed_form(AdmissibleInput(N, s * K, q)).evaluate(ORDER)
            for s, q in enumerate(POWERS, 1)]


# Each side as `verify` builds it, by the label it prints.
SIDES = {
    "closed-form-F": lambda: closed_form(AdmissibleInput(N, K, Q)).evaluate(ORDER),
    "closed-form-G": lambda: to_g_form(
        closed_form(AdmissibleInput(N, K, Q))).evaluate(ORDER),
    "brute-force(t=1)": lambda: brute_force(MacMahonSpec(1, N, K, Q), ORDER),
    f"isobaric-strict(t={T})": lambda: evaluate_isobaric(_brute_singles(), True),
    f"isobaric-weak(t={T})": lambda: evaluate_isobaric(_brute_singles(), False),
    f"isobaric-closed-form(t={T})":
        lambda: evaluate_isobaric(_closed_singles(), True),
    f"brute-force-strict(t={T})":
        lambda: brute_force(MacMahonSpec(T, N, K, Q, True), ORDER),
    f"brute-force-weak(t={T})":
        lambda: brute_force(MacMahonSpec(T, N, K, Q, False), ORDER),
}

# What every closed-form side shares with brute force.
_INPUT_SHARED = {
    "comb.divisors": "trial division over the divisors of N; tested alone "
                     "in test_comb",
    "comb.factorint": "trial-division factorization of small integers; "
                      "tested alone in test_comb",
    "comb.mobius": "mu from the factorization; tested alone in test_comb",
    "series.QSeries.__init__": "stores integers over one denominator in "
                               "lowest terms; no other arithmetic",
    "polynomial.lowest_terms": "QSeries.__init__'s division by one gcd, the "
                               "normalization Polynomial and CycNum share",
    "polynomial.cyclotomic_power": "Phi_N^-k in weight_series and the pole "
                                   "cofactor in _pole_taylor; checked against "
                                   "Phi_N by division, cyclotomic_by_division",
}
# The isobaric certificates check Newton's identities against the nested
# recurrence; their single sums are brute force at t = 1 by design.
_SINGLE_SUMS_SHARED = {
    "macmahon.brute_force": "the single sums U_s, by divisor sums at t = 1; "
                            "the nested side runs the depth recurrence",
    "macmahon.validate_spec": "checks t, N, k >= 1 and Q(0) = 0",
    "macmahon.weight_series": "Q/Phi_N^k, the weights both sides sum",
    "macmahon._inverse_power": "Phi_N^-k inside weight_series, cached per "
                               "(N, k, order)",
    "series.QSeries.__mul__": "the one product inside weight_series",
}

ALLOWED = {
    ("closed-form-F", "brute-force(t=1)"): _INPUT_SHARED,
    ("closed-form-G", "brute-force(t=1)"): _INPUT_SHARED,
    (f"isobaric-strict(t={T})", f"brute-force-strict(t={T})"):
        {**_INPUT_SHARED, **_SINGLE_SUMS_SHARED},
    (f"isobaric-weak(t={T})", f"brute-force-weak(t={T})"):
        {**_INPUT_SHARED, **_SINGLE_SUMS_SHARED},
    (f"isobaric-closed-form(t={T})", f"brute-force-strict(t={T})"):
        _INPUT_SHARED,
}


def test_the_pinned_pairs_are_the_certificates_verify_prints(capsys):
    assert main(ARGV) == 0
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert [(c["lhs"], c["rhs"]) for c in certs] == list(ALLOWED)


@pytest.mark.parametrize("lhs, rhs", list(ALLOWED),
                         ids=[f"{a} vs {b}" for a, b in ALLOWED])
def test_certificate_sides_share_only_the_pinned_functions(lhs, rhs):
    assert SIDES[lhs]() == SIDES[rhs]()
    left, right = entered_functions(SIDES[lhs]), entered_functions(SIDES[rhs])
    assert left & right == set(ALLOWED[lhs, rhs])
    # Neither side divides in a cyclotomic field or reads Phi_N as a
    # Polynomial.
    for side in (left, right):
        assert "field.CycNum.inverse" not in side
        assert "polynomial.cyclotomic_polynomial" not in side

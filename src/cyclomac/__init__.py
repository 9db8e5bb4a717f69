"""cyclomac: exact MacMahon-type q-series with cyclotomic denominators.

The package computes the nested series sum over n_1 < ... < n_t (strict or
weak) of products Q(q^(n_j))/Phi_N(q^(n_j))^k, their closed-form Eisenstein
representations over Dirichlet characters and Gauss sums, their assembly
from the single sums by Newton's identities, and exact coefficient-wise
certificates that the representations agree.
"""

from .chars import (
    DirichletCharacter,
    enumerate_characters,
    gauss_sum,
    primitive_character,
    trivial_character,
)
from .comb import (
    binomial,
    divisors,
    euler_phi,
    factorial,
    factorint,
    gen_bernoulli,
    mobius,
)
from .field import (
    CycNum,
    LevelMismatchError,
    NotRationalError,
    zeta,
)
from .macmahon import (
    Certificate,
    MacMahonSpec,
    brute_force,
    certify,
    evaluate_isobaric,
    weight_series,
)
from .pfdform import (
    AdmissibleInput,
    ClosedForm,
    DegreeTooLargeError,
    InternalMismatchError,
    NonzeroConstantTermError,
    PfdCoefficients,
    SymmetryViolationError,
    ValidationError,
    admissible_polynomials,
    c_coefficients,
    closed_form,
    conjugate_relation_violations,
    pfd_coefficients,
    pole_exponents,
    to_g_form,
    validate,
)
from .polynomial import Polynomial, cyclotomic_polynomial, format_polynomial
from .series import (
    EisensteinTerm,
    NonUnitError,
    OrderMismatchError,
    QSeries,
    f_series,
    g_constant,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleInput",
    "Certificate",
    "ClosedForm",
    "CycNum",
    "DegreeTooLargeError",
    "DirichletCharacter",
    "EisensteinTerm",
    "InternalMismatchError",
    "LevelMismatchError",
    "MacMahonSpec",
    "NonUnitError",
    "NonzeroConstantTermError",
    "NotRationalError",
    "OrderMismatchError",
    "PfdCoefficients",
    "Polynomial",
    "QSeries",
    "SymmetryViolationError",
    "ValidationError",
    "admissible_polynomials",
    "binomial",
    "brute_force",
    "c_coefficients",
    "certify",
    "closed_form",
    "conjugate_relation_violations",
    "cyclotomic_polynomial",
    "divisors",
    "enumerate_characters",
    "euler_phi",
    "evaluate_isobaric",
    "f_series",
    "factorial",
    "factorint",
    "format_polynomial",
    "g_constant",
    "gauss_sum",
    "gen_bernoulli",
    "mobius",
    "pfd_coefficients",
    "pole_exponents",
    "primitive_character",
    "to_g_form",
    "trivial_character",
    "validate",
    "weight_series",
    "zeta",
]

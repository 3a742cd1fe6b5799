"""Truncated multivariable Witt vectors over finite fields.

Power series with constant term 1 in several variables, truncated by
total degree, under series multiplication; unique binomial-coordinate
factorization; decomposition into one-variable components indexed by
primitive exponents; the transported ring multiplication; p-typical
vectors with ghost components and the Artin-Hasse exponential; algebraic
and geometric pairings against polynomial units with nilpotent
coefficients; and invariant-factor computations for the resulting finite
groups, with a brute-force oracle.
"""

from .cft import (
    AbelianGroupStructure,
    LangCensus,
    ModulusGroupDesc,
    brute_force_structure,
    lang_kernel_census,
    modulus_group,
    pi1_truncated,
    transition_surjective,
    witt_group_structure_brute,
)
from .duality import (
    FormalWittElement,
    UnitClass,
    cartier_pair,
    geometric_pair,
    is_polynomial_unit,
    pairing_matrix,
    pairing_via_components,
    random_formal_element,
    separates,
    unit_class,
)
from .errors import (
    EmptyInput,
    ExtensionBoundExceeded,
    InvalidTruncation,
    NilpotentCoefficients,
    NonIntegral,
    NonUnit,
    NonUnitConstantTerm,
    NotAbelian,
    NotAUnit,
    NotClosed,
    NotExact,
    NotNilpotent,
    ShapeMismatch,
    TooLarge,
    UnstableTruncation,
    WittError,
)
from .ptypical import (
    GhostVector,
    PWittVector,
    artin_hasse_coefficients,
    artin_hasse_exp,
    component_lengths,
    from_ghost,
    ghost,
    integer_pwitt,
    pi_epsilon,
    pi_epsilon_inverse,
    pwitt_add,
    pwitt_mul,
    pwitt_pair,
)
from .ring import CoeffRing, FiniteField, RingElement
from .series import TruncatedSeries
from .unipoly import (
    UnivariatePolynomial,
    resultant,
    roots_with_multiplicity,
)
from .witt import (
    OneVarComponentFamily,
    WittCoordinates,
    WittElement,
    decompose,
    enumerate_witt_elements,
    from_coordinates,
    frobenius_witt,
    lang_map,
    random_witt_element,
    ring_one,
    witt_add,
    witt_coordinates,
    witt_mul,
    witt_neg,
)

__version__ = "0.1.0"

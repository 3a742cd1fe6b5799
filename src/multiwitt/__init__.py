"""Truncated multivariable Witt vectors over finite fields.

Power series with constant term 1 in several variables, truncated by
total degree, under series multiplication; unique binomial-coordinate
factorization; decomposition into one-variable components indexed by
primitive exponents; the transported ring multiplication; p-typical
vectors with ghost components and the Artin-Hasse exponential; algebraic
and geometric pairings against polynomial units with nilpotent
coefficients; and invariant-factor computations for the resulting finite
groups, with a brute-force oracle.

Importing the package runs none of its modules.  Each library module is
registered in ``sys.modules`` at once and runs on first attribute access
(``importlib.util.LazyLoader``), and each name below is fetched from its
module on first use (PEP 562), so a command line job compiles only the
modules it needs, while ``from multiwitt import X`` and lookups of a
module by name work as for eager imports.
"""

import importlib.util
import sys

# module -> the names the package re-exports from it
_EXPORTS = {
    "cft": (
        "AbelianGroupStructure",
        "LangCensus",
        "ModulusGroupDesc",
        "lang_kernel_census",
        "modulus_group",
        "pi1_truncated",
        "transition_surjective",
        "witt_group_structure_brute",
    ),
    "duality": (
        "FormalWittElement",
        "UnitClass",
        "cartier_pair",
        "geometric_pair",
        "is_polynomial_unit",
        "pairing_matrix",
        "pairing_via_components",
        "random_formal_element",
        "separates",
        "unit_class",
    ),
    "errors": (
        "EmptyInput",
        "InvalidTruncation",
        "NilpotentCoefficients",
        "NonIntegral",
        "NonUnit",
        "NonUnitConstantTerm",
        "NotAbelian",
        "NotAUnit",
        "NotClosed",
        "NotExact",
        "NotNilpotent",
        "ShapeMismatch",
        "TooLarge",
        "UnstableTruncation",
        "WittError",
    ),
    "ptypical": (
        "GhostVector",
        "PWittVector",
        "artin_hasse_coefficients",
        "artin_hasse_exp",
        "component_lengths",
        "from_ghost",
        "ghost",
        "integer_pwitt",
        "pi_epsilon",
        "pi_epsilon_inverse",
        "pwitt_add",
        "pwitt_mul",
        "pwitt_pair",
    ),
    "ring": ("CoeffRing", "RingElement"),
    "series": ("TruncatedSeries",),
    "unipoly": ("UnivariatePolynomial", "resultant"),
    "witt": (
        "OneVarComponentFamily",
        "WittCoordinates",
        "WittElement",
        "decompose",
        "enumerate_witt_elements",
        "from_coordinates",
        "frobenius_witt",
        "lang_map",
        "random_witt_element",
        "ring_one",
        "witt_add",
        "witt_coordinates",
        "witt_mul",
        "witt_neg",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def _register(module: str):
    name = f"{__name__}.{module}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))

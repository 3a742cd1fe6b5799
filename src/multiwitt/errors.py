"""Exception types shared across the package.

Every mathematically meaningful failure gets its own class so callers
(and the CLI) can report a structured error kind instead of parsing
messages.
"""


class WittError(Exception):
    """Base class for all errors raised by this package."""


class NonUnit(WittError):
    """Inversion requested for a ring element that is not a unit."""


class EmptyInput(WittError):
    """Operation received degenerate input (e.g. resultant of two constants)."""


class ExtensionBoundExceeded(WittError):
    """Root search needs a field extension beyond the allowed degree."""


class ShapeMismatch(WittError):
    """Operands disagree in variable count, truncation order or ring."""


class NonUnitConstantTerm(WittError):
    """Series inversion requires a unit constant term."""


class NotExact(WittError):
    """Evaluation requested on a truncated (non-polynomial) series."""


class NilpotentCoefficients(WittError):
    """Operation requires field coefficients but the ring has nilpotents."""


class NonIntegral(WittError):
    """A universal polynomial produced a non p-integral coefficient.

    The underlying integrality is a theorem, so this firing indicates an
    implementation bug rather than bad input; tests assert it never does.
    """


class NotNilpotent(WittError):
    """Pairing input must have nilpotent coordinates."""


class NotAUnit(WittError):
    """Polynomial is not a unit of the polynomial ring."""


class UnstableTruncation(WittError):
    """Recomputation at the next truncation level changed the result."""


class InvalidTruncation(WittError):
    """Truncation level outside the meaningful range."""


class NotClosed(WittError):
    """Enumerated structure is not closed under its operation."""


class NotAbelian(WittError):
    """Enumerated operation is not commutative."""


class TooLarge(WittError):
    """Requested enumeration exceeds the configured size limit."""


class SchemaError(WittError):
    """Input does not have the documented shape: a bad command line, or a
    JSON value of the wrong type, range or key set."""

"""Exception types shared across the package, and its one refusal policy.

Every mathematically meaningful failure gets its own class so callers
(and the CLI) can report a structured error kind instead of parsing
messages.  Every work bound passes its estimate to ``check_budget`` or
``check_power`` before the work starts; a number of 19 or more digits is
named as "at least 2^k", since printing it may cost more than the work
refused, or fail.

The kernels that multiply and divide series, and the geometric norms,
share one budget of ``WORK_LIMIT`` kernel steps: a step is one ring table
product and one update, and each kernel's estimate bounds its products.  A
step does not cost the same in every kernel (see the spread below), and the
budget does not weight them, so at the rates below the limit admits about
0.3 s of the Artin-Hasse product, 0.4 s of a division and up to about
1.6 s of the geometric norms.  The norms walk no further than f's
conductor C(f) <= deg f (e - 1) + 1, so their estimate is bounded by deg f
and C(f), not by m or g's length.  Every other bound caps a size, not steps.
"""

# steps of one division, series product, product or peel driver, or
# norm.  ``scripts/kernel_steps.py`` on dense F_3 input, ns per step as the
# median of five runs (best of 3 each, one core of a shared 2-vCPU x86-64
# VM, Python 3.11.7): Artin-Hasse product 34, division 37, Artin-Hasse
# peel 61, binomial product 80, series product 85, coordinate peel 120 and
# geometric norm 157, a spread of 4.6 times; no run read more than 1.1
# times its median.
WORK_LIMIT = 10**7


class WittError(Exception):
    """Base class for all errors raised by this package."""


class NonUnit(WittError):
    """Inversion requested for a ring element that is not a unit."""


class EmptyInput(WittError):
    """Operation received degenerate input (e.g. resultant of two constants)."""


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


class SchemaError(WittError, ValueError):
    """Input does not have the documented shape: a bad command line, or a
    JSON value of the wrong type, range or key set.  Also a ValueError, as
    json.JSONDecodeError is, so callers that catch ValueError keep working."""


def _at_least(k: int) -> str:
    return f"at least 2^{k}" if k < 10**18 else f"at least 2^2^{k.bit_length() - 1}"


def _refuse(shown: str, limit: int, what: str, fields: tuple):
    raise TooLarge(what.format(shown, *fields) + f", beyond limit {limit}")


def check_budget(estimate: int, limit: int, what: str, *fields) -> None:
    """TooLarge when ``estimate`` passes ``limit``.  ``what`` names the work
    with the estimate at ``{}``, or at ``{0}`` and ``fields`` at ``{1}``, ..;
    it is formatted only on refusal, and ends ", beyond limit <limit>"."""
    if estimate > limit:
        shown = str(estimate) if estimate < 10**18 else _at_least(estimate.bit_length() - 1)
        _refuse(shown, limit, what, fields)


def check_power(base: int, power: int, limit: int, what: str, *fields) -> int:
    """base^power for base >= 2, checked as by ``check_budget``.  It is at
    least 2^low, low = (bit_length(base) - 1) * power: once low reaches both
    the limit's bit length and 60 it is refused unformed, as "at least
    2^low"; below that it has fewer than 2 * low bits and is formed."""
    low = (base.bit_length() - 1) * power
    if low < max(limit.bit_length(), 60):
        value = base**power
        check_budget(value, limit, what, *fields)
        return value
    _refuse(_at_least(low), limit, what, fields)

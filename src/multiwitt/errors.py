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

Every job compiles this module, and it imports nothing else from the
package, so it also holds what the lightest jobs need beside the errors:
``Record``, the base of every value class; the JSON readers ``json_int``,
``json_list`` and ``json_object``; ``prime_power``, which sizes a field
before any table is built; and ``check_shape``, which sizes an exponent
box before it is built.  A ``pi1`` job runs on these and cft.py alone.
"""

from operator import attrgetter

# steps of one division, series product, product or peel driver, or
# norm.  ``scripts/kernel_steps.py`` on dense F_3 input, ns per step as the
# median of five runs (best of 3 each, one core of a shared 2-vCPU x86-64
# VM, Python 3.11.7): Artin-Hasse product 34, division 37, Artin-Hasse
# peel 61, binomial product 80, series product 85, coordinate peel 120 and
# geometric norm 157, a spread of 4.6 times; no run read more than 1.1
# times its median.
WORK_LIMIT = 10**7
# a field or ring of more elements gets no tables: they grow as its square
_MAX_TABLE_Q = 2048
# an exponent in n variables below d has n entries and a key below d^n, an
# n * log2(d)-bit integer: n * d.bit_length() bounds both
EXPONENT_BITS_LIMIT = 1 << 16


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


def check_shape(n: int, d: int) -> None:
    """SchemaError unless n, d >= 1; TooLarge, before anything is built, when
    exponents at (n, d) are past ``EXPONENT_BITS_LIMIT``."""
    if n < 1 or d < 1:
        raise SchemaError("need n >= 1 and d >= 1")
    what = "at n = {1}, d = {2} an exponent has {1} entries and a key below d^n of up to {0} bits"
    check_budget(n * d.bit_length(), EXPONENT_BITS_LIMIT, what, n, d)


def prime_power(q: int) -> tuple:
    """(p, e) with q = p^e for a field order q: TooLarge past the table
    bound, before q is factored, and SchemaError unless q is a prime power."""
    check_budget(q, _MAX_TABLE_Q, "field has q = {} elements")
    for p in range(2, q + 1):
        if q % p == 0:
            e, rest = 1, q // p
            while rest % p == 0:
                e, rest = e + 1, rest // p
            if rest == 1:
                return p, e
            break
    raise SchemaError(f"{q} is not a prime power")


class Record:
    """Immutable value, equal and hashed by the attributes named in
    ``_fields``, as a frozen dataclass is, without importing dataclasses.
    A subclass declares its ``__slots__``, and ``Record.__init__(*values)``
    fills the fields in order.  A subclass ``__init__`` that checks or
    normalizes its arguments ends in it; one that also fills slots beyond
    the fields (a cache built on first read, when it is read) goes through
    ``_set``.  ``_make`` is the trusted constructor.  Assignment raises
    AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls._fields
        # _key(self) is the tuple of the fields: a lone attrgetter returns
        # the bare value, and a plain function would bind as a method
        get = attrgetter(*fields)
        cls._key = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for setter, value in zip(setters, values):
            setter(self, value)

    @classmethod
    def _make(cls, *values):
        """The value with the fields as given, past any checking ``__init__``:
        the trusted constructor of a class whose slots are its fields."""
        self = object.__new__(cls)
        Record.__init__(self, *values)
        return self

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), self._key(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def json_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` if it is a JSON integer (an ``int``, not a ``bool``) of at
    least ``minimum``; SchemaError otherwise.  Floats such as 2.0 are
    rejected, not coerced."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be a JSON integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{what} must be >= {minimum}, got {value}")
    return value


def json_list(value, what: str) -> list:
    """``value`` if it is a JSON list; SchemaError otherwise."""
    if type(value) is not list:
        raise SchemaError(f"{what} must be a JSON list, got {value!r}")
    return value


def json_object(value, what: str, required, optional=()) -> dict:
    """``value`` if it is a JSON object with every key in ``required`` and
    no key outside ``required`` and ``optional``; SchemaError otherwise."""
    if type(value) is not dict:
        raise SchemaError(f"{what} must be a JSON object, got {value!r}")
    missing = [k for k in required if k not in value]
    unknown = sorted(value.keys() - set(required) - set(optional))
    if missing or unknown:
        raise SchemaError(
            f"{what} needs keys {list(required)} and allows {list(optional)}; "
            f"missing {missing}, unknown {unknown}"
        )
    return value

"""Exact arithmetic in F_q and its nilpotent extensions F_q[eps]/(eps^e_nil).

A finite field F_q with q = p^e is F_p[x]/(f) for a monic irreducible f.
Field elements are stored as integer indices 0..q-1; the base-p digits of
an index are the coefficients of the element on the basis 1, x, .., x^(e-1).

The coefficient rings used everywhere are R = F_q[eps]/(eps^e_nil) with
e_nil >= 1; e_nil = 1 is the field F_q itself, so a field is no separate
object.  A raw element of R is a single integer whose base-q digits are
the eps-coefficients, eps-degree ascending.  An element is a unit iff its
eps^0 digit is nonzero in F_q, and nilpotent iff that digit is zero.

Every ring, field or not, has one representation: full addition,
negation, multiplication, inverse and p-th power tables over all q^e_nil
raw elements, and the coordinate rows of each raw element, attached to
each CoeffRing at construction, so each raw operation is a single
lookup.  A ring is its descriptor (p, e, modulus, nil), the keys of its
JSON form, and one cached object per descriptor: ``CoeffRing.make`` is
its one constructor, which checks and builds it on first use and returns
the same object after; JSON reads, unpickling and deepcopy go through
it.  The tables live as long as their ring, and the 32 most recently
made rings stay cached.  Tables grow as (q^e_nil)^2, so a field or ring
of more than 2048 elements is refused by ``errors.check_power`` before
its order is formed or factored.  Hot loops work on raw integers via the
CoeffRing methods; RingElement is a thin wrapper with operator overloads
for public use and tests.

Rings, their elements and every other value of the library are
``Record``s: immutable, equal and hashed by their fields, so a ring can
key a cache and values can fill sets.  Series, coordinate families and
Witt elements keep their terms in a dict instead; they are never changed
once built either, and are equal and hashed by their terms.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

from .errors import NonUnit, SchemaError, ShapeMismatch, check_budget, check_power

_MAX_TABLE_Q = 2048


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _poly_mod_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divides_p(d, f, p):
    # True when monic d divides f over F_p
    f = list(f)
    _poly_mod_trim(f)
    e = len(d) - 1
    while len(f) - 1 >= e and f:
        c = f[-1]
        k = len(f) - 1 - e
        for t in range(len(d)):
            f[k + t] = (f[k + t] - c * d[t]) % p
        _poly_mod_trim(f)
    return not f


def _check_irreducible(modulus, p):
    e = len(modulus) - 1
    if e == 1:
        return
    # no roots, then trial division by all lower-degree monic polynomials
    for a in range(p):
        acc = 0
        for c in reversed(modulus):
            acc = (acc * a + c) % p
        if acc == 0:
            raise SchemaError(f"modulus has root {a} mod {p}")
    for deg in range(2, e // 2 + 1):
        for idx in range(p**deg):
            d = []
            v = idx
            for _ in range(deg):
                d.append(v % p)
                v //= p
            d.append(1)
            if _poly_divides_p(d, modulus, p):
                raise SchemaError("modulus is reducible over F_p")


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


@lru_cache(maxsize=None)
def _find_irreducible(p: int, e: int):
    """The default modulus of F_(p^e): the first monic irreducible of
    degree e in index order, x for e = 1.  Each (p, e) is searched once."""
    # deterministic scan in index order; desk-scale sizes only
    for idx in range(p**e):
        cand = []
        v = idx
        for _ in range(e):
            cand.append(v % p)
            v //= p
        cand.append(1)
        try:
            _check_irreducible(tuple(cand), p)
            return tuple(cand)
        except SchemaError:
            continue
    raise ValueError(f"no irreducible polynomial found for p={p}, e={e}")


def _ring_tables(p: int, e: int, modulus: tuple, nil: int):
    """(add, neg, mul, inv, frob, coords) tables of F_q[eps]/(eps^nil), q = p^e.

    A raw index is the base-p number whose digit at position i + e*j is
    the coefficient of x^i eps^j.  Addition and negation therefore act
    digit-wise mod p, and multiplication by a fixed a is F_p-linear, so
    the row of a is spanned from the images a * x^i eps^j of the basis.
    inv holds 0 at non-units; frob is the p-th power map; coords holds
    the nil rows of e base-p digits of each raw element, as tuples.
    """
    q = p**e
    size = q**nil
    top = p ** (e - 1)
    # x^e reduced by the monic modulus, as a field index
    x_e = sum(((-c) % p) * p**t for t, c in enumerate(modulus[:-1]))

    # entries index into one shared tuple of ints, so equal values are one object
    ints = tuple(range(size))
    add = [ints]
    neg = [0]
    for a in range(1, size):
        low, high_row = a % p, add[a // p]
        add.append(tuple(ints[(low + b) % p + p * high_row[b // p]] for b in range(size)))
        neg.append((-low) % p + p * neg[a // p])

    x_e_multiples = [0]
    for _ in range(1, p):
        x_e_multiples.append(add[x_e_multiples[-1]][x_e])
    # multiplication by x, first on field indices, then eps-digit-wise
    times_x_field = [add[(v % top) * p][x_e_multiples[v // top]] for v in range(q)]
    times_x = [0]
    for a in range(1, size):
        times_x.append(times_x_field[a % q] + q * times_x[a // q])

    mul = []
    for a in range(size):
        row = [0]
        eps_shift = a
        for _ in range(nil):
            image = eps_shift
            for _ in range(e):
                # extend row from b < p^k to b < p^(k+1) along image = a * p^k
                block = row[:]
                m = 0
                for _ in range(1, p):
                    m = add[m][image]
                    shifted = add[m]
                    row.extend([shifted[r] for r in block])
                image = times_x[image]
            eps_shift = eps_shift * q % size
        mul.append(tuple(row))

    inv = tuple(mul[a].index(1) if a % q else 0 for a in range(size))
    frob = []
    for a in range(size):
        acc = a
        for _ in range(p - 1):
            acc = mul[acc][a]
        frob.append(acc)
    # raw a has base-p digit i + e*j at x^i eps^j, the lowest digit first
    rows = [()]
    for _ in range(e * nil):
        rows = [r + (c,) for c in range(p) for r in rows]
    coords = tuple(tuple(r[j * e : (j + 1) * e] for j in range(nil)) for r in rows)
    return tuple(add), tuple(neg), tuple(mul), inv, tuple(frob), coords


class CoeffRing(Record):
    """R = F_q[eps]/(eps^nil), q = p^e, F_q = F_p[x]/(modulus); nil = 1
    gives R = F_q itself.  Its fields are its JSON descriptor."""

    __slots__ = (
        "p", "e", "modulus", "nil", "q", "size", "_add", "_neg", "_mul", "_inv", "_frob", "_coords"
    )
    _fields = ("p", "e", "modulus", "nil")

    def __init__(self, *_):
        raise TypeError("a CoeffRing is made by CoeffRing.make")

    @classmethod
    def make(cls, q: int, nil: int = 1, modulus=None) -> "CoeffRing":
        """The one ring F_q[eps]/(eps^nil) of its descriptor, modulo
        ``modulus`` or else the field's default modulus: checked and built
        on the first call, the same object on every call while cached."""
        return _made_ring(q, nil, None if modulus is None else tuple(modulus))

    def __reduce__(self):
        return CoeffRing.make, (self.p**self.e, self.nil, self.modulus)

    @property
    def is_field(self) -> bool:
        return self.nil == 1

    # raw operations on integer-encoded elements -------------------------

    def radd(self, a: int, b: int) -> int:
        return self._add[a][b]

    def rneg(self, a: int) -> int:
        return self._neg[a]

    def rsub(self, a: int, b: int) -> int:
        return self.radd(a, self.rneg(b))

    def rmul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def is_unit_raw(self, a: int) -> bool:
        return self._inv[a] != 0

    def is_nilpotent_raw(self, a: int) -> bool:
        return self._inv[a] == 0

    def rinv(self, a: int) -> int:
        b = self._inv[a]
        if b == 0:
            raise NonUnit(f"{self.pretty(a)} is not a unit")
        return b

    def rpow(self, a: int, k: int) -> int:
        if k < 0:
            a = self.rinv(a)
            k = -k
        out, base = self.one, a
        while k:
            if k & 1:
                out = self.rmul(out, base)
            base = self.rmul(base, base)
            k >>= 1
        return out

    def rfrob_p(self, a: int) -> int:
        return self._frob[a]

    def rfrob(self, a: int, qpow: int) -> int:
        k = 0
        qq = qpow
        while qq > 1 and qq % self.p == 0:
            qq //= self.p
            k += 1
        if qq != 1 or k == 0:
            raise ValueError(f"{qpow} is not a positive power of the characteristic {self.p}")
        for _ in range(k):
            a = self.rfrob_p(a)
        return a

    def rint(self, c: int) -> int:
        # image of an integer under Z -> R
        return c % self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    @property
    def eps_raw(self) -> int:
        if self.nil < 2:
            raise ValueError("ring has no nilpotent generator (nil = 1)")
        return self.q

    def element_indices(self):
        return range(self.size)

    def random_raw(self, rng) -> int:
        return rng.randrange(self.size)

    def random_nilpotent_raw(self, rng) -> int:
        return rng.randrange(self.size // self.q) * self.q

    # coordinate matrices and wrappers -----------------------------------

    def coords_to_raw(self, coords) -> int:
        if type(coords) is not list or len(coords) != self.nil:
            raise SchemaError(f"coefficient must be a list of {self.nil} eps-rows, got {coords!r}")
        out, mult = 0, 1
        for row in coords:
            if type(row) is not list or len(row) != self.e:
                raise SchemaError(f"coefficient row must be a list of {self.e} digits, got {row!r}")
            digits = 0
            for c in reversed(row):
                json_int(c, "coefficient digit")
                if not 0 <= c < self.p:
                    raise SchemaError(f"coefficient digit {c} outside [0, {self.p})")
                digits = digits * self.p + c
            out += digits * mult
            mult *= self.q
        return out

    def raw_to_coords(self, a: int):
        """The nil eps-rows of e digits of ``a``, as new lists."""
        return [list(row) for row in self._coords[a]]

    def checked_raw(self, value, what: str) -> int:
        """``value``'s raw index: an int in range(size) or a RingElement of this
        ring.  ShapeMismatch for another ring's element, else SchemaError."""
        if type(value) is RingElement:
            if value.ring != self:
                raise ShapeMismatch(f"{what} {value!r} belongs to another ring")
            return value.raw
        if type(value) is not int or not 0 <= value < self.size:
            raise SchemaError(f"{what} {value!r} is not in range({self.size})")
        return value

    def element(self, coords) -> "RingElement":
        return RingElement(self, self.coords_to_raw(coords))

    def from_raw(self, a: int) -> "RingElement":
        """The element of raw index ``a``, checked by ``checked_raw``."""
        return RingElement(self, self.checked_raw(a, "raw element"))

    def from_int(self, c: int) -> "RingElement":
        return RingElement(self, self.rint(c))

    def eps(self) -> "RingElement":
        return RingElement(self, self.eps_raw)

    def gen(self) -> "RingElement":
        """Generator x of the field part (zero for prime fields of degree 1)."""
        if self.e == 1:
            raise ValueError("prime field has no extension generator")
        return RingElement(self, self.p)

    def elements(self):
        return (RingElement(self, a) for a in range(self.size))

    def pretty(self, a: int) -> str:
        parts = []
        for i, vec in enumerate(self._coords[a]):
            if not any(vec):
                continue
            inner = []
            for k, c in enumerate(vec):
                if c == 0:
                    continue
                s = "" if (c == 1 and k > 0) else str(c)
                if k == 1:
                    s += "x"
                elif k > 1:
                    s += f"x^{k}"
                inner.append(s)
            base = "+".join(inner)
            if i == 0:
                parts.append(base)
            else:
                e = "e" if i == 1 else f"e^{i}"
                parts.append(e if base == "1" else f"({base}){e}")
        return "+".join(parts) if parts else "0"

    def to_json_dict(self):
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus), "nil": self.nil}

    @classmethod
    def from_json_dict(cls, obj) -> "CoeffRing":
        """Ring from its descriptor: an object with exactly the keys p, e,
        modulus (a list of integers) and optional nil.  p^e is bounded and
        p tested prime here; ``make`` checks the modulus, then nil."""
        json_object(obj, "ring descriptor", ("p", "e", "modulus"), ("nil",))
        modulus = json_list(obj["modulus"], "ring modulus")
        p, e = json_int(obj["p"], "ring p", 2), json_int(obj["e"], "ring e", 1)
        modulus = tuple(json_int(c, "modulus coefficient") for c in modulus)
        nil = json_int(obj.get("nil", 1), "ring nil")
        # before the primality test, which trial-divides up to sqrt(p)
        q = check_power(p, e, _MAX_TABLE_Q, "field has q = p^e = {} elements")
        if not _is_prime(p):
            raise SchemaError(f"{p} is not prime")
        return cls.make(q, nil, modulus)


# bounded: the tables of one ring of 2048 elements take about 80 MiB.
# Typed, so that a hit returns what a miss would: make(2.0) is not make(2).
@lru_cache(maxsize=32, typed=True)
def _made_ring(q: int, nil: int, modulus) -> CoeffRing:
    """``CoeffRing.make``'s ring, each check run once per miss.  A failed
    check raises and caches nothing.  The default modulus (None) and an
    unreduced one share the entry of the reduced modulus, so each
    descriptor has one ring object."""
    p, e = prime_power(q)
    if modulus is None:
        return _made_ring(q, nil, _find_irreducible(p, e))
    reduced = tuple(c % p for c in modulus)
    if reduced != modulus:
        return _made_ring(q, nil, reduced)
    if len(modulus) != e + 1:
        raise SchemaError("modulus degree does not match q")
    if modulus[-1] != 1:
        raise SchemaError("modulus must be monic of degree e")
    # the search found the default irreducible already
    if modulus != _find_irreducible(p, e):
        _check_irreducible(modulus, p)
    if nil < 1:
        raise SchemaError(f"nilpotency order must be >= 1, got {nil}")
    size = check_power(q, nil, _MAX_TABLE_Q, "ring has q^nil = {} elements")
    add, neg, mul, inv, frob, coords = _ring_tables(p, e, modulus, nil)
    ring = CoeffRing._make(p, e, modulus, nil)
    ring._set(q=q, size=size, _add=add, _neg=neg, _mul=mul, _inv=inv, _frob=frob, _coords=coords)
    return ring


class RingElement(Record):
    """Element of a CoeffRing: a value over the raw integer index."""

    __slots__ = _fields = ("ring", "raw")

    def __repr__(self):
        return f"<{self.ring.pretty(self.raw)}>"

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.radd(self.raw, other.raw))

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.rsub(self.raw, other.raw))

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.rmul(self.raw, other.raw))

    def __neg__(self):
        return RingElement(self.ring, self.ring.rneg(self.raw))

    def __pow__(self, k: int):
        return RingElement(self.ring, self.ring.rpow(self.raw, k))

    def inv(self) -> "RingElement":
        return RingElement(self.ring, self.ring.rinv(self.raw))

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise ShapeMismatch(f"operand {other!r} is not an element of this ring")

    @property
    def is_unit(self) -> bool:
        return self.ring.is_unit_raw(self.raw)

    @property
    def is_nilpotent(self) -> bool:
        return self.ring.is_nilpotent_raw(self.raw)

    @property
    def is_zero(self) -> bool:
        return self.raw == 0

    @property
    def coords(self):
        return self.ring.raw_to_coords(self.raw)

    def frobenius(self, qpow: int) -> "RingElement":
        return RingElement(self.ring, self.ring.rfrob(self.raw, qpow))

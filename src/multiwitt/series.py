"""Sparse truncated power series in n variables over a CoeffRing.

A series maps exponents nu = (nu_1, .., nu_n) with |nu| < d, the
truncation order, to nonzero coefficients.  This module owns the one
exponent encoding the library computes with, the integer key of
``pack_exponent``: key order is the graded order (total degree, then
tuple comparison), keys add when monomials multiply, an exponent is below
d exactly when its key is below d^n, the constant term is key 0, and in
one variable the key is the degree.  A series stores its terms as
``keys``, a dict from key to raw coefficient.  Exponent tuples appear
only at the public edge: the constructor, JSON, and ``terms``, a
tuple-keyed view built on first read.

The ``exact`` flag marks a series that represents a genuine polynomial:
no nonzero term was ever discarded while producing it.  Multiplication
keeps the flag only when both inputs carry it and the product lost
nothing to the truncation bound; evaluation at t = 1 is legal only for
exact series.

Every division in the library runs through one kernel, ``divide_keys``:
the quotient q = a / b by a divisor with unit constant term b_0 is one
forward recurrence over keys in graded order.  The remainder starts as
a; reading key e gives q[e] = b_0^-1 * rem[e], and q[e] * (-b_j) is
pushed to e + j for every other key j of b.  Every push lands at a
higher degree, so a key is read after its last update, and the cost is
the quotient's size times the divisor's support.  ``inv`` is the kernel
with numerator 1, the series quotient ``a / b`` is the kernel itself,
``witt_coordinates`` divides by each binomial (1 - r t^nu) through it,
and the p-typical factor solver divides by each Artin-Hasse factor.  A
quotient is exact when both inputs are and no nonzero push fell at or
past degree d: then q * b = a holds with nothing truncated.

Internally coefficients are the raw integer encoding of ring.py; the
public accessors return RingElement values.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd

from .errors import NonUnitConstantTerm, NotExact, SchemaError, ShapeMismatch, check_budget
from .ring import CoeffRing, RingElement, json_int, json_list, json_object

# an exponent in n variables below d has n entries and a key below d^n, an
# n * log2(d)-bit integer: n * d.bit_length() bounds both
EXPONENT_BITS_LIMIT = 1 << 16


def check_shape(n: int, d: int) -> None:
    """SchemaError unless n, d >= 1; TooLarge, before anything is built, when
    exponents at (n, d) are past ``EXPONENT_BITS_LIMIT``."""
    if n < 1 or d < 1:
        raise SchemaError("need n >= 1 and d >= 1")
    what = "at n = {1}, d = {2} an exponent has {1} entries and a key below d^n of up to {0} bits"
    check_budget(n * d.bit_length(), EXPONENT_BITS_LIMIT, what, n, d)


def exponent_count(n: int, d: int) -> int:
    """The number comb(n + d - 1, n) of exponents in n variables with |nu| < d."""
    return comb(n + d - 1, n)


# pushes of one division, a bound checked before it starts: 3 terms at
# n = 1, d = 200,000 make 600,000, about a second
DIVISION_LIMIT = 10**6


def check_division(n: int, d: int, generators: int, den_terms: int, num_terms: int = 1) -> None:
    """TooLarge, before any key is built, when a division at (n, d) may take
    more than ``DIVISION_LIMIT`` pushes: its quotient's keys, times the
    divisor's ``den_terms``.  A quotient key lies below d, and it is one of
    ``num_terms`` numerator keys plus a sum of m = ``generators`` non-constant
    keys, so there are at most min(exponent_count(n, d), num_terms *
    exponent_count(m, d)) of them."""
    check_shape(n, d)
    keys = min(exponent_count(n, d), num_terms * exponent_count(generators, d))
    what = "at n = {1}, d = {2} a division by {3} divisor terms may make {0} pushes"
    check_budget(keys * den_terms, DIVISION_LIMIT, what, n, d, den_terms)


def grlex_key(exp: tuple):
    return (sum(exp), exp)


def is_primitive(exp: tuple) -> bool:
    return content(exp) == 1


def content(exp: tuple) -> int:
    g = 0
    for v in exp:
        g = gcd(g, v)
    return g


def primitive_part(exp: tuple) -> tuple:
    g = content(exp)
    return exp if g <= 1 else tuple(v // g for v in exp)


def parse_exponent(values, seen) -> tuple:
    """Exponent tuple from a JSON list of integers; rejects exponents
    already in ``seen``.  The series and coordinate constructors check
    its shape."""
    exp = tuple(json_int(v, "exponent entry") for v in json_list(values, "exponent"))
    if exp in seen:
        raise ShapeMismatch(f"exponent {list(exp)} listed twice")
    return exp


def pack_exponent(exp: tuple, d: int) -> int:
    """The key |nu| * d^(n-1) + sum_(i<n-1) nu_i * d^(n-2-i) of an exponent.

    The last entry is fixed by |nu| and the others, so it takes no digit.
    Every digit is below d while |nu| < d, so integer order is the graded
    order, key // d^(n-1) is the degree, and key(a) + key(b) is key(a + b)
    when |a + b| < d; any exponent of degree d or more has a key of at
    least d^n."""
    key = sum(exp)
    for v in exp[:-1]:
        key = key * d + v
    return key


def unpack_exponent(key: int, n: int, d: int) -> tuple:
    """The exponent tuple in n variables that ``pack_exponent`` maps to key."""
    digits = [0] * n
    for i in range(n - 2, -1, -1):
        key, digits[i] = divmod(key, d)
    digits[-1] = key - sum(digits)  # key is now |nu|
    return tuple(digits)


def divide_keys(ring: CoeffRing, n: int, d: int, rem: dict, den: dict, track: bool = False) -> bool:
    """Divide ``rem`` by ``den`` in place below degree d.

    Both map keys at (n, d) to raw coefficients and ``den[0]`` is a unit.
    Degree by degree, each key's quotient term is b_0^-1 times its
    remainder, and that term times -b_j goes to the key e + j, of higher
    degree, so a key is read after its last update and the keys of one
    degree are independent.  In one variable a key is its degree; in
    more, the keys are filed by degree in a dict that holds only the
    degrees with keys, and a key the division creates is filed too.  With
    b_0 = 1 and no ``track``, a key that can push nothing below d keeps
    its remainder and is not visited.  The walk covers the degrees from
    the lowest key up: ``check_division`` bounds them with the keys,
    since any divisor term other than b_0 makes at least d keys possible.
    With ``track``, returns whether a nonzero push fell at or past
    degree d."""
    rmul, radd, one = ring.rmul, ring.radd, ring.one
    u = one if den[0] == one else ring.rinv(den[0])
    pushes = sorted((j, ring.rneg(c)) for j, c in den.items() if j)
    if not pushes or not rem:
        if u != one:
            for e, c in rem.items():
                rem[e] = rmul(u, c)  # a unit times a nonzero term is nonzero
        return False
    limit, dn = d**n, d ** (n - 1)
    stop = limit if track or u != one else (d - pushes[0][0] // dn) * dn
    buckets = None  # in one variable the degree is the key
    if n > 1:
        buckets = {}  # degree -> the keys below stop it holds
        for e in rem:
            if e < stop:
                bucket = buckets.get(e // dn)
                if bucket is None:
                    buckets[e // dn] = {e}
                else:
                    bucket.add(e)
    dropped = False
    for deg in range(min(rem) // dn, stop // dn):
        for e in (deg,) if buckets is None else buckets.pop(deg, ()):
            c = rem.get(e, 0)
            if c == 0:
                continue
            if u == one:
                q = c
            else:
                q = rem[e] = rmul(u, c)
            for j, b in pushes:
                t = e + j
                if t >= limit:
                    if track and not dropped and rmul(q, b):
                        dropped = True
                    continue
                prod = rmul(q, b)
                if prod == 0:
                    continue
                cur = rem.get(t)
                if cur is None:
                    rem[t] = prod
                    if buckets is not None and t < stop:
                        bucket = buckets.get(t // dn)
                        if bucket is None:
                            buckets[t // dn] = {t}
                        else:
                            bucket.add(t)
                else:
                    s = radd(cur, prod)
                    if s:
                        rem[t] = s
                    else:
                        del rem[t]
    return dropped


# bounded like the ring tables: a box at n = 6, d = 20 holds 230,230 tuples.
# The whole-group enumerations in cft, enumerate_witt_elements, the random
# elements of witt and duality, and the full component family (through
# primitive_exponents_below, in more than one variable) build boxes; the
# coordinate conversions do not.
@lru_cache(maxsize=32)
def exponents_below(n: int, d: int) -> tuple:
    """All exponent tuples with 0 <= |nu| < d, in graded order."""
    check_shape(n, d)

    def compositions(m, total):
        if m == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(m - 1, total - first):
                yield (first,) + rest

    out = []
    for deg in range(d):
        out.extend(sorted(compositions(n, deg)))
    return tuple(out)


@lru_cache(maxsize=32)
def primitive_exponents_below(n: int, d: int) -> tuple:
    if n == 1:  # in one variable only (1,) is primitive: no box is built
        check_shape(n, d)
        return ((1,),) if d > 1 else ()
    return tuple(e for e in exponents_below(n, d) if sum(e) > 0 and is_primitive(e))


class TruncatedSeries:
    """Truncated series; immutable once constructed.  ``keys`` maps packed
    exponent keys to raw coefficients."""

    __slots__ = ("ring", "n", "d", "exact", "keys", "_terms", "_hash")

    def __init__(self, ring: CoeffRing, n: int, d: int, terms: dict, exact: bool = False):
        """A series from a dict of exponent tuples to raw coefficients."""
        check_shape(n, d)
        keys = {}
        for exp, raw in terms.items():
            if min(exp, default=0) < 0:
                raise ShapeMismatch(f"exponent {list(exp)} has a negative entry")
            if raw == 0:
                continue
            if len(exp) != n:
                raise ShapeMismatch(f"exponent {exp} has wrong arity")
            if sum(exp) >= d:
                raise ShapeMismatch(f"term {exp} at or beyond truncation {d}")
            keys[pack_exponent(exp, d)] = raw
        self.ring, self.n, self.d, self.exact = ring, n, d, exact
        self.keys, self._terms, self._hash = keys, None, None

    @classmethod
    def _make(cls, ring: CoeffRing, n: int, d: int, keys: dict, exact: bool) -> "TruncatedSeries":
        """A series from keys valid for (n, d) and free of zeros: no re-check."""
        self = object.__new__(cls)
        self.ring, self.n, self.d, self.exact = ring, n, d, exact
        self.keys, self._terms, self._hash = keys, None, None
        return self

    # construction helpers ------------------------------------------------

    @classmethod
    def one(cls, ring: CoeffRing, n: int, d: int, exact: bool = False) -> "TruncatedSeries":
        check_shape(n, d)
        return cls._make(ring, n, d, {0: ring.one}, exact)

    # basic queries --------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The terms keyed by exponent tuple, built from ``keys`` on first read."""
        if self._terms is None:
            n, d = self.n, self.d
            self._terms = {unpack_exponent(k, n, d): c for k, c in self.keys.items()}
        return self._terms

    def coeff_raw(self, exp: tuple) -> int:
        return self.terms.get(tuple(exp), 0)

    def coeff(self, exp: tuple) -> RingElement:
        return self.ring.from_raw(self.coeff_raw(exp))

    @property
    def constant_raw(self) -> int:
        return self.keys.get(0, 0)

    def support_degree(self) -> int:
        return max(self.keys, default=0) // self.d ** (self.n - 1)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.ring == other.ring
            and self.n == other.n
            and self.d == other.d
            and self.keys == other.keys
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.n, self.d, tuple(sorted(self.keys.items()))))
        return self._hash

    def __repr__(self):
        if not self.keys:
            return "<series 0>"
        bits = []
        for key in sorted(self.keys):
            c = self.ring.pretty(self.keys[key])
            exp = unpack_exponent(key, self.n, self.d)
            mono = "*".join(
                f"t{i}" if v == 1 else f"t{i}^{v}" for i, v in enumerate(exp) if v
            )
            if not mono:
                bits.append(c)
            elif c == "1":
                bits.append(mono)
            else:
                bits.append(f"({c})*{mono}")
        return f"<series {' + '.join(bits)} mod deg {self.d}>"

    # arithmetic -----------------------------------------------------------

    def _check_shape(self, other: "TruncatedSeries"):
        if self.ring != other.ring or self.n != other.n or self.d != other.d:
            raise ShapeMismatch(
                f"series shapes differ: (n={self.n}, d={self.d}) vs (n={other.n}, d={other.d})"
            )

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_shape(other)
        ring, d = self.ring, self.d
        radd, rmul = ring.radd, ring.rmul
        limit = d**self.n
        out = {}
        discarded = False
        for ea, ca in self.keys.items():
            for eb, cb in other.keys.items():
                e = ea + eb
                if e >= limit:
                    # only a nonzero cross term costs exactness
                    if not discarded and rmul(ca, cb) != 0:
                        discarded = True
                    continue
                prod = rmul(ca, cb)
                if prod == 0:
                    continue
                cur = out.get(e)
                if cur is None:
                    out[e] = prod
                else:
                    s = radd(cur, prod)
                    if s == 0:
                        del out[e]
                    else:
                        out[e] = s
        return TruncatedSeries._make(
            ring, self.n, d, out, self.exact and other.exact and not discarded
        )

    def add_series(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_shape(other)
        ring = self.ring
        out = dict(self.keys)
        for e, c in other.keys.items():
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                s = ring.radd(cur, c)
                if s == 0:
                    del out[e]
                else:
                    out[e] = s
        return TruncatedSeries._make(ring, self.n, self.d, out, self.exact and other.exact)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The quotient by a series with unit constant term, by ``divide_keys``;
        exact when both are and no nonzero push fell at or past degree d,
        so that the quotient times ``other`` is exactly ``self``."""
        self._check_shape(other)
        ring, n, d = self.ring, self.n, self.d
        if not ring.is_unit_raw(other.constant_raw):
            raise NonUnitConstantTerm("series division needs a unit constant term")
        check_division(n, d, len(other.keys) - 1, len(other.keys), len(self.keys))
        keys = dict(self.keys)
        track = self.exact and other.exact
        dropped = divide_keys(ring, n, d, keys, other.keys, track)
        return TruncatedSeries._make(ring, n, d, keys, track and not dropped)

    def inv(self) -> "TruncatedSeries":
        return TruncatedSeries.one(self.ring, self.n, self.d, exact=True) / self

    def truncate(self, d_new: int) -> "TruncatedSeries":
        if d_new > self.d:
            raise ShapeMismatch("cannot extend a truncated series")
        return self if d_new == self.d else self._rekeyed(d_new)

    def extend(self, d_new: int) -> "TruncatedSeries":
        """Reinterpret an exact polynomial at a larger truncation order."""
        if not self.exact:
            raise NotExact("only exact series can be carried to a larger order")
        return self.truncate(d_new) if d_new <= self.d else self._rekeyed(d_new)

    def _rekeyed(self, d_new: int) -> "TruncatedSeries":
        """The terms below degree d_new, keyed for truncation d_new; exact
        when this series is and no term was dropped."""
        n, d = self.n, self.d
        check_shape(n, d_new)
        pairs = ((unpack_exponent(k, n, d), c) for k, c in self.keys.items())
        out = {pack_exponent(e, d_new): c for e, c in pairs if sum(e) < d_new}
        exact = self.exact and len(out) == len(self.keys)
        return TruncatedSeries._make(self.ring, n, d_new, out, exact)

    def map_coefficients(self, fn) -> "TruncatedSeries":
        out = {e: v for e, c in self.keys.items() if (v := fn(c))}
        return TruncatedSeries._make(self.ring, self.n, self.d, out, self.exact)

    # serialization --------------------------------------------------------

    def to_json_dict(self):
        ring, n, d = self.ring, self.n, self.d
        return {
            "n": n,
            "d": d,
            "exact": self.exact,
            "terms": [
                {"exp": list(unpack_exponent(k, n, d)), "c": ring.raw_to_coords(self.keys[k])}
                for k in sorted(self.keys)
            ],
        }

    @classmethod
    def from_json_dict(cls, ring: CoeffRing, obj) -> "TruncatedSeries":
        json_object(obj, "series", ("n", "d", "terms"), ("exact",))
        terms = {}
        for t in json_list(obj["terms"], "series terms"):
            json_object(t, "series term", ("exp", "c"))
            exp = parse_exponent(t["exp"], terms)
            terms[exp] = ring.coords_to_raw(t["c"])
        exact = obj.get("exact", False)
        if type(exact) is not bool:
            raise SchemaError(f"series exact must be a JSON boolean, got {exact!r}")
        return cls(ring, json_int(obj["n"], "series n"), json_int(obj["d"], "series d"), terms, exact)

"""Sparse truncated power series in n variables over a CoeffRing.

A series is a map from exponent tuples (nu_1, .., nu_n) to nonzero
coefficients, restricted to total degree |nu| < d for the truncation
order d.  Exponent tuples are ordered by total degree first, then by
tuple comparison; this graded order is used for canonical serialization.
``pack_exponent`` encodes an exponent below d as one integer whose
integer order is the graded order and under which adding exponents is
adding integers; the coordinate conversions in witt.py run on it.

The ``exact`` flag marks a series that represents a genuine polynomial:
no nonzero term was ever discarded while producing it.  Multiplication
keeps the flag only when both inputs carry it and the product lost
nothing to the truncation bound; evaluation at t = 1 is legal only for
exact series.
Internally coefficients are the raw integer encoding of ring.py; the
public accessors return RingElement values.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import NonUnitConstantTerm, NotExact, SchemaError, ShapeMismatch
from .ring import CoeffRing, RingElement, json_int, json_object

ZERO_EXP_CACHE = {}


def zero_exp(n: int) -> tuple:
    if n not in ZERO_EXP_CACHE:
        ZERO_EXP_CACHE[n] = (0,) * n
    return ZERO_EXP_CACHE[n]


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
    exp = tuple(json_int(v, "exponent entry") for v in values)
    if exp in seen:
        raise ShapeMismatch(f"exponent {list(exp)} listed twice")
    return exp


def pack_exponent(exp: tuple, d: int) -> int:
    """The key |nu| * d^n + sum_i nu_i * d^(n-1-i) of an exponent below d.

    Every digit nu_i is below d while |nu| < d, so integer order is the
    graded order, key // d^n is the degree, and key(a) + key(b) is
    key(a + b) when |a + b| < d and at least d^(n+1) otherwise."""
    key = sum(exp)
    for v in exp:
        key = key * d + v
    return key


def unpack_exponent(key: int, n: int, d: int) -> tuple:
    """The exponent tuple in n variables that ``pack_exponent`` maps to key."""
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        key, digits[i] = divmod(key, d)
    return tuple(digits)


# bounded like the ring tables: a box at n = 6, d = 20 holds 230,230 tuples.
# The whole-group enumerations in cft, enumerate_witt_elements, the random
# elements of witt and duality, and the full component family (through
# primitive_exponents_below) build boxes; the coordinate conversions do not.
@lru_cache(maxsize=32)
def exponents_below(n: int, d: int) -> tuple:
    """All exponent tuples with 0 <= |nu| < d, in graded order."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")

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
    return tuple(e for e in exponents_below(n, d) if sum(e) > 0 and is_primitive(e))


class TruncatedSeries:
    """Truncated series; immutable once constructed."""

    __slots__ = ("ring", "n", "d", "exact", "terms", "_hash")

    def __init__(self, ring: CoeffRing, n: int, d: int, terms: dict, exact: bool = False):
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        self.ring = ring
        self.n = n
        self.d = d
        self.exact = exact
        clean = {}
        for exp, raw in terms.items():
            if min(exp, default=0) < 0:
                raise ShapeMismatch(f"exponent {list(exp)} has a negative entry")
            if raw == 0:
                continue
            if len(exp) != n:
                raise ShapeMismatch(f"exponent {exp} has wrong arity")
            if sum(exp) >= d:
                raise ShapeMismatch(f"term {exp} at or beyond truncation {d}")
            clean[exp] = raw
        self.terms = clean
        self._hash = None

    @classmethod
    def _make(cls, ring: CoeffRing, n: int, d: int, terms: dict, exact: bool) -> "TruncatedSeries":
        """A series from terms valid for (n, d) and free of zeros: no re-check."""
        self = object.__new__(cls)
        self.ring, self.n, self.d, self.exact = ring, n, d, exact
        self.terms, self._hash = terms, None
        return self

    # construction helpers ------------------------------------------------

    @classmethod
    def one(cls, ring: CoeffRing, n: int, d: int, exact: bool = False) -> "TruncatedSeries":
        return cls(ring, n, d, {zero_exp(n): ring.one}, exact)

    def copy_with(self, terms=None, d=None, exact=None) -> "TruncatedSeries":
        return TruncatedSeries(
            self.ring,
            self.n,
            self.d if d is None else d,
            self.terms if terms is None else terms,
            self.exact if exact is None else exact,
        )

    # basic queries --------------------------------------------------------

    def coeff_raw(self, exp: tuple) -> int:
        return self.terms.get(exp, 0)

    def coeff(self, exp: tuple) -> RingElement:
        return self.ring.from_raw(self.terms.get(tuple(exp), 0))

    @property
    def constant_raw(self) -> int:
        return self.terms.get(zero_exp(self.n), 0)

    def support_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.ring == other.ring
            and self.n == other.n
            and self.d == other.d
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0])))
            self._hash = hash((self.ring, self.n, self.d, items))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "<series 0>"
        bits = []
        for exp in sorted(self.terms, key=grlex_key):
            c = self.ring.pretty(self.terms[exp])
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
        out = {}
        discarded = False
        for ea, ca in self.terms.items():
            da = sum(ea)
            for eb, cb in other.terms.items():
                if da + sum(eb) >= d:
                    # only a nonzero cross term costs exactness
                    if not discarded and rmul(ca, cb) != 0:
                        discarded = True
                    continue
                e = tuple(x + y for x, y in zip(ea, eb))
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

    def scale_shift(self, raw_coef: int, shift_exp: tuple) -> "TruncatedSeries":
        """Multiply by (coef * t^shift), discarding overflowing terms."""
        ring, d = self.ring, self.d
        if len(shift_exp) != self.n or min(shift_exp) < 0:
            raise ShapeMismatch(f"shift {list(shift_exp)} is not an exponent in {self.n} variables")
        out = {}
        ds = sum(shift_exp)
        discarded = False
        for e, c in self.terms.items():
            if sum(e) + ds >= d:
                if not discarded and ring.rmul(c, raw_coef) != 0:
                    discarded = True
                continue
            prod = ring.rmul(c, raw_coef)
            if prod:
                out[tuple(x + y for x, y in zip(e, shift_exp))] = prod
        return TruncatedSeries._make(ring, self.n, d, out, self.exact and not discarded)

    def add_series(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_shape(other)
        ring = self.ring
        out = dict(self.terms)
        for e, c in other.terms.items():
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

    def inv(self) -> "TruncatedSeries":
        ring = self.ring
        c0 = self.constant_raw
        if not ring.is_unit_raw(c0):
            raise NonUnitConstantTerm("series inverse needs a unit constant term")
        u = ring.rinv(c0)
        # 1/a = u * 1/(1 + u*(a - c0)) = u * sum (-u (a - c0))^k, k < d
        x_terms = {}
        for e, c in self.terms.items():
            if sum(e) == 0:
                continue
            x_terms[e] = ring.rneg(ring.rmul(u, c))
        x = TruncatedSeries._make(ring, self.n, self.d, x_terms, self.exact)
        acc = TruncatedSeries.one(ring, self.n, self.d, exact=True)
        pw = x
        terminated = not x.terms
        for _ in range(1, self.d):
            if not pw.terms:
                terminated = True
                break
            acc = acc.add_series(pw)
            pw = pw.mul(x)
        exact = self.exact and (terminated or not pw.terms)
        return acc.scale_shift(u, zero_exp(self.n)).copy_with(exact=exact)

    def truncate(self, d_new: int) -> "TruncatedSeries":
        if d_new > self.d:
            raise ShapeMismatch("cannot extend a truncated series")
        if d_new < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if d_new == self.d:
            return self
        out = {}
        discarded = False
        for e, c in self.terms.items():
            if sum(e) < d_new:
                out[e] = c
            else:
                discarded = True
        return TruncatedSeries._make(self.ring, self.n, d_new, out, self.exact and not discarded)

    def extend(self, d_new: int) -> "TruncatedSeries":
        """Reinterpret an exact polynomial at a larger truncation order."""
        if not self.exact:
            raise NotExact("only exact series can be carried to a larger order")
        if d_new < self.d:
            return self.truncate(d_new)
        return TruncatedSeries(self.ring, self.n, d_new, self.terms, True)

    def eval_all_ones(self) -> RingElement:
        if not self.exact:
            raise NotExact("evaluation at t = 1 is only defined for exact series")
        ring = self.ring
        acc = 0
        for c in self.terms.values():
            acc = ring.radd(acc, c)
        return ring.from_raw(acc)

    def map_coefficients(self, fn) -> "TruncatedSeries":
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return TruncatedSeries(self.ring, self.n, self.d, out, self.exact)

    # serialization --------------------------------------------------------

    def to_json_dict(self):
        ring = self.ring
        return {
            "n": self.n,
            "d": self.d,
            "exact": self.exact,
            "terms": [
                {"exp": list(e), "c": ring.raw_to_coords(self.terms[e])}
                for e in sorted(self.terms, key=grlex_key)
            ],
        }

    @classmethod
    def from_json_dict(cls, ring: CoeffRing, obj) -> "TruncatedSeries":
        json_object(obj, "series", ("n", "d", "terms"), ("exact",))
        terms = {}
        for t in obj["terms"]:
            json_object(t, "series term", ("exp", "c"))
            exp = parse_exponent(t["exp"], terms)
            terms[exp] = ring.coords_to_raw(t["c"])
        exact = obj.get("exact", False)
        if type(exact) is not bool:
            raise SchemaError(f"series exact must be a JSON boolean, got {exact!r}")
        return cls(ring, json_int(obj["n"], "series n"), json_int(obj["d"], "series d"), terms, exact)

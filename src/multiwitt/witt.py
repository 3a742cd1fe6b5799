"""The group and ring of multivariable Witt vectors at finite truncation.

Elements are truncated power series with constant term 1.  The group law
is series multiplication.  Every element factors uniquely as an ordered
product of binomials (1 - r_nu t^nu) over exponents 0 < |nu| < d; the
family {r_nu} is the coordinate form, and extraction peels factors off in
graded order.  Dividing by (1 - r t^nu) changes the running quotient only
above degree |nu|, apart from removing its term at nu, so the peel
divides in place through the series layer's peel driver
(``series.peel_keys``), whose chain walk visits only the keys the
quotient holds, along the chains e, e + nu, ...  The conversions, the
grouping by primitive part and the products all run on the series' own
packed exponent keys (``series.pack_exponent``), where a shift by nu is
one integer add and the truncation test one comparison.  A coordinate
family is a ``series.KeyedTerms`` like a series, from |nu| = 1: it
shares the series' checked constructor, JSON row codec and ``coords``
view built on first read, the only places exponent tuples appear.

Grouping exponents by their primitive part splits the group into a finite
product of one-variable components: nu = i * nu0 with gcd(nu0) = 1 turns
the coordinates {r_(i nu0)}_i into a one-variable element in s = t^nu0,
truncated at ceil(d / |nu0|) powers of s.  Packing is linear, so
key(nu0) = key(nu) // i.  Ring multiplication in one variable follows
the classical convolution on coordinates,

    prod_i (1 - a_i s^i) * prod_j (1 - b_j s^j)
        = prod_{i,j} (1 - a_i^(j/g) b_j^(i/g) s^(ij/g))^g,   g = gcd(i, j),

and the n-variable ring multiplication is transported through the
decomposition componentwise.  A missing component is the identity, and
so is its product with anything: ``decompose`` keeps the coordinates
of only the parts an element has, and their series and the full family
are built only when read.  Each power above is one run of a binomial: the
ring has characteristic p, so with g = p^v m and L = ij/g it is
(1 - c^(p^v) s^(L p^v))^m, multiplied in once as a truncated binomial
power, not as g factors.

Every product here is thus an ordered product of binomial runs
(1 - r t^nu)^m, formed by the series layer's product driver
(``series.multiply_keys``) from the terms of each run, on the keys of
series.py, where s^L at s = t^nu0 has key L * key(nu0).
``from_coordinates`` feeds it the coordinates, each a run of one;
``witt_mul`` the convolution runs of only the parts both factors share,
never flagging the product exact; ``recompose`` the
coordinates of each part; ``ring_one``, the unit at truncation d, the
(1 - t^nu) over all primitive nu with |nu| < d.  The algebraic pairing
in duality.py needs only the value at t = 1 of such a product, the
product of the binomials' values, and forms no product.

Frobenius acts on coefficients; the Lang map divides the Frobenius image
by the element, and its kernel over an extension field is the subgroup of
elements with coefficients fixed by Frobenius.
"""

from __future__ import annotations

from functools import partial
from math import gcd

from .errors import NilpotentCoefficients, ShapeMismatch, check_budget
from .ring import CoeffRing, json_object
from .series import (
    KeyedTerms,
    TruncatedSeries,
    check_division,
    check_shape,
    exponent_count,
    exponents_below,
    multiply_keys,
    pack_exponent,
    peel_keys,
    primitive_exponents_below,
    unpack_exponent,
)


def one_var_order(d: int, weight: int) -> int:
    """Truncation order for the component at a primitive exponent of total
    degree ``weight``: exponents i with i * weight < d."""
    return (d + weight - 1) // weight


class WittElement:
    """Series with constant term 1; wraps a TruncatedSeries."""

    __slots__ = ("series", "_coords")

    def __init__(self, series: TruncatedSeries):
        if series.constant_raw != series.ring.one:
            raise ShapeMismatch("constant term must be 1")
        self.series = series
        self._coords = None

    # constructors ---------------------------------------------------------

    @classmethod
    def one(cls, ring: CoeffRing, n: int, d: int, exact: bool = False) -> "WittElement":
        return cls(TruncatedSeries.one(ring, n, d, exact))

    @classmethod
    def binomial(
        cls, ring: CoeffRing, n: int, d: int, exp: tuple, coeff_raw: int
    ) -> "WittElement":
        """The factor 1 - coeff * t^exp, an exact polynomial."""
        term = TruncatedSeries(ring, n, d, {tuple(exp): ring.rneg(coeff_raw)}, exact=True)
        return cls(TruncatedSeries.one(ring, n, d, exact=True).add_series(term))

    # delegation -----------------------------------------------------------

    @property
    def ring(self) -> CoeffRing:
        return self.series.ring

    @property
    def n(self) -> int:
        return self.series.n

    @property
    def d(self) -> int:
        return self.series.d

    def __eq__(self, other):
        return isinstance(other, WittElement) and self.series == other.series

    def __hash__(self):
        return hash(self.series)

    def __repr__(self):
        return repr(self.series).replace("<series", "<witt", 1)

    def __add__(self, other: "WittElement") -> "WittElement":
        return witt_add(self, other)

    def __neg__(self) -> "WittElement":
        return witt_neg(self)

    def __sub__(self, other: "WittElement") -> "WittElement":
        return witt_add(self, witt_neg(other))

    def __mul__(self, other: "WittElement") -> "WittElement":
        return witt_mul(self, other)

    def truncate(self, d_new: int) -> "WittElement":
        """The element below degree d_new: itself when nothing is cut.  The
        coordinates of the cut are those of degree below d_new, so peeled
        ones are cut with it, not peeled again."""
        if d_new == self.d:
            return self
        out = WittElement(self.series.truncate(d_new))
        if self._coords is not None:
            out._coords = WittCoordinates._make(self.ring, self.n, d_new, self._coords._keys_below(d_new))
        return out

    def group_pow(self, k: int) -> "WittElement":
        if k < 0:
            return witt_neg(self).group_pow(-k)
        out = WittElement.one(self.ring, self.n, self.d)
        base = self
        while k:
            if k & 1:
                out = witt_add(out, base)
            base = witt_add(base, base)
            k >>= 1
        return out

    def to_json_dict(self):
        return self.series.to_json_dict()

    @classmethod
    def from_json_dict(cls, ring: CoeffRing, obj) -> "WittElement":
        return cls(TruncatedSeries.from_json_dict(ring, obj))


class WittCoordinates(KeyedTerms):
    """Sparse coordinate family {r_nu}, 0 < |nu| < d: a ``series.KeyedTerms``
    whose ``keys`` map the packed key of each nu to its nonzero r_nu and
    whose ``coords`` is the family keyed by exponent tuple."""

    __slots__ = ()
    LOW, COEF = 1, "r"

    def __repr__(self):
        n, d = self.n, self.d
        pretty = self.ring.pretty
        bits = ", ".join(f"{unpack_exponent(k, n, d)}:{pretty(self.keys[k])}" for k in sorted(self.keys))
        return f"<coords {{{bits}}} mod deg {d}>"

    def to_json_dict(self):
        return {"coords": self._json_rows()}

    @classmethod
    def from_json_dict(cls, ring: CoeffRing, n: int, d: int, obj) -> "WittCoordinates":
        json_object(obj, "coordinate document", ("coords",))
        return cls(ring, n, d, cls._read_json_rows(ring, obj["coords"], "coordinate"))


# components of a whole family, one per primitive exponent below d
FAMILY_LIMIT = 10**6


def check_family(n: int, d: int) -> None:
    """TooLarge, before any exponent is built, when the whole family at
    (n, d) may have more than ``FAMILY_LIMIT`` components: at most the
    exponent_count(n, d) - 1 nonzero exponents below d, and one in one
    variable."""
    check_shape(n, d)
    size = exponent_count(n, d) - 1 if n > 1 else 1
    what = "at n = {1}, d = {2} a component family has up to {0} components"
    check_budget(size, FAMILY_LIMIT, what, n, d)


class OneVarComponentFamily:
    """One-variable components indexed by primitive exponents below d.

    ``coordinates`` maps each primitive nu whose component is not the
    identity to its ``WittCoordinates`` in s = t^nu.  ``parts``, those
    components, and ``components``, every primitive exponent below d with
    the identity filled in, bounded by ``check_family``, are built on
    first read and kept.  A family of parts p is built from
    ``{nu: witt_coordinates(p)}``."""

    __slots__ = ("ring", "n", "d", "coordinates", "_parts", "_components")

    def __init__(self, ring: CoeffRing, n: int, d: int, coordinates: dict):
        self.ring = ring
        self.n = n
        self.d = d
        self.coordinates = coordinates
        self._parts = self._components = None

    @property
    def parts(self) -> dict:
        if self._parts is None:
            self._parts = {nu: _part_element(c) for nu, c in self.coordinates.items()}
        return self._parts

    @property
    def components(self) -> dict:
        if self._components is None:
            ring, d, parts = self.ring, self.d, self.parts
            check_family(self.n, d)
            self._components = {
                nu: parts.get(nu) or WittElement.one(ring, 1, one_var_order(d, sum(nu)))
                for nu in primitive_exponents_below(self.n, d)
            }
        return self._components

    def recompose(self) -> WittElement:
        """Multiply the binomials of every part's coordinates at s = t^nu."""
        d = self.d
        factors = (
            (i * pack_exponent(nu, d), r, 1)
            for nu, c in self.coordinates.items()
            for i, r in c.keys.items()
        )
        return _product_element(self.ring, self.n, d, factors)


def _part_element(c: WittCoordinates) -> WittElement:
    """The component with coordinates c, not flagged exact."""
    part = _product_element(c.ring, 1, c.d, ((i, r, 1) for i, r in c.keys.items()))
    part._coords = c
    return part


def witt_add(a: WittElement, b: WittElement) -> WittElement:
    """Group addition: multiplication of the underlying series."""
    return WittElement(a.series.mul(b.series))


def witt_neg(a: WittElement) -> WittElement:
    """Group inverse: series inverse."""
    return WittElement(a.series.inv())


def witt_coordinates(a: WittElement) -> WittCoordinates:
    """Peel binomial factors in graded order through ``series.peel_keys``.

    The running quotient is kept without its constant term 1.  Its lowest
    key nu holds c = -r, minus the next coordinate r, and the factor
    1 - r t^nu pushes r from each key to the key nu above it, so the
    driver drops nu and divides the rest in place along chains.

    ``check_division`` bounds each division before the peel starts; the
    number of coordinates is known only as they come, so the driver
    meters its steps against ``WORK_LIMIT`` as it runs."""
    if a._coords is not None:
        return a._coords
    ring, n, d = a.ring, a.n, a.d
    # each quotient's keys are sums of a's, and each division is by a binomial
    check_division(n, d, len(a.series.keys) - 1, 2)
    neg = ring._neg
    quot = {e: c for e, c in a.series.keys.items() if e}
    meter = "the coordinate peel at n = {1}, d = {2} reaches {0} steps"
    peeled = peel_keys(ring, n, d, quot, lambda e, c: ((e, neg[c]),), meter)
    a._coords = WittCoordinates._make(ring, n, d, {e: neg[c] for e, c in peeled.items()})
    return a._coords


def _run_terms(ring: CoeffRing, limit: int, key: int, s: int, m: int) -> tuple:
    """The terms C(m, k) s^k t^(k key), 0 < k <= m, of the run
    (1 + s t^key)^m below ``limit``, as (key, coefficient) pairs, and
    whether every term at or past ``limit`` is 0.  Past the window a unit
    s has the nonzero top term s^m, and a nilpotent s's powers vanish
    within its nilpotency order."""
    mul, p = ring._mul, ring.p
    row = mul[s]  # pw times s is row[pw]
    terms, binom, pw = [], 1, ring.one
    for k in range(1, m + 1):
        pw = row[pw]
        if not pw:
            break
        binom = binom * (m - k + 1) // k
        c = mul[binom % p][pw]  # the integer binom is the raw binom mod p
        if k * key < limit:
            if c:
                terms.append((k * key, c))
        elif c or ring.is_unit_raw(s):
            return terms, False
    return terms, True


def _product_element(ring: CoeffRing, n: int, d: int, factors, keep_exact=False) -> WittElement:
    """The ordered product of the binomial runs (1 - r t^key)^m, keys at
    (n, d), by ``series.multiply_keys``, as an element in n variables;
    flagged exact only when ``keep_exact`` asks for it and no nonzero term
    fell outside the window.  The driver reads each run as (1 + s t^key)^m,
    s = -r: its one term when m = 1, and otherwise at most min(m,
    (d^n - 1) // key) terms from ``_run_terms``."""
    limit, neg = d**n, ring._neg
    runs = [(key, neg[r], m) for key, r, m in factors]
    what = "a product of binomials at n = {1}, d = {2} may make {0} steps"
    keys, exact = multiply_keys(ring, n, d, runs, partial(_run_terms, ring, limit), what)
    return WittElement(TruncatedSeries._make(ring, n, d, keys, keep_exact and exact))


def from_coordinates(c: WittCoordinates) -> WittElement:
    """Ordered product of the binomial factors in graded order, truncated
    at d; exact when it is the complete polynomial product."""
    factors = [(k, r, 1) for k, r in sorted(c.keys.items())]
    return _product_element(c.ring, c.n, c.d, factors, keep_exact=True)


def group_by_primitive(c: WittCoordinates) -> dict:
    """The family regrouped as {key(nu0): {i: r}} with nu = i * nu0, nu0
    primitive, keyed at c's (n, d).  Packing is linear, so key(nu0) is
    key(nu) // i, and the content i of nu is the gcd of the key's base-d
    digits: |nu| and every entry of nu but the last."""
    n, d = c.n, c.d
    grouped = {}
    for key, r in c.keys.items():
        i, top = 0, key
        for _ in range(n - 1):
            top, digit = divmod(top, d)
            i = gcd(i, digit)
        i = gcd(i, top)
        grouped.setdefault(key // i, {})[i] = r
    return grouped


def shared_components(ca: WittCoordinates, cb: WittCoordinates):
    """Yield (key(nu), {i: a_i}, {j: b_j}) for each primitive part nu that
    both coordinate families contain, in the order of ``ca``, with nu
    keyed at cb's truncation.  A part missing from either family is the
    identity there.  Keys depend on d, so when ``ca`` is at another
    truncation its parts are keyed again at cb's; a part of degree cb.d or
    more, which cb cannot hold, gets a key past cb's window and matches
    nothing."""
    ga, gb = group_by_primitive(ca), group_by_primitive(cb)
    if ca.d != cb.d:
        n, d = ca.n, ca.d
        ga = {pack_exponent(unpack_exponent(k, n, d), cb.d): fa for k, fa in ga.items()}
    for key, fa in ga.items():
        fb = gb.get(key)
        if fb:
            yield key, fa, fb


def decompose(a: WittElement) -> OneVarComponentFamily:
    """Group the coordinates by primitive exponent into one-variable parts.

    Only the coordinates of the parts they touch are kept, keyed by i in
    one variable; no part's series is formed until it is read."""
    ring, n, d = a.ring, a.n, a.d
    dn = d ** (n - 1)
    coordinates = {
        unpack_exponent(key, n, d): WittCoordinates._make(ring, 1, one_var_order(d, key // dn), part)
        for key, part in group_by_primitive(witt_coordinates(a)).items()
    }
    return OneVarComponentFamily(ring, n, d, coordinates)


def powers(ring: CoeffRing, x: int, top: int) -> tuple:
    """1, x, x^2, .. by table products, to x^top or before the first power
    that is 0 or 1, and whether they repeat.  A nilpotent x's list is as
    long as its nilpotency index; a unit's powers repeat from the 1 on."""
    row, pw, c = ring._mul[x], [ring.one], x
    for _ in range(top):
        if c <= 1:  # the raws 0 and 1 are zero and one
            break
        pw.append(c)
        c = row[c]
    return pw, c == 1


def convolution_factors(ring: CoeffRing, fa: dict, gb: dict, scale: int = 1):
    """The binomial runs of the one-variable convolution product of
    {i: a_i} and {j: b_j}: for each pair, (1 - c s^L)^g with
    c = a_i^(j/g) b_j^(i/g), L = lcm(i, j) and g = gcd(i, j).  The ring
    has characteristic p, so with g = p^v m, p not dividing m, the run is
    (1 - c^(p^v) s^(L p^v))^m, c^(p^v) read off the Frobenius table v
    times; it is yielded once, as (L p^v * scale, c^(p^v), m), when
    c^(p^v) is not 0.  ``scale`` is the key of s: key(nu0) at s = t^nu0,
    1 in one variable.  The powers are read from ``powers`` lists, and a
    pair that a nilpotent a_i annuls, j/g past its list, is never formed."""
    if not fa or not gb:
        return
    mul, frob, p = ring._mul, ring._frob, ring.p
    top_a, top_b = max(gb), max(fa)
    bs = []
    for j, bj in gb.items():
        pb, cyc_b = powers(ring, bj, top_b)
        bs.append((j, pb, len(pb), cyc_b))
    for i, ai in fa.items():
        pa, cyc_a = powers(ring, ai, top_a)
        na = len(pa)
        stop = top_a + 1 if cyc_a else i * na  # j/g >= j/i reaches na at j = i na
        for j, pb, nb, cyc_b in bs:
            if j >= stop:
                continue
            g = gcd(i, j)
            u, v = j // g, i // g
            if u >= na and not cyc_a or v >= nb and not cyc_b:
                continue  # a_i^u or b_j^v is 0
            c = mul[pa[u % na]][pb[v % nb]]
            key = i * j // g * scale
            while c and g % p == 0:
                c, g, key = frob[c], g // p, key * p
            if c:
                yield key, c, g


def ring_one(ring: CoeffRing, n: int, d: int) -> WittElement:
    """Multiplicative unit: product of (1 - t^nu) over primitive nu, |nu| < d."""
    check_family(n, d)
    factors = ((pack_exponent(nu, d), ring.one, 1) for nu in primitive_exponents_below(n, d))
    return _product_element(ring, n, d, factors)


def witt_mul(a: WittElement, b: WittElement) -> WittElement:
    """Ring multiplication: the convolution runs of each primitive part nu
    both factors share, placed at s = t^nu and multiplied together."""
    a.series._check_shape(b.series)
    ring, n, d = a.ring, a.n, a.d
    shared = shared_components(witt_coordinates(a), witt_coordinates(b))
    factors = (f for key, ca, cb in shared for f in convolution_factors(ring, ca, cb, key))
    return _product_element(ring, n, d, factors)


def frobenius_witt(a: WittElement, qpow: int) -> WittElement:
    """Apply x -> x^q to every coefficient; requires field coefficients."""
    if a.ring.nil != 1:
        raise NilpotentCoefficients("Frobenius on series needs field coefficients")
    ring = a.ring
    return WittElement(a.series.map_coefficients(lambda c: ring.rfrob(c, qpow)))


def lang_map(a: WittElement, qpow: int) -> WittElement:
    """Frobenius image divided by the element (the group law is written
    multiplicatively, so 'Frobenius minus identity' is a quotient)."""
    return witt_add(frobenius_witt(a, qpow), witt_neg(a))


def enumerate_witt_elements(ring: CoeffRing, n: int, d: int):
    """Yield every element of the truncated group, coefficients in grid order."""
    keys = [pack_exponent(e, d) for e in exponents_below(n, d)[1:]]
    size = ring.size
    total = size ** len(keys)
    for idx in range(total):
        terms = {0: ring.one}
        v = idx
        for k in keys:
            c = v % size
            v //= size
            if c:
                terms[k] = c
        yield WittElement(TruncatedSeries._make(ring, n, d, terms, False))


def random_witt_element(ring: CoeffRing, n: int, d: int, rng) -> WittElement:
    terms = {0: ring.one}
    for e in exponents_below(n, d)[1:]:
        c = ring.random_raw(rng)
        if c:
            terms[pack_exponent(e, d)] = c
    return WittElement(TruncatedSeries._make(ring, n, d, terms, False))

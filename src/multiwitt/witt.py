"""The group and ring of multivariable Witt vectors at finite truncation.

Elements are truncated power series with constant term 1.  The group law
is series multiplication.  Every element factors uniquely as an ordered
product of binomials (1 - r_nu t^nu) over exponents 0 < |nu| < d; the
family {r_nu} is the coordinate form, and extraction peels factors off in
graded order.  Dividing by (1 - r t^nu) changes the running quotient only
above degree |nu|, apart from removing its term at nu, so the peel
divides in place through the series layer's one division kernel
(``series.divide_keys``), which visits only the keys the quotient holds.
Both coordinate conversions run on the series' own packed exponent keys
(``series.pack_exponent``), where a shift by nu is one integer add and
the truncation test one comparison; exponent tuples appear only in the
public coordinate family.

Grouping exponents by their primitive part splits the group into a finite
product of one-variable components: nu = i * nu0 with gcd(nu0) = 1 turns
the coordinates {r_(i nu0)}_i into a one-variable element in s = t^nu0,
truncated at ceil(d / |nu0|) powers of s.  Ring multiplication in one
variable follows the classical convolution on coordinates,

    prod_i (1 - a_i s^i) * prod_j (1 - b_j s^j)
        = prod_{i,j} (1 - a_i^(j/g) b_j^(i/g) s^(ij/g))^g,   g = gcd(i, j),

and the n-variable ring multiplication is transported through the
decomposition componentwise.  A missing component is the identity, and
so is its product with anything: ``decompose`` builds only the parts an
element has, and the full family, identities filled in at every other
primitive exponent, is built only when read.

Every product here is thus an ordered product of binomials (1 - r t^nu),
formed by one loop, ``binomial_product``, on the keys of series.py, where
s^L at s = t^nu0 has key L * key(nu0).  ``from_coordinates`` feeds it the
coordinates; ``witt_mul`` the convolution binomials of only the parts
both factors share, never flagging the product exact; ``recompose`` the
coordinates of each part; ``ring_one``, the unit at truncation d, the
(1 - t^nu) over all primitive nu with |nu| < d.  The algebraic pairing
in duality.py needs only the value at t = 1 of such a product, the
product of the binomials' values, and forms no product.

Frobenius acts on coefficients; the Lang map divides the Frobenius image
by the element, and its kernel over an extension field is the subgroup of
elements with coefficients fixed by Frobenius.
"""

from __future__ import annotations

from math import gcd

from .errors import NilpotentCoefficients, ShapeMismatch, check_budget
from .ring import CoeffRing, RingElement, json_list, json_object
from .series import (
    TruncatedSeries,
    check_division,
    check_shape,
    content,
    divide_keys,
    exponent_count,
    exponents_below,
    grlex_key,
    pack_exponent,
    parse_exponent,
    primitive_exponents_below,
    primitive_part,
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
        return WittElement(self.series.truncate(d_new))

    def coeff(self, exp) -> RingElement:
        return self.series.coeff(exp)

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


class WittCoordinates:
    """Sparse coordinate family {r_nu}, 0 < |nu| < d."""

    __slots__ = ("ring", "n", "d", "coords")

    def __init__(self, ring: CoeffRing, n: int, d: int, coords: dict):
        check_shape(n, d)
        for exp in coords:
            if len(exp) != n or any(v < 0 for v in exp) or not 0 < sum(exp) < d:
                raise ShapeMismatch(
                    f"coordinate exponent {list(exp)} is not in {n} variables with 0 < |nu| < {d}"
                )
        self.ring = ring
        self.n = n
        self.d = d
        self.coords = {e: c for e, c in coords.items() if c != 0}

    def coeff(self, exp) -> RingElement:
        return self.ring.from_raw(self.coords.get(tuple(exp), 0))

    def __eq__(self, other):
        return (
            isinstance(other, WittCoordinates)
            and (self.ring, self.n, self.d) == (other.ring, other.n, other.d)
            and self.coords == other.coords
        )

    def __repr__(self):
        bits = ", ".join(
            f"{e}:{self.ring.pretty(c)}"
            for e, c in sorted(self.coords.items(), key=lambda kv: grlex_key(kv[0]))
        )
        return f"<coords {{{bits}}} mod deg {self.d}>"

    def to_json_dict(self):
        return {
            "coords": [
                {"exp": list(e), "r": self.ring.raw_to_coords(self.coords[e])}
                for e in sorted(self.coords, key=grlex_key)
            ]
        }

    @classmethod
    def from_json_dict(cls, ring: CoeffRing, n: int, d: int, obj) -> "WittCoordinates":
        json_object(obj, "coordinate document", ("coords",))
        coords = {}
        for t in json_list(obj["coords"], "coordinates"):
            json_object(t, "coordinate", ("exp", "r"))
            coords[parse_exponent(t["exp"], coords)] = ring.coords_to_raw(t["r"])
        return cls(ring, n, d, coords)


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

    ``parts`` holds the components that are not the identity.
    ``components`` is the whole family: every primitive exponent below d,
    with the identity wherever ``parts`` has nothing.  It is built on
    first read, bounded by ``check_family``, and kept."""

    __slots__ = ("ring", "n", "d", "parts", "_components")

    def __init__(self, ring: CoeffRing, n: int, d: int, parts: dict):
        self.ring = ring
        self.n = n
        self.d = d
        self.parts = parts
        self._components = None

    @property
    def components(self) -> dict:
        if self._components is None:
            ring, d = self.ring, self.d
            check_family(self.n, d)
            self._components = {
                nu: self.parts.get(nu) or WittElement.one(ring, 1, one_var_order(d, sum(nu)))
                for nu in primitive_exponents_below(self.n, d)
            }
        return self._components

    def recompose(self) -> WittElement:
        """Multiply the binomials of every part, placed at s = t^nu."""
        factors = (
            (i * pack_exponent(nu, self.d), r)
            for nu, part in self.parts.items()
            for (i,), r in witt_coordinates(part).coords.items()
        )
        return _product_element(self.ring, self.n, self.d, factors)


def _check_same_shape(a: WittElement, b: WittElement):
    if a.ring != b.ring or a.n != b.n or a.d != b.d:
        raise ShapeMismatch("operands have different shape")


def witt_add(a: WittElement, b: WittElement) -> WittElement:
    """Group addition: multiplication of the underlying series."""
    _check_same_shape(a, b)
    return WittElement(a.series.mul(b.series))


def witt_neg(a: WittElement) -> WittElement:
    """Group inverse: series inverse."""
    return WittElement(a.series.inv())


# key visits of one coordinate peel, a few seconds: per coordinate, a scan
# for the lowest key and a division's walk
PEEL_WORK_LIMIT = 10**7


def witt_coordinates(a: WittElement) -> WittCoordinates:
    """Peel binomial factors in graded order.

    The running quotient is kept without its constant term 1.  Its lowest
    key nu holds minus the next coordinate r, and (1 + Q) / (1 - r t^nu)
    is 1 + (Q - Q[nu] t^nu) / (1 - r t^nu): the peel drops the key and
    divides the rest in place through ``series.divide_keys``, which visits
    only the keys that can still push below d.  Every other key moves only
    upward, so the next coordinate is again at the lowest key.

    ``check_division`` bounds the quotient before the peel starts; the
    number of coordinates is known only as they come, so the peel counts
    the keys it scans and walks against ``PEEL_WORK_LIMIT``."""
    if a._coords is not None:
        return a._coords
    ring, n, d = a.ring, a.n, a.d
    # each quotient's keys are sums of a's, and each division is by a binomial
    check_division(n, d, len(a.series.keys) - 1, 2)
    one, rneg, dn = ring.one, ring.rneg, d ** (n - 1)
    quot = {e: c for e, c in a.series.keys.items() if e}
    coords = {}
    work = 0
    meter = "the coordinate peel at n = {1}, d = {2} reaches {0} key visits"
    while quot:
        nu = min(quot)
        deg = nu // dn
        if 2 * deg >= d:  # a shift by any key left lands past d: each is a coordinate
            coords.update((e, rneg(quot[e])) for e in sorted(quot))
            break
        c = quot.pop(nu)
        coords[nu] = rneg(c)
        # the scan for nu, the division's walk over the degrees from deg up
        # to d - deg, and in more than one variable its filing of the keys
        work += (len(quot) if n == 1 else 2 * len(quot)) + d - 2 * deg
        check_budget(work, PEEL_WORK_LIMIT, meter, n, d)
        divide_keys(ring, n, d, quot, {0: one, nu: c})
    result = WittCoordinates(ring, n, d, {unpack_exponent(k, n, d): r for k, r in coords.items()})
    a._coords = result
    return result


def binomial_product(ring: CoeffRing, limit: int, factors) -> tuple:
    """The product of the binomials (1 - r t^key), in the order given, as a
    dict from keys to raw coefficients, and whether it is exact.

    Keys are those of ``series.pack_exponent``: they add when monomials
    multiply, and a key at or past ``limit``, d^n at truncation d in n
    variables, is outside the window.  Each factor is
    multiplied into the dict in place.  A factor whose key is already
    outside the window is skipped, and ``exact`` is cleared whenever a
    nonzero term falls outside it, so an exact result is the complete
    polynomial product."""
    rmul, radd, rneg = ring.rmul, ring.radd, ring.rneg
    acc = {0: ring.one}
    exact = True
    for key, r in factors:
        if r == 0:
            continue
        if key >= limit:
            exact = False
            continue
        s = rneg(r)
        for e, ce in list(acc.items()):
            t = e + key
            if t >= limit:
                exact = exact and rmul(ce, s) == 0
                continue
            prod = rmul(ce, s)
            if prod == 0:
                continue
            total = radd(acc[t], prod) if t in acc else prod
            if total:
                acc[t] = total
            else:
                del acc[t]
    return acc, exact


# key updates of one binomial product, a few seconds
PRODUCT_WORK_LIMIT = 10**7


def _product_work(n: int, d: int, factors: list) -> int:
    """An upper bound on the key updates of the product of ``factors`` at
    (n, d): a factor inside the window updates every key the product
    holds, and after k such factors it holds at most 2^k keys, at most
    the exponent_count(n, d) exponents below d, and at most the exponents
    whose every entry lies below d and within that variable's sum over
    the k factors."""
    limit, window = d**n, exponent_count(n, d)
    reach = [0] * n
    work, held = 0, 1
    for key, r in factors:
        if r and key < limit:
            work += held
            if held < window:
                box = 1
                for i, v in enumerate(unpack_exponent(key, n, d)):
                    reach[i] = min(reach[i] + v, d - 1)
                    box *= reach[i] + 1
                held = min(2 * held, box, window)
    return work


def _product_element(ring: CoeffRing, n: int, d: int, factors, keep_exact=False) -> WittElement:
    """``binomial_product`` over packed exponent keys at d, as an element in
    n variables; flagged exact only when ``keep_exact`` asks for it and no
    nonzero term fell outside the window.  Its key updates are bounded
    first: each factor updates at most the exponent_count(n, d) keys of
    the window, and where that passes ``PRODUCT_WORK_LIMIT``, by the
    closer bound of ``_product_work``, which unpacks every factor's
    exponent and so costs as much as a sparse product itself."""
    factors = list(factors)
    work = len(factors) * exponent_count(n, d)
    if work > PRODUCT_WORK_LIMIT:
        work = _product_work(n, d, factors)
    what = "a product of binomials at n = {1}, d = {2} may make {0} key updates"
    check_budget(work, PRODUCT_WORK_LIMIT, what, n, d)
    acc, exact = binomial_product(ring, d**n, factors)
    return WittElement(TruncatedSeries._make(ring, n, d, acc, keep_exact and exact))


def from_coordinates(c: WittCoordinates) -> WittElement:
    """Ordered product of the binomial factors in graded order, truncated
    at d; exact when it is the complete polynomial product."""
    factors = sorted((pack_exponent(e, c.d), r) for e, r in c.coords.items())
    return _product_element(c.ring, c.n, c.d, factors, keep_exact=True)


def group_by_primitive(coords: dict) -> dict:
    """{nu: r} regrouped as {nu0: {i: r}} with nu = i * nu0, nu0 primitive."""
    grouped = {}
    for exp, r in coords.items():
        grouped.setdefault(primitive_part(exp), {})[content(exp)] = r
    return grouped


def shared_components(ca: dict, cb: dict):
    """Yield (nu, {i: a_i}, {j: b_j}) for each primitive part nu that both
    coordinate families {exp: r} contain, in the order of ``ca``.  A part
    missing from either family is the identity there."""
    gb = group_by_primitive(cb)
    for nu, fa in group_by_primitive(ca).items():
        fb = gb.get(nu)
        if fb:
            yield nu, fa, fb


def decompose(a: WittElement) -> OneVarComponentFamily:
    """Group the coordinates by primitive exponent into one-variable parts.

    Only the primitive parts the coordinates touch are built; the family's
    ``components`` fills in the identity everywhere else.  No component is
    flagged exact: like a product from ``witt_mul``, each is only known
    below its truncation order.  Each part keeps the coordinates it was
    built from, so ``recompose`` peels nothing."""
    ring, n, d = a.ring, a.n, a.d
    parts = {}
    for nu0, part in group_by_primitive(witt_coordinates(a).coords).items():
        k = one_var_order(d, sum(nu0))
        comp = _product_element(ring, 1, k, sorted(part.items()))
        comp._coords = WittCoordinates(ring, 1, k, {(i,): r for i, r in part.items()})
        parts[nu0] = comp
    return OneVarComponentFamily(ring, n, d, parts)


def convolution_factors(ring: CoeffRing, fa: dict, gb: dict, scale: int = 1):
    """The binomials of the one-variable convolution product of {i: a_i}
    and {j: b_j}: for each pair, (1 - a_i^(j/g) b_j^(i/g) s^L)^g with
    L = lcm(i, j) and g = gcd(i, j), yielded as g pairs (L * scale, c)
    when c is not 0.  ``scale`` is the key of s: key(nu0) at s = t^nu0,
    1 in one variable."""
    rmul, rpow = ring.rmul, ring.rpow
    for i, ai in fa.items():
        for j, bj in gb.items():
            g = gcd(i, j)
            c = rpow(ai, j // g)
            if c:
                c = rmul(c, rpow(bj, i // g))
                if c:
                    yield from ((i * j // g * scale, c),) * g


def ring_one(ring: CoeffRing, n: int, d: int) -> WittElement:
    """Multiplicative unit: product of (1 - t^nu) over primitive nu, |nu| < d."""
    check_family(n, d)
    factors = ((pack_exponent(nu, d), ring.one) for nu in primitive_exponents_below(n, d))
    return _product_element(ring, n, d, factors)


def witt_mul(a: WittElement, b: WittElement) -> WittElement:
    """Ring multiplication: the convolution binomials of each primitive part
    nu both factors share, placed at s = t^nu and multiplied together."""
    _check_same_shape(a, b)
    ring, n, d = a.ring, a.n, a.d
    shared = shared_components(witt_coordinates(a).coords, witt_coordinates(b).coords)
    factors = (
        f for nu, ca, cb in shared for f in convolution_factors(ring, ca, cb, pack_exponent(nu, d))
    )
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

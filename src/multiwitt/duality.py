"""Polynomial units and the two pairings between formal and full elements.

A formal element is an exact polynomial with constant term 1 whose other
coefficients are all nilpotent; these are exactly the polynomial units of
R[t_1..t_n] up to a scalar.  Against a full truncated element over R or
its base field there are three ways to pair:

  * algebraic: ring-multiply the two elements and evaluate at t = 1.
    Evaluation is a ring homomorphism, so this is the product of the
    values of the convolution binomials, never the product polynomial;
  * geometric: truncate the second argument to a polynomial g' in the
    inverse variable; the product of f over the zeros of g' with
    multiplicity is the norm of g' on R[x]/(rev f), a determinant of size
    deg f, so no root in an extension field is ever touched;
  * through components: split both sides into p-typical vectors, pair the
    vectors slotwise and recombine.  With the plain Artin-Hasse factor
    normalization the slot-j value enters through an inversion and a j-th
    power; the exponent -j below is forced by matching ghost components
    against the algebraic route.

All three walk one driver: it checks the pair, decomposes each argument
at most once (a formal element keeps its verified exact coordinates, g its
peeled ones) and yields the parts in one variable s = t^nu, nu primitive,
that both share; an element in one variable is its own part.  All three must
agree in any number of variables, and the test suite enforces it.  The
algebraic route certifies its level d: going to d + 1 multiplies the
value by the binomial values of g's coordinates of degree exactly d, and
unless they multiply to 1 it raises UnstableTruncation; the geometric
route compares its norms at m and m + 1, which share one reduction of g'.
The component route is only cross-checked against the other two, by the
tests and the ``pairing`` benchmark.  The raw encoding embeds the base
field in R as the identity, so g over the base field is read as is.

Nilpotency bounds every computation: the coordinates of an exact
polynomial of degree D with nilpotent coefficients vanish beyond degree
D*(e-1), where e is the nilpotency order, because the coordinate at nu
lies in N^ceil(|nu|/D).
"""

from __future__ import annotations

from .errors import WORK_LIMIT, InvalidTruncation, NotAUnit, NotNilpotent, ShapeMismatch
from .errors import UnstableTruncation, check_budget
from .ptypical import PWittVector, pi_epsilon_inverse, pwitt_pair
from .ring import CoeffRing, Record, RingElement
from .series import TruncatedSeries, exponents_below, unpack_exponent
from .unipoly import _det_chain
from .witt import (
    WittCoordinates,
    WittElement,
    convolution_factors,
    from_coordinates,
    one_var_order,
    shared_components,
    witt_coordinates,
)


class FormalWittElement:
    """Exact polynomial, constant term 1, every other coefficient nilpotent."""

    __slots__ = ("series", "_coords")

    def __init__(self, series: TruncatedSeries):
        if not series.exact:
            raise ShapeMismatch("formal elements are exact polynomials")
        if series.constant_raw != series.ring.one:
            raise ShapeMismatch("constant term must be 1")
        ring, n, d = series.ring, series.n, series.d
        for k, c in series.keys.items():
            if k and not ring.is_nilpotent_raw(c):
                raise NotNilpotent(f"coefficient at {unpack_exponent(k, n, d)} is not nilpotent")
        self.series = series
        self._coords = None

    @property
    def ring(self) -> CoeffRing:
        return self.series.ring

    @property
    def n(self) -> int:
        return self.series.n

    @property
    def degree(self) -> int:
        return self.series.support_degree()

    # equal polynomials over one ring at different truncation orders are one
    # element, so these compare exponent tuples: the keys depend on d
    def __eq__(self, other):
        return (
            isinstance(other, FormalWittElement)
            and self.ring == other.ring
            and self.series.terms == other.series.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.series.terms.items()))))

    def __repr__(self):
        return repr(self.series).replace("<series", "<formal", 1)

    def mul(self, other: "FormalWittElement") -> "FormalWittElement":
        """Exact polynomial product (group addition on the formal side)."""
        if self.ring != other.ring or self.n != other.n:
            raise ShapeMismatch("operands have different shape")
        d = self.degree + other.degree + 1
        a = self.series.extend(d)
        b = other.series.extend(d)
        return FormalWittElement(a.mul(b))

    def coordinate_bound(self) -> int:
        """Exclusive bound for the support of the coordinate family; at
        least degree + 1, since a nonconstant term makes nil at least 2."""
        if self.ring.nil == 1:
            return 1
        return self.degree * (self.ring.nil - 1) + 1

    def exact_coordinates(self) -> WittCoordinates:
        """Complete coordinate family, at truncation ``coordinate_bound()``;
        round-trip verified on first use and kept."""
        if self._coords is None:
            extended = WittElement(self.series.extend(self.coordinate_bound()))
            coords = witt_coordinates(extended)
            if from_coordinates(coords) != extended:
                raise UnstableTruncation("coordinate support exceeded its nilpotency bound")
            self._coords = coords
        return self._coords

    def to_json_dict(self):
        return self.series.to_json_dict()


class UnitClass(Record):
    """Class of a polynomial unit modulo constants, kept as the representative
    normalized to constant term 1."""

    __slots__ = _fields = ("representative",)

    def __repr__(self):
        return f"<unit class of {self.representative!r}>"


def is_polynomial_unit(u: TruncatedSeries) -> bool:
    """Unit test for R[t_1..t_n]: unit constant term, nilpotent elsewhere."""
    ring = u.ring
    if not ring.is_unit_raw(u.constant_raw):
        return False
    return all(ring.is_nilpotent_raw(c) for k, c in u.keys.items() if k)


def unit_class(u: TruncatedSeries) -> UnitClass:
    """Verify the unit criterion and divide out the constant term."""
    if not u.exact:
        raise ShapeMismatch("unit classes are formed from exact polynomials")
    ring = u.ring
    if not ring.is_unit_raw(u.constant_raw):
        raise NotAUnit("constant term is not a unit")
    inv0 = ring.rinv(u.constant_raw)
    scaled = u.map_coefficients(lambda c: ring.rmul(c, inv0))
    try:
        formal = FormalWittElement(scaled)
    except NotNilpotent as exc:
        raise NotAUnit(str(exc)) from None
    return UnitClass(formal)


# pairing plumbing -----------------------------------------------------------


def _shared_parts(f: FormalWittElement, g: WittElement, elements: bool = False):
    """The walk of all three routes: check the pair and yield (key(nu),
    |nu|, a, b) for each primitive part nu that f and g share, in one
    variable s = t^nu.  a and b are the coordinates {i: a_i} and {j: b_j},
    or with ``elements`` f's exact part as a formal element and g's at its
    order one_var_order(g.d, |nu|) in s.  In one variable each argument is
    its own part at s = t, shared unless one is 1, and is peeled only for
    its coordinates; in more, each is peeled to find the parts."""
    if f.n != g.n:
        raise ShapeMismatch("arguments have different variable counts")
    # g's raws, over f's ring or its field part, are raws of f's ring
    if g.ring != f.ring and (g.ring.field != f.ring.field or g.ring.nil != 1):
        raise ShapeMismatch("second argument must live over the ring or its field part")
    if f.n == 1:
        a, b = (f, g) if elements else (f.exact_coordinates().keys, witt_coordinates(g).keys)
        if len(f.series.keys) > 1 and len(g.series.keys) > 1:
            yield 1, 1, a, b
        return
    dn = g.d ** (g.n - 1)
    for key, fa, gb in shared_components(f.exact_coordinates(), witt_coordinates(g)):
        w = key // dn
        if not elements:
            yield key, w, fa, gb
            continue
        # f's part has degree at most the sum of its coordinate exponents, so
        # it is complete at 1 + sum(fa); each j of gb has j |nu| < g.d, so g's
        # part holds it at order one_var_order(g.d, |nu|)
        fp = from_coordinates(WittCoordinates._make(f.ring, 1, 1 + sum(fa), fa))
        gp = from_coordinates(WittCoordinates._make(g.ring, 1, one_var_order(g.d, w), gb))
        yield key, w, FormalWittElement(fp.series), gp


def _component_pair_value(ring: CoeffRing, fa: dict, gb: dict) -> int:
    """The one-variable convolution product of {i: a_i} and {j: b_j} at t = 1.

    Evaluation at t = 1 is a ring homomorphism, so the value is the
    product of the binomials' values: (1 - a_i^(j/g) b_j^(i/g))^g over
    the pairs, g = gcd(i, j), each run of ``convolution_factors`` raised
    to its power m.  Each a_i is nilpotent, so c = 0, a factor 1, once
    j/g reaches the nilpotency order."""
    rmul, rsub, one = ring.rmul, ring.rsub, ring.one
    acc = one
    for _, c, m in convolution_factors(ring, fa, gb):
        value = rsub(one, c)
        acc = rmul(acc, value if m == 1 else ring.rpow(value, m))
    return acc


def cartier_pair(f: FormalWittElement, g: WittElement, d: int | None = None) -> RingElement:
    """Multiply f against g and evaluate at t = 1.

    The product splits into the one-variable components both sides share,
    and each component's product is an ordered product of binomials, so
    the value is a product of binomial values (1 - c)^g: no product
    polynomial is formed.

    The coordinates of g are consumed up to total degree d (default: one
    below its truncation).  Raising the level to d + 1 multiplies the
    value, a unit, by the binomial values of g's coordinates of degree
    exactly d, so the value is stable exactly when their product is 1;
    otherwise UnstableTruncation is raised.
    """
    if d is None:
        d = g.d - 1
    if d < 1 or d + 1 > g.d:
        raise InvalidTruncation(f"need 1 <= d and d + 1 <= {g.d}")
    ring = f.ring
    acc = step = ring.one
    for _, w, fa, gb in _shared_parts(f, g):
        below = {j: c for j, c in gb.items() if j * w < d}
        at = {j: c for j, c in gb.items() if j * w == d}
        acc = ring.rmul(acc, _component_pair_value(ring, fa, below))
        step = ring.rmul(step, _component_pair_value(ring, fa, at))
    if step != ring.one:
        raise UnstableTruncation("pairing value changed between d and d + 1")
    return ring.from_raw(acc)


def geometric_pair(f: FormalWittElement, g: WittElement, m: int) -> RingElement:
    """Product of f over the zeros of a truncation of g, as a norm.

    g is read in the inverse variable u = 1/t; its truncation g' to degree
    below m is a polynomial whose zeros in the t-coordinate are the inverse
    roots, so Res(rev g', f) multiplies f over them: the norm of g' on
    R[x]/(rev f), a determinant of size D = deg f (``_geometric_values``).
    Level m + 1 certifies it from the same reduction, so g must carry m + 1
    terms; a part estimated past WORK_LIMIT, at 2 (m + D) D + D^3 steps, is
    refused with TooLarge before any work.  In several variables each part
    nu both share is paired at level m in s = t^nu, where g carries
    k = ceil(g.d / |nu|) terms; one with k < m + 1 is refused with
    InvalidTruncation.
    """
    if m < 1:
        raise InvalidTruncation("truncation level m must be >= 1")
    if m + 1 > g.d:
        raise InvalidTruncation(
            f"stability check needs the second argument known to degree {m + 1}"
        )
    ring, acc = f.ring, f.ring.one
    for key, w, fp, gp in _shared_parts(f, g, elements=True):
        k = one_var_order(g.d, w)
        if m + 1 > k:
            nu = unpack_exponent(key, g.n, g.d)
            raise InvalidTruncation(
                f"component at {nu} only carries {k} terms, need m + 1 = {m + 1}"
            )
        value, next_value = _geometric_values(ring, fp.series.keys, fp.degree, gp.series.keys, m)
        if value != next_value:
            raise UnstableTruncation("pairing value changed between m and m + 1")
        acc = ring.rmul(acc, value)
    return ring.from_raw(acc)


def _geometric_values(ring: CoeffRing, f: dict, D: int, g: dict, m: int) -> tuple:
    """Res(rev g', f) for g' the sum of g[k] x^k over k < m, and over k <= m.
    f(0) = 1 and deg f <= D make rev f monic of degree D, so each is the norm
    of g' on R[x]/(rev f): the determinant of the rows h x^i, i < D, for
    h = g' mod rev f.  Level m + 1 adds g[m] (x^m mod rev f) to level m's h."""
    what = "the norms at m = {1} modulo degree {2} may make {0} steps"
    check_budget(D * (2 * (m + D) + D * D), WORK_LIMIT, what, m, D)
    add, mul = ring._add, ring._mul
    # x^D = sum low[j] x^j, so p x = (0, *p) + p[-1] low on the first D places
    low = [ring._neg[f.get(D - j, 0)] for j in range(D)]

    def plus(h, c, p):
        by = mul[c]
        return [add[a][by[b]] for a, b in zip(h, p)]

    def norm(h):
        return _det_chain([h] + [h := plus((0, *h), h[-1], low) for _ in range(D - 1)], ring)

    h, power = [0] * D, [ring.one] + [0] * (D - 1)
    for k in range(m):
        h = plus(h, g[k], power) if g.get(k) else h
        power = plus((0, *power), power[-1], low)
    value = norm(h)
    return value, norm(plus(h, g[m], power)) if g.get(m) else value


def pairing_via_components(f: FormalWittElement, g: WittElement, d: int | None = None) -> RingElement:
    """Pair through the p-typical decomposition: split both sides of each
    shared part with the factor solver, g's at level ceil(d / |nu|), the
    terms j |nu| < d of the algebraic route, multiply slotwise, pair each
    slot and recombine with the slot twist value^(-j).  g's family is
    solved over g's own ring and its entries read as f's ring's."""
    if d is None:
        d = g.d - 1
    if d < 1 or d > g.d:
        raise InvalidTruncation(f"need 1 <= d <= {g.d}")
    ring = f.ring
    acc = ring.one
    for _, w, fp, gp in _shared_parts(f, g, elements=True):
        fam_f = pi_epsilon_inverse(WittElement(fp.series.extend(fp.coordinate_bound())))
        fam_g = pi_epsilon_inverse(gp.truncate(one_var_order(d, w)))
        for j, vf in fam_f.items():
            vg = fam_g.get(j)
            if vg is None or all(e == 0 for e in vg.entries) or all(e == 0 for e in vf.entries):
                continue
            m = max(len(vf), len(vg))
            val = pwitt_pair(vf.pad(m), PWittVector._make(vg.p, vg.entries, ring).pad(m))
            acc = ring.rmul(acc, ring.rpow(val.raw, -j))
    return ring.from_raw(acc)


def pairing_matrix(fs, gs, d: int | None = None):
    """Tabulate the algebraic pairing over the cross product."""
    return [[cartier_pair(f, g, d) for g in gs] for f in fs]


def separates(fs, gs, d: int | None = None) -> bool:
    """True when the probe family fs distinguishes every element of gs."""
    signatures = set()
    for g in gs:
        sig = tuple(cartier_pair(f, g, d).raw for f in fs)
        if sig in signatures:
            return False
        signatures.add(sig)
    return True


def random_formal_element(ring: CoeffRing, n: int, max_degree: int, rng) -> FormalWittElement:
    """Random exact polynomial with nilpotent coefficients up to max_degree."""
    terms = {(0,) * n: ring.one}
    deg = 1
    for e in exponents_below(n, max_degree + 1)[1:]:
        c = ring.random_nilpotent_raw(rng)
        if c:
            terms[e] = c
            deg = max(deg, sum(e) + 1)
    return FormalWittElement(TruncatedSeries(ring, n, deg, terms, exact=True))

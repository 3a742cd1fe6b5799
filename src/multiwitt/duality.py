"""Polynomial units and the two pairings between formal and full elements.

A formal element is an exact polynomial with constant term 1 whose other
coefficients are all nilpotent; these are exactly the polynomial units of
R[t_1..t_n] up to a scalar.  Against a full truncated element over R or
its base field there are three ways to pair:

  * algebraic: ring-multiply the two elements and evaluate at t = 1.
    Evaluation is a ring homomorphism, so this is the product of the
    values of the convolution binomials, never the product polynomial;
  * geometric: truncate the second argument to a polynomial g' in the
    inverse variable, and take the product of f over the zeros of g' with
    multiplicity, computed as a resultant so nilpotent coefficients and
    roots in extension fields never need to be touched;
  * through components: split both sides into p-typical vectors, pair the
    vectors slotwise and recombine.  With the plain Artin-Hasse factor
    normalization the slot-j value enters through an inversion and a j-th
    power; the exponent -j below is forced by matching ghost components
    against the algebraic route.

All three must agree, and the test suite enforces it.  The algebraic
route certifies its level d: going to d + 1 multiplies the value by the
binomial values of g's coordinates of degree exactly d, and unless they
multiply to 1 it raises UnstableTruncation; the geometric route compares
its resultants at m and m + 1.  The component route is only cross-checked
against the other two, by the tests and the ``pairing`` benchmark.

Each argument is decomposed once: a formal element keeps its verified
exact coordinates, and g its peeled ones.  The raw encoding embeds the
base field in R as the identity, so g over the base field is read as is.

Nilpotency bounds every computation: the coordinates of an exact
polynomial of degree D with nilpotent coefficients vanish beyond degree
D*(e-1), where e is the nilpotency order, because the coordinate at nu
lies in N^ceil(|nu|/D).
"""

from __future__ import annotations

from .errors import InvalidTruncation, NotAUnit, NotNilpotent, ShapeMismatch, UnstableTruncation
from .ptypical import PWittVector, pi_epsilon_inverse, pwitt_pair
from .ring import CoeffRing, RingElement
from .series import TruncatedSeries, exponents_below, unpack_exponent
from .unipoly import UnivariatePolynomial, resultant
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

    # equal polynomials at different truncation orders are one element, so
    # these compare exponent tuples: the keys depend on d
    def __eq__(self, other):
        return isinstance(other, FormalWittElement) and self.series.terms == other.series.terms

    def __hash__(self):
        return hash(tuple(sorted(self.series.terms.items())))

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

    def exact_coordinates(self) -> dict:
        """Complete coordinate family; round-trip verified on first use and
        kept."""
        if self._coords is None:
            bound = self.coordinate_bound()
            extended = WittElement(self.series.extend(bound))
            coords = witt_coordinates(extended).coords
            back = from_coordinates(WittCoordinates(self.ring, self.n, bound, coords))
            if back != extended:
                raise UnstableTruncation("coordinate support exceeded its nilpotency bound")
            self._coords = coords
        return self._coords

    def to_json_dict(self):
        return self.series.to_json_dict()


class UnitClass:
    """Class of a polynomial unit modulo constants, kept as the representative
    normalized to constant term 1."""

    __slots__ = ("representative",)

    def __init__(self, representative: FormalWittElement):
        self.representative = representative

    def __eq__(self, other):
        return isinstance(other, UnitClass) and self.representative == other.representative

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


def _check_pair(f: FormalWittElement, g: WittElement) -> None:
    """g lives over f's ring or its field part, whose raw elements are f's."""
    if f.n != g.n:
        raise ShapeMismatch("arguments have different variable counts")
    if g.ring != f.ring and (g.ring.field != f.ring.field or g.ring.nil != 1):
        raise ShapeMismatch("second argument must live over the ring or its field part")


def _component_pair_value(ring: CoeffRing, fa: dict, gb: dict) -> int:
    """The one-variable convolution product of {i: a_i} and {j: b_j} at t = 1.

    Evaluation at t = 1 is a ring homomorphism, so the value is the
    product of the binomials' values: (1 - a_i^(j/g) b_j^(i/g))^g over
    the pairs, g = gcd(i, j).  Each a_i is nilpotent, so c = 0, a factor
    1, once j/g reaches the nilpotency order."""
    rmul, rsub, one = ring.rmul, ring.rsub, ring.one
    acc = one
    for _, c in convolution_factors(ring, fa, gb):
        acc = rmul(acc, rsub(one, c))
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
    _check_pair(f, g)
    if d is None:
        d = g.d - 1
    if d < 1 or d + 1 > g.d:
        raise InvalidTruncation(f"need 1 <= d and d + 1 <= {g.d}")
    ring = f.ring
    acc = step = ring.one
    for nu, fa, gb in shared_components(f.exact_coordinates(), witt_coordinates(g).coords):
        w = sum(nu)
        below = {j: c for j, c in gb.items() if j * w < d}
        at = {j: c for j, c in gb.items() if j * w == d}
        acc = ring.rmul(acc, _component_pair_value(ring, fa, below))
        step = ring.rmul(step, _component_pair_value(ring, fa, at))
    if step != ring.one:
        raise UnstableTruncation("pairing value changed between d and d + 1")
    return ring.from_raw(acc)


def _component_series(ring: CoeffRing, coords: dict, k: int) -> WittElement:
    return from_coordinates(
        WittCoordinates(ring, 1, k, {(i,): c for i, c in coords.items() if i < k})
    )


def geometric_pair(f: FormalWittElement, g: WittElement, m: int) -> RingElement:
    """Product of f over the zeros of a truncation of g, via resultants.

    g is read in the inverse variable u = 1/t; its truncation g' to degree
    below m is a polynomial whose zeros in the t-coordinate are the inverse
    roots, so reversing g' gives a monic polynomial with exactly those
    roots and Res(reverse(g'), f) multiplies f over them.  Stability is
    checked against level m + 1, so g must carry at least m + 1 terms.
    In several variables both sides split into one-variable components,
    each paired at level m capped by the precision the component carries;
    a component still unstable at its capped level raises.
    """
    _check_pair(f, g)
    if m < 1:
        raise InvalidTruncation("truncation level m must be >= 1")
    ring = f.ring
    # In one variable f and g are their own single component.  Sending
    # them through the loop below, which peels both and rebuilds them from
    # their coordinates, made `pairing` benchmark jobs 7% slower (0.147 to
    # 0.157 cal, medians of 8 pairs on a 2-CPU x86-64 VM).
    if f.n == 1:
        if m + 1 > g.d:
            raise InvalidTruncation(
                f"stability check needs the second argument known to degree {m + 1}"
            )
        return ring.from_raw(_stable_value(f.series, g, m))
    acc = ring.one
    for nu, fa, gb in shared_components(f.exact_coordinates(), witt_coordinates(g).coords):
        k = one_var_order(g.d, sum(nu))
        if m + 1 > k:
            raise InvalidTruncation(
                f"component at {nu} only carries {k} terms, need m + 1 = {m + 1}"
            )
        # the exact component polynomial has degree at most the sum of the
        # coordinate exponents, so this window loses nothing
        f_comp = _component_series(ring, fa, 1 + sum(fa))
        acc = ring.rmul(acc, _stable_value(f_comp.series, _component_series(g.ring, gb, k), m))
    return ring.from_raw(acc)


def _stable_value(f_series: TruncatedSeries, g: WittElement, m: int) -> int:
    v = _geometric_value(f_series, g, m)
    if v != _geometric_value(f_series, g, m + 1):
        raise UnstableTruncation("pairing value changed between m and m + 1")
    return v


def _geometric_value(f_series: TruncatedSeries, g: WittElement, m: int) -> int:
    ring = f_series.ring
    # g' = truncation of g below degree m, as an ascending coefficient list
    gp = [0] * m
    for k, c in g.series.keys.items():
        if k < m:
            gp[k] = c
    while gp and gp[-1] == 0:
        gp.pop()
    deg = len(gp) - 1
    if deg <= 0:
        return ring.one
    f_deg = f_series.support_degree()
    if f_deg == 0:
        return ring.one
    reverse = UnivariatePolynomial.from_raw(ring, list(reversed(gp)))
    f_poly = UnivariatePolynomial.from_raw(
        ring, [f_series.keys.get(k, 0) for k in range(f_deg + 1)]
    )
    return resultant(reverse, f_poly).raw


def pairing_via_components(f: FormalWittElement, g: WittElement, d: int | None = None) -> RingElement:
    """Pair through the p-typical decomposition: split both sides with the
    factor solver, multiply slotwise, pair each slot and recombine with the
    slot twist value^(-j).  g's family is solved over g's own ring and its
    entries read as elements of f's ring."""
    if f.n != 1 or g.n != 1:
        raise ShapeMismatch("component pairing works in one variable")
    _check_pair(f, g)
    if d is None:
        d = g.d - 1
    if d < 1 or d > g.d:
        raise InvalidTruncation(f"need 1 <= d <= {g.d}")
    ring = f.ring
    fam_f = pi_epsilon_inverse(WittElement(f.series.extend(f.coordinate_bound())))
    fam_g = pi_epsilon_inverse(g.truncate(d))
    acc = ring.one
    for j, vf in fam_f.items():
        vg = fam_g.get(j)
        if vg is None or all(e == 0 for e in vg.entries) or all(e == 0 for e in vf.entries):
            continue
        m = max(len(vf), len(vg))
        val = pwitt_pair(vf.pad(m), PWittVector(vg.p, vg.entries, ring).pad(m))
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

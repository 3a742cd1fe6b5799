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
    vectors slotwise, by bilinearity through Artin-Hasse values, and
    recombine.  With the plain Artin-Hasse factor normalization the slot-j
    value enters through an inversion and a j-th power; the exponent -j
    below is forced by matching ghost components against the algebraic
    route.

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
lies in N^ceil(|nu|/D); and g's coordinates of degree C(f), f's
conductor, or more pair with f to 1.  So every level from C(f) on gives
the limit, and each route runs at min(level, C(f)) on g cut at the degree
it reads there, before g is peeled, walked or factored: its work is
bounded by C(f) <= D*(e-1) + 1, not by g's length or the level asked for.
The geometric walk stops at each part's own conductor.  The refusals are
decided on the level asked for, and a route called without a level
refuses when its default level stops short of C(f).
"""

from __future__ import annotations

from .errors import WORK_LIMIT, InvalidTruncation, NotAUnit, NotNilpotent, ShapeMismatch
from .errors import UnstableTruncation, check_budget
from .ptypical import _component_entries, ah_value
from .ring import CoeffRing, Record, RingElement
from .series import TruncatedSeries, exponents_below, unpack_exponent
from .witt import (
    WittCoordinates,
    WittElement,
    convolution_factors,
    from_coordinates,
    group_by_primitive,
    one_var_order,
    powers,
    shared_components,
    witt_coordinates,
)


class FormalWittElement:
    """Exact polynomial, constant term 1, every other coefficient nilpotent."""

    __slots__ = ("series", "_coords", "_conductor")

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
        self._coords = self._conductor = None

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
        """Complete coordinate family, at truncation ``coordinate_bound()``,
        kept; certified on first use by the product of its binomials having
        no term at or past the bound (flagged exact), so that it is f."""
        if self._coords is None:
            coords = witt_coordinates(WittElement(self.series.extend(self.coordinate_bound())))
            if not from_coordinates(coords).series.exact:
                raise UnstableTruncation("coordinate support exceeded its nilpotency bound")
            self._coords = coords
        return self._coords

    def conductor(self) -> int:
        """C(f), kept after first use: 1 plus the largest w j, over f's
        parts of weight w, such that some a_i of the part does not annul
        g's b_j (``_part_reach``); at most ``coordinate_bound()``."""
        if self._conductor is None:
            self._conductor = 1 + max((w * r for w, r in self._part_reaches()), default=0)
        return self._conductor

    def _part_reaches(self) -> list:
        """(w, r) for each part nu of f: w = |nu| and r its ``_part_reach``,
        past which no coordinate of g in s = t^nu pairs with f to other
        than 1; the part's own conductor, in s, is 1 + r."""
        coords = self.exact_coordinates()
        dn = coords.d ** (coords.n - 1)
        return [(key // dn, _part_reach(self.ring, fa)) for key, fa in group_by_primitive(coords).items()]

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


def _part_reach(ring: CoeffRing, fa: dict) -> int:
    """The largest j that some a_i of the part {i: a_i} does not annul:
    a_i^((j/g) p^v), g = gcd(i, j) = p^v m, is 0 from (j/g) p^v = N_i,
    its ``powers`` list's length, on.  As m divides i', the part of i
    prime to p, j = m (j/g) p^v is at most i' (N_i - 1), which is such a
    j.  N_i <= nil, so an i with i' (nil - 1) <= the reach is skipped."""
    p, nil, reach = ring.p, ring.nil, 0
    for i in reversed(fa):
        a = fa[i]
        while i % p == 0:
            i //= p
        if i * (nil - 1) > reach:
            reach = max(reach, i * (len(powers(ring, a, nil)[0]) - 1))
    return reach


def _certify_default_level(f: FormalWittElement, g: WittElement, reach: int) -> None:
    """Refuse a route called without a level whose default level pairs g
    below degree ``reach`` short of f's conductor: g's coordinates from
    ``reach`` to C(f) - 1, which g need not carry, may pair with f to
    other than 1."""
    if reach < f.conductor():
        raise UnstableTruncation(
            f"the default level pairs g below degree {reach}, short of the conductor "
            f"C(f) = {f.conductor()} of the first argument (g.d = {g.d}); give a level"
        )


def _shared_parts(f: FormalWittElement, g: WittElement, elements: bool = False):
    """The walk of all three routes: check the pair and yield (key(nu),
    |nu|, a, b) for each primitive part nu that f and g share, in one
    variable s = t^nu.  a and b are the coordinates {i: a_i} and {j: b_j},
    or with ``elements`` f's exact part as a formal element, its conductor
    set from {i: a_i}, and g's at its order one_var_order(g.d, |nu|) in s.
    In one variable each argument is its own part at s = t, shared unless
    one is 1, and is peeled only for its coordinates; in more, each is
    peeled to find the parts.  The routes pass g cut at the degree they
    read, so g is never peeled past it."""
    if f.n != g.n:
        raise ShapeMismatch("arguments have different variable counts")
    # g's raws, over f's ring or its field part, are raws of f's ring
    if g.ring != f.ring and g.ring != CoeffRing.make(f.ring.q, 1, f.ring.modulus):
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
        fp = FormalWittElement(from_coordinates(WittCoordinates._make(f.ring, 1, 1 + sum(fa), fa)).series)
        fp._conductor = 1 + _part_reach(f.ring, fa)
        gp = from_coordinates(WittCoordinates._make(g.ring, 1, one_var_order(g.d, w), gb))
        yield key, w, fp, gp


def _component_pair_value(ring: CoeffRing, fa: dict, gb: dict) -> int:
    """The one-variable convolution product of {i: a_i} and {j: b_j} at t = 1.

    Evaluation at t = 1 is a ring homomorphism, so the value is the
    product of the binomials' values: (1 - a_i^(j/g) b_j^(i/g))^g over
    the pairs, g = gcd(i, j), each run of ``convolution_factors`` raised
    to its power m.  Each a_i is nilpotent, and a pair it annuls, of
    value 1, is never formed."""
    mul, one_minus, neg = ring._mul, ring._add[ring.one], ring._neg
    acc = ring.one
    for _, c, m in convolution_factors(ring, fa, gb):
        value = one_minus[neg[c]]
        acc = mul[acc][value if m == 1 else ring.rpow(value, m)]
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
    otherwise UnstableTruncation is raised, and without d when g.d is
    below f's conductor C(f).  An explicit d < C(f) gives the pairing
    truncated at d, certified only at d + 1; only d >= C(f) is the limit.
    From C(f) on every level gives the limit, so the route runs at
    min(d, C(f)), on g cut below min(d, C(f)) + 1 before it is peeled: its
    work is bounded by C(f), not by g's length.  The refusals are decided
    on the d asked for.
    """
    if d is None:
        d = g.d - 1
        _certify_default_level(f, g, g.d)
    if d < 1 or d + 1 > g.d:
        raise InvalidTruncation(f"need 1 <= d and d + 1 <= {g.d}")
    d = min(d, f.conductor())
    ring = f.ring
    acc = step = ring.one
    for _, w, fa, gb in _shared_parts(f, g.truncate(d + 1)):
        below = {j: c for j, c in gb.items() if j * w < d}
        at = {j: c for j, c in gb.items() if j * w == d}
        acc = ring.rmul(acc, _component_pair_value(ring, fa, below))
        step = ring.rmul(step, _component_pair_value(ring, fa, at))
    if step != ring.one:
        raise UnstableTruncation("pairing value changed between d and d + 1")
    return ring.from_raw(acc)


def geometric_pair(f: FormalWittElement, g: WittElement, m: int | None = None) -> RingElement:
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
    InvalidTruncation.  Without m, the level is g.d - 1, which with its
    certificate reads g below g.d like ``cartier_pair``'s default; g.d
    below f's conductor C(f) raises UnstableTruncation.  An explicit
    m < C(f) gives the pairing truncated at m, certified only at m + 1:
    only m >= C(f) is the limit.  A part's walk stops at min(m, c), c the
    part's own conductor in s, at most C(f), from which every level gives
    the part's limit; g is cut at the degree those walks read
    (``_geometric_cut``) before it is peeled, so the work, and the
    estimate, are bounded by C(f), not by m or g's length.  The refusals
    are decided on the m asked for.
    """
    if m is None:
        m = g.d - 1
        _certify_default_level(f, g, g.d)
    if m < 1:
        raise InvalidTruncation("truncation level m must be >= 1")
    if m + 1 > g.d:
        raise InvalidTruncation(
            f"stability check needs the second argument known to degree {m + 1}"
        )
    ring, acc = f.ring, f.ring.one
    cut = g.truncate(_geometric_cut(f, g, m))
    for key, w, fp, gp in _shared_parts(f, cut, elements=True):
        k = one_var_order(g.d, w)
        if m + 1 > k:
            nu = unpack_exponent(key, cut.n, cut.d)
            raise InvalidTruncation(
                f"component at {nu} only carries {k} terms, need m + 1 = {m + 1}"
            )
        level = min(m, fp.conductor())
        value, next_value = _geometric_values(ring, fp.series.keys, fp.degree, gp.series.keys, level)
        if value != next_value:
            raise UnstableTruncation("pairing value changed between m and m + 1")
        acc = ring.rmul(acc, value)
    return ring.from_raw(acc)


def _geometric_cut(f: FormalWittElement, g: WittElement, m: int) -> int:
    """The truncation of g that ``geometric_pair`` reads at level m: the
    walk in a part of weight w and conductor c reads g's coordinates of
    degree j w, j <= min(m, c), so g is cut past the largest such degree;
    in one variable, past min(m, C(f)).  A part that carries fewer than
    m + 1 terms is refused where g shares it, which only the peel of all
    of g tells, so then g is not cut."""
    if f.n == 1:
        return min(m, f.conductor()) + 1
    top = 0
    for w, r in f._part_reaches():
        if one_var_order(g.d, w) < m + 1:
            return g.d
        top = max(top, w * min(m, 1 + r))
    return top + 1


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


def _det_chain(rows, ring) -> int:
    """Determinant by elimination, O(N^3) ring operations at size N.  R is a
    chain ring: a raw element is eps^v * u, u a unit and v its count of
    trailing zero base-q digits, so column k's pivot is its entry of least
    valuation at or below row k, and an entry b below it is the pivot times
    (b // q^v) * u^-1: no division by a zero divisor (oracles in
    ``tests/det_oracle.py``)."""
    q, add, neg, mul, inv = ring.q, ring._add, ring._neg, ring._mul, ring._inv
    n = len(rows)
    rows = [list(r) for r in rows]
    det = ring.one
    for k in range(n):
        low, best = ring.nil, -1
        for i in range(k, n):
            a, v = rows[i][k], 0
            while a and a % q == 0:
                a, v = a // q, v + 1
            if a and v < low:
                low, best = v, i
        if best < 0:
            return 0
        if best != k:
            rows[k], rows[best] = rows[best], rows[k]
            det = neg[det]
        pivot_row, shift = rows[k], q**low
        det, unit_inv = mul[det][pivot_row[k]], inv[pivot_row[k] // shift]
        tail = [(j, a) for j, a in enumerate(pivot_row[k + 1 :], k + 1) if a]
        for r in rows[k + 1 :]:
            if r[k]:
                by = mul[neg[mul[r[k] // shift][unit_inv]]]
                for j, a in tail:
                    r[j] = add[r[j]][by[a]]
    return det


def pairing_via_components(f: FormalWittElement, g: WittElement, d: int | None = None) -> RingElement:
    """Pair through the p-typical decomposition: split both sides of each
    shared part with the factor solver, g's at level ceil(d / |nu|), the
    terms j |nu| < d of the algebraic route, pair f's slot j against g's
    by bilinearity (``_slot_value``) and recombine with the slot twist
    value^(-j).  Only the entries of the components that are not 0 are
    read (``ptypical._component_entries``).  g's family is solved over g's
    own ring and its entries read as f's ring's.  Without d, a level
    g.d - 1 below f's conductor C(f) raises UnstableTruncation; an
    explicit d < C(f) gives the pairing truncated at d, uncertified: only
    d >= C(f) is the limit.  The route runs at min(d, C(f)), on g cut below
    it before it is peeled, so its work is bounded by C(f), not by g's
    length; the refusals are decided on the d asked for.

    The slot value is E(v*w)(1) for the product in W(R), where
    ``pwitt_pair`` takes it in W_m, m the longer of the two lengths; on
    these families the two agree.  The series whose coefficient at t^k
    lies in N^ceil(k/D), N the nilradical and D the degree of f's part,
    form a ring that holds f's part and each Artin-Hasse factor E(c, t^k)
    with c in N^ceil(k/D), and holds the inverse of each of its series with
    constant term 1; the factor solver divides within it, so f's entries
    satisfy v_(j,i) in N^ceil(j p^i / D).  The Witt polynomials are
    isobaric, so entry n of v*w lies in N^ceil(j p^n / D), which is
    N^nil = 0 once j p^n > D (nil - 1), that is from n = len(v) on: every
    product term with i + k >= m, and every carry past slot m, lies in
    N^nil = 0."""
    if d is None:
        d = g.d - 1
        _certify_default_level(f, g, d)
    if d < 1 or d > g.d:
        raise InvalidTruncation(f"need 1 <= d <= {g.d}")
    d = min(d, f.conductor())
    ring = f.ring
    acc = ring.one
    # g cut at d holds each part at its order one_var_order(d, |nu|)
    for _, _, fp, gp in _shared_parts(f, g.truncate(d), elements=True):
        fam_f = _component_entries(WittElement(fp.series.extend(fp.coordinate_bound())))
        fam_g = _component_entries(gp)
        for j, vf in fam_f.items():
            vg = fam_g.get(j)
            if vg is None:
                continue
            value = _slot_value(ring, vf, vg)
            if value != ring.one:
                acc = ring.rmul(acc, ring.rpow(value, -j))
    return ring.from_raw(acc)


def _slot_value(ring: CoeffRing, v, w) -> int:
    """E(v*w)(1) for p-typical entries v, all nilpotent, and w, by
    bilinearity.  v = sum_i V^i[v_i], V^i[a] V^k[b] = V^(i+k)[a^(p^k) b^(p^i)]
    and the Artin-Hasse map W(R) -> Lambda(R) is additive, so the value is
    the product of AH(v_i^(p^k) w_k^(p^i)) over every i and k: a Frobenius
    table read, one product and one Artin-Hasse value each, and the k-loop
    of v_i stops once v_i^(p^k) = 0.  No Witt product is formed."""
    frob, mul = ring._frob, ring._mul
    acc, wp = ring.one, list(w)  # wp[k] = w_k^(p^i) in the pass of v_i
    for x in v:
        for c in wp:
            if not x:
                break
            y = mul[x][c]
            if y:
                acc = mul[acc][ah_value(ring, y)]
            x = frob[x]
        wp = [frob[c] for c in wp]
    return acc


def pairing_matrix(fs, gs, d: int | None = None):
    """Tabulate the algebraic pairing over the cross product.  Each g is
    peeled once, below 1 + max C(f), the longest cut a pairing reads, and
    each pairing cuts the kept coordinates (``WittElement.truncate``)."""
    top = 1 + max((f.conductor() for f in fs), default=0)
    for g in gs:
        witt_coordinates(g.truncate(min(g.d, top)))
    return [[cartier_pair(f, g, d) for g in gs] for f in fs]


def separates(fs, gs, d: int | None = None) -> bool:
    """True when the probe family fs distinguishes every element of gs.
    Each g is peeled once, as in ``pairing_matrix``."""
    signatures, top = set(), 1 + max((f.conductor() for f in fs), default=0)
    for g in gs:
        witt_coordinates(g.truncate(min(g.d, top)))
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

"""Dense and series-built references for the Witt ring product, the
decomposition and the coordinate conversions.

In one variable the product is the convolution of the two peeled
coordinate families at the full truncation, each binomial power expanded
as a series and multiplied in with ``TruncatedSeries.mul``
(``mul_coordinate_families``).  In several variables both factors are
split into one-variable components at every primitive exponent of the
box, each pair of components is multiplied, and the products are
substituted back and multiplied together, identity components included.
It does work proportional to the whole exponent box and shares no
product code with the library's ``witt_mul``, which feeds the binomials
of the primitive parts both factors share straight into one n-variable
product.  ``decompose_dense`` builds a component at every primitive
exponent of the box, identities included, each a series product of its
binomials, and checks the library's ``decompose``, which keeps only the
coordinates of the parts an element has and forms their series when
they are read.
``recompose_series`` and ``ring_one_series`` multiply as series: the
substituted parts one ``mul`` at a time, and (1 - t^nu) by shift and add.

``witt_coordinates_box`` is the coordinate peel that walks the whole
exponent box, rebuilding the running quotient as a series after every
factor, and ``from_coordinates_series`` multiplies the binomials as
series one at a time.  They check the library's conversions, which run
on packed exponent keys and touch only the exponents the series has.
``witt_coordinates_frontier`` is the former library peel: it visits only
the keys the quotient holds, but divides by each binomial by multiplying
with the steps r^k t^(k nu) of its geometric series, where the library
runs the forward recurrence of ``series.divide_keys``.

``group_by_primitive_tuples`` and ``shared_tuple_components`` group
coordinates by primitive part on exponent tuples, where the library
groups on packed keys, so they need no common truncation.
``convolution_factors_expanded`` is the former convolution: each
binomial power (1 - c s^L)^g as g single binomials, where the library
yields it once as a run.  ``convolution_factors_rpow`` is the former
run generator: it forms every pair and takes a_i^(j/g) and b_j^(i/g) by
``CoeffRing.rpow``, where the library reads them from one list of
powers per coordinate and forms no pair a nilpotent a_i annuls.
``binomial_product`` is the former loop of that name: the library's
binomial product, on the product driver ``series.multiply_keys``, in
one variable below a key limit.
``pair_value_binomial_product`` is the former one-variable value of the
algebraic pairing: it multiplies out the convolution binomials at a
window wide enough to lose nothing and adds up the coefficients, where
the library multiplies the binomials' values at t = 1.
``cartier_pair_levels`` is the algebraic pairing's former certificate:
it copies g into f's ring and computes the value at levels d and d + 1,
each from every shared component, where the library walks the
components once and checks that the step between the levels is 1.
"""

from __future__ import annotations

from math import gcd

from series_oracle import copy_with, grlex_key, shifted

from multiwitt.series import (
    TruncatedSeries,
    content,
    exponents_below,
    primitive_exponents_below,
    unpack_exponent,
)
from multiwitt.witt import (
    OneVarComponentFamily,
    WittCoordinates,
    WittElement,
    _product_element,
    convolution_factors,
    one_var_order,
    witt_coordinates,
)


def group_by_primitive_tuples(coords: dict) -> dict:
    """{nu: r} regrouped as {nu0: {i: r}} with nu = i * nu0, nu0 primitive,
    on exponent tuples: the reference for the library's grouping on keys."""
    grouped = {}
    for exp, r in coords.items():
        i = content(exp)
        grouped.setdefault(tuple(v // i for v in exp), {})[i] = r
    return grouped


def shared_tuple_components(ca: dict, cb: dict):
    """Yield (nu, {i: a_i}, {j: b_j}) for each primitive part nu of both
    tuple-keyed families, in the order of ``ca``; matching tuples, it
    needs no common truncation."""
    gb = group_by_primitive_tuples(cb)
    for nu, fa in group_by_primitive_tuples(ca).items():
        if gb.get(nu):
            yield nu, fa, gb[nu]


def _binomial_power(ring, d: int, L: int, c: int, g: int) -> TruncatedSeries:
    """(1 - c t^L)^g as a truncated series in one variable."""
    terms = {(0,): ring.one}
    binom = 1
    pw = ring.one
    discarded = False
    for k in range(1, g + 1):
        binom = binom * (g - k + 1) // k
        pw = ring.rmul(pw, c)
        if pw == 0:
            break
        coef = ring.rmul(ring.rint(binom if k % 2 == 0 else -binom), pw)
        if coef == 0:
            continue
        if k * L >= d:
            discarded = True
            continue
        terms[(k * L,)] = coef
    return TruncatedSeries(ring, 1, d, terms, exact=not discarded)


def mul_coordinate_families(ring, d: int, ca: dict, cb: dict) -> TruncatedSeries:
    """The one-variable convolution product of two coordinate families
    {i: a_i}, {j: b_j} at truncation d, one binomial power at a time."""
    acc = TruncatedSeries.one(ring, 1, d, exact=True)
    for i, ai in ca.items():
        for j, bj in cb.items():
            g = gcd(i, j)
            L = i * j // g
            c = ring.rmul(ring.rpow(ai, j // g), ring.rpow(bj, i // g))
            if c == 0:
                continue
            if L >= d:
                # a genuinely nonzero factor falls outside the window
                acc = copy_with(acc, exact=False)
                continue
            acc = acc.mul(_binomial_power(ring, d, L, c, g))
    return acc


def _substitute(comp: TruncatedSeries, nu: tuple, n: int, d: int) -> TruncatedSeries:
    """comp(s) at s = t^nu in n variables."""
    terms = {tuple(i * v for v in nu): c for (i,), c in comp.terms.items()}
    return TruncatedSeries(comp.ring, n, d, terms)


def recompose_series(fam: OneVarComponentFamily) -> WittElement:
    """Substitute s = t^nu in every part and multiply the series."""
    acc = TruncatedSeries.one(fam.ring, fam.n, fam.d)
    for nu in sorted(fam.parts, key=grlex_key):
        acc = acc.mul(_substitute(fam.parts[nu].series, nu, fam.n, fam.d))
    return WittElement(acc)


def ring_one_series(ring, n: int, d: int) -> WittElement:
    """Product of (1 - t^nu) over primitive nu, |nu| < d, by shift and add."""
    acc = TruncatedSeries.one(ring, n, d)
    for nu in primitive_exponents_below(n, d):
        acc = acc.add_series(shifted(acc, ring.rneg(ring.one), nu))
    return WittElement(acc)


def decompose_dense(a: WittElement) -> dict:
    """The one-variable component at every primitive exponent of the box,
    identities included, each its coordinates' product as a series.

    No component is flagged exact: like a product from ``witt_mul``, each
    is only known below its truncation order."""
    ring, n, d = a.ring, a.n, a.d
    grouped = group_by_primitive_tuples(witt_coordinates(a).coords)
    components = {}
    for nu0 in primitive_exponents_below(n, d):
        k = one_var_order(d, sum(nu0))
        part = grouped.get(nu0)
        if part is None:
            components[nu0] = WittElement.one(ring, 1, k)
            continue
        coords = WittCoordinates(ring, 1, k, {(i,): r for i, r in part.items()})
        comp = from_coordinates_series(coords)
        components[nu0] = WittElement(copy_with(comp.series, exact=False))
    return components


def witt_mul_1var(a: WittElement, b: WittElement) -> WittElement:
    """Coordinatewise convolution product in one variable."""
    ca = {i: c for (i,), c in witt_coordinates(a).coords.items()}
    cb = {j: c for (j,), c in witt_coordinates(b).coords.items()}
    return WittElement(mul_coordinate_families(a.ring, a.d, ca, cb))


def witt_mul_dense(a: WittElement, b: WittElement) -> WittElement:
    """Componentwise product through the dense decomposition."""
    if a.n == 1:
        return witt_mul_1var(a, b)
    fa, fb = decompose_dense(a), decompose_dense(b)
    acc = TruncatedSeries.one(a.ring, a.n, a.d)
    for nu in sorted(fa, key=grlex_key):
        comp = witt_mul_1var(fa[nu], fb[nu])
        acc = acc.mul(_substitute(comp.series, nu, a.n, a.d))
    return WittElement(acc)


def witt_coordinates_box(a: WittElement) -> WittCoordinates:
    """Peel binomial factors in graded order, walking every exponent below d."""
    ring, n, d = a.ring, a.n, a.d
    running = a.series
    coords = {}
    exps = iter(exponents_below(n, d))
    next(exps)  # the zero exponent comes first in graded order
    for exp in exps:
        c = running.terms.get(exp, 0)
        if c == 0:
            continue
        r = ring.rneg(c)
        coords[exp] = r
        # divide by (1 - r t^exp): multiply by the geometric series in r t^exp
        add = {}
        pw = r
        w = sum(exp)
        k = 1
        while k * w < d and pw != 0:
            shift = tuple(k * v for v in exp)
            for e, cc in running.terms.items():
                if sum(e) + k * w >= d:
                    continue
                t = tuple(x + y for x, y in zip(e, shift))
                prod = ring.rmul(cc, pw)
                if prod == 0:
                    continue
                cur = add.get(t)
                add[t] = prod if cur is None else ring.radd(cur, prod)
            pw = ring.rmul(pw, r)
            k += 1
        if add:
            running = running.add_series(
                TruncatedSeries(ring, n, d, {e: c for e, c in add.items() if c != 0})
            )
    return WittCoordinates(ring, n, d, coords)


def from_coordinates_series(c: WittCoordinates) -> WittElement:
    """Ordered product of the binomial factors as series, truncated at d."""
    ring, n, d = c.ring, c.n, c.d
    acc = TruncatedSeries.one(ring, n, d, exact=True)
    for exp in sorted(c.coords, key=grlex_key):
        # acc *= (1 - r t^exp)
        acc = acc.add_series(shifted(acc, ring.rneg(c.coords[exp]), exp))
    return WittElement(acc)


def witt_coordinates_frontier(a: WittElement) -> WittCoordinates:
    """Peel binomial factors in graded order, visiting only the exponents
    the running quotient has, each division a multiply by the steps
    r^k t^(k nu) of the geometric series.

    The quotient is a copy of the element's keys without its constant
    term 1.  Dividing it by (1 - r t^nu) removes the term at nu and adds
    r^k t^(k nu) times every other term, all above degree |nu|, so the
    walk goes degree by degree over the keys each degree holds, in key
    order, and files every key a division creates under its degree.  A
    division reads only the degrees below d - |nu|: a higher term has no
    shift under d."""
    ring, n, d = a.ring, a.n, a.d
    rmul, radd, rneg = ring.rmul, ring.radd, ring.rneg
    limit, dn = d**n, d ** (n - 1)
    quot = {e: c for e, c in a.series.keys.items() if e}
    buckets = {}  # degree -> keys filed there; a key whose term cancelled stays
    for key in quot:
        buckets.setdefault(key // dn, set()).add(key)
    coords = {}
    while buckets:
        deg = min(buckets)
        for nu in sorted(buckets[deg]):
            c = quot.pop(nu, 0)
            if c == 0:
                continue
            r = rneg(c)
            coords[nu] = r
            steps = []  # (key of k nu, r^k) while k |nu| < d
            shift, pw = nu, r
            while shift < limit and pw:
                steps.append((shift, pw))
                shift += nu
                pw = rmul(pw, r)
            # only a term of degree below d - |nu| has a shift under d
            sources = [
                (e, quot[e]) for k in range(deg, d - deg) for e in buckets.get(k, ()) if e in quot
            ]
            for e, ce in sources:
                for shift, pw in steps:
                    t = e + shift
                    if t >= limit:
                        break
                    prod = rmul(ce, pw)
                    if prod == 0:
                        continue
                    cur = quot.get(t)
                    if cur is None:
                        quot[t] = prod
                        buckets.setdefault(t // dn, set()).add(t)
                    else:
                        s = radd(cur, prod)
                        if s:
                            quot[t] = s
                        else:
                            del quot[t]
        del buckets[deg]
    return WittCoordinates(ring, n, d, {unpack_exponent(k, n, d): r for k, r in coords.items()})


def convolution_factors_expanded(ring, fa: dict, gb: dict, scale: int = 1):
    """The convolution binomials one factor at a time: each
    (1 - a_i^(j/g) b_j^(i/g) s^L)^g, L = lcm(i, j), g = gcd(i, j), as g
    runs (L * scale, c, 1), where the library yields one run of length m
    after g = p^v m has been reduced by Frobenius."""
    for i, ai in fa.items():
        for j, bj in gb.items():
            g = gcd(i, j)
            c = ring.rmul(ring.rpow(ai, j // g), ring.rpow(bj, i // g))
            if c:
                yield from ((i * j // g * scale, c, 1),) * g


def convolution_factors_rpow(ring, fa: dict, gb: dict, scale: int = 1):
    """The runs (key, c, m) of ``witt.convolution_factors``, in its order,
    each power by an ``rpow`` ladder for every pair (i, j)."""
    rmul, rpow, frob, p = ring.rmul, ring.rpow, ring.rfrob_p, ring.p
    for i, ai in fa.items():
        for j, bj in gb.items():
            g = gcd(i, j)
            c = rpow(ai, j // g)
            if c:
                c = rmul(c, rpow(bj, i // g))
                key = i * j // g * scale
                while c and g % p == 0:
                    c, g, key = frob(c), g // p, key * p
                if c:
                    yield key, c, g


def binomial_product(ring, limit: int, factors) -> tuple:
    """The product of the binomial runs (1 - r t^key)^m, keys below
    ``limit``, on the library's product driver in one variable, as a dict
    from keys to raw coefficients and whether it is exact."""
    product = _product_element(ring, 1, limit, factors, keep_exact=True).series
    return product.keys, product.exact


def pair_value_binomial_product(ring, fa: dict, gb: dict) -> int:
    """The sum of the coefficients of the one-variable convolution product
    of {i: a_i} and {j: b_j}, multiplied out at a window wide enough that
    no nonzero term is discarded."""
    if not fa or not gb:
        return ring.one
    # each factor (1 - c t^lcm(i, j))^gcd(i, j) has degree i * j
    dstar = 2 + sum(fa) * sum(gb)
    prod, exact = binomial_product(ring, dstar, convolution_factors(ring, fa, gb))
    assert exact, "pairing window unexpectedly too small"
    acc = 0
    for c in prod.values():
        acc = ring.radd(acc, c)
    return acc


def cartier_pair_levels(f, g, d: int) -> tuple:
    """The raw values of the algebraic pairing of f and g at levels d and
    d + 1: g's coordinates below degree d, and below d + 1."""
    ring = f.ring
    g_r = WittElement(TruncatedSeries(ring, g.n, g.d, g.series.terms))
    fc, gc = f.exact_coordinates().coords, witt_coordinates(g_r).coords
    shared = list(shared_tuple_components(fc, gc))

    def value(dcut: int) -> int:
        acc = ring.one
        for nu, fa, gb in shared:
            kcut = one_var_order(dcut, sum(nu))
            cut = {j: c for j, c in gb.items() if j < kcut}
            acc = ring.rmul(acc, pair_value_binomial_product(ring, fa, cut))
        return acc

    return value(d), value(d + 1)

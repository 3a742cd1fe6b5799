import json
from math import comb

import pytest
from hypothesis import given, strategies as st
from witt_oracle import (
    binomial_product,
    convolution_factors_expanded,
    convolution_factors_rpow,
    decompose_dense,
    from_coordinates_series,
    group_by_primitive_tuples,
    mul_coordinate_families,
    recompose_series,
    ring_one_series,
    shared_tuple_components,
    witt_coordinates_box,
    witt_coordinates_frontier,
    witt_mul_dense,
)

from multiwitt import (
    CoeffRing,
    FormalWittElement,
    NilpotentCoefficients,
    ShapeMismatch,
    TooLarge,
    TruncatedSeries,
    WittCoordinates,
    WittElement,
    cartier_pair,
    decompose,
    enumerate_witt_elements,
    from_coordinates,
    frobenius_witt,
    geometric_pair,
    lang_map,
    ring_one,
    witt_add,
    witt_coordinates,
    witt_mul,
    witt_neg,
)
from multiwitt import series, witt
from multiwitt.series import (
    exponents_below,
    pack_exponent,
    primitive_exponents_below,
    unpack_exponent,
)
from multiwitt.witt import (
    OneVarComponentFamily,
    convolution_factors,
    group_by_primitive,
    one_var_order,
    powers,
    random_witt_element,
    shared_components,
)


def W(ring, n, d, terms):
    full = {(0,) * n: 1}
    full.update(terms)
    return WittElement(TruncatedSeries(ring, n, d, full))


def test_identity_and_inverse(any_ring, rng):
    one = WittElement.one(any_ring, 2, 4)
    for _ in range(10):
        lam = random_witt_element(any_ring, 2, 4, rng)
        assert witt_add(lam, one) == lam
        assert witt_add(lam, witt_neg(lam)) == one


def test_binomial_sum_expansion():
    F5 = CoeffRing.make(5)
    a, b = 2, 4
    lhs = witt_add(
        WittElement.binomial(F5, 1, 3, (1,), a), WittElement.binomial(F5, 1, 3, (1,), b)
    )
    assert lhs.series.terms == {
        (0,): 1,
        (1,): F5.rneg(F5.radd(a, b)),
        (2,): F5.rmul(a, b),
    }


def test_coordinate_examples():
    F5 = CoeffRing.make(5)
    m1 = F5.rneg(1)

    lam = WittElement.one(F5, 1, 4)
    assert witt_coordinates(lam).coords == {}

    lam = W(F5, 1, 4, {(1,): 1, (2,): 1, (3,): 1})
    assert witt_coordinates(lam).coords == {(1,): m1, (2,): m1}

    R = CoeffRing.make(3, nil=2)
    r = R.eps_raw
    lam = W(R, 2, 3, {(1, 1): R.rneg(r)})
    assert witt_coordinates(lam).coords == {(1, 1): r}


def test_from_coordinates_examples():
    F5 = CoeffRing.make(5)
    m1 = F5.rneg(1)
    assert from_coordinates(WittCoordinates(F5, 1, 4, {})) == WittElement.one(F5, 1, 4)
    lam = from_coordinates(WittCoordinates(F5, 1, 4, {(1,): m1, (2,): m1}))
    assert lam.series.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}


def test_coordinate_roundtrip_random(any_ring, rng):
    for _ in range(60):
        n = rng.choice((1, 2, 3))
        d = rng.randrange(2, 6 if n > 1 else 8)
        lam = random_witt_element(any_ring, n, d, rng)
        assert from_coordinates(witt_coordinates(lam)) == lam


def test_coordinate_roundtrip_exhaustive_tiny():
    for q, d in ((2, 3), (2, 4), (3, 3)):
        ring = CoeffRing.make(q)
        for lam in enumerate_witt_elements(ring, 1, d):
            assert from_coordinates(witt_coordinates(lam)) == lam


# (n, d) of the differential tests against the box-walk oracle
PEEL_SHAPES = ((1, 14), (2, 7), (3, 5), (6, 4))


def _sparse_element(ring, n, d, rng, count):
    pool = [e for e in exponents_below(n, d) if sum(e) > 0]
    terms = {e: ring.random_raw(rng) or ring.one for e in rng.sample(pool, count)}
    return W(ring, n, d, terms)


def test_peel_matches_box_walk(any_ring, rng):
    for n, d in PEEL_SHAPES:
        elements = [random_witt_element(any_ring, n, d, rng) for _ in range(3)]
        elements += [_sparse_element(any_ring, n, d, rng, k) for k in (1, 2, 4)]
        for a in elements:
            want = witt_coordinates_box(a)
            got = witt_coordinates(a)
            # the same coordinates, inserted in the same (graded) order
            assert list(got.coords.items()) == list(want.coords.items()), (n, d)
            back, back_want = from_coordinates(got), from_coordinates_series(got)
            assert back.series.terms == back_want.series.terms == a.series.terms
            assert back.series.exact == back_want.series.exact


def _same_family(got, want):
    assert list(got.keys.items()) == list(want.keys.items())
    assert list(got.coords.items()) == list(want.coords.items())
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert got == want and repr(got) == repr(want)


def test_peeled_family_equals_public_constructor(any_ring, rng):
    """The peel and ``decompose`` build their families with the trusted
    constructor: each has the keys, in the same order, the ``coords``
    view, in the same order, and the JSON bytes of the family the public
    constructor builds from the box walk's coordinates, and from their
    tuple grouping for the parts."""
    for n, d in PEEL_SHAPES:
        elements = [random_witt_element(any_ring, n, d, rng)]
        elements += [_sparse_element(any_ring, n, d, rng, k) for k in (1, 3)]
        for a in elements:
            want = witt_coordinates_box(a)
            _same_family(witt_coordinates(WittElement(a.series)), want)
            grouped = group_by_primitive_tuples(want.coords)
            for nu, part in decompose(a).parts.items():
                k = one_var_order(d, sum(nu))
                public = WittCoordinates(any_ring, 1, k, {(i,): r for i, r in grouped[nu].items()})
                _same_family(witt_coordinates(part), public)


def test_grouping_on_keys_matches_tuple_grouping(any_ring, rng):
    """``group_by_primitive`` reads the content of nu off its key's digits:
    the same parts, in the same order, as grouping the tuples."""
    for n, d in PEEL_SHAPES:
        family = witt_coordinates(random_witt_element(any_ring, n, d, rng))
        got = {unpack_exponent(k, n, d): part for k, part in group_by_primitive(family).items()}
        want = group_by_primitive_tuples(family.coords)
        assert list(got.items()) == list(want.items()), (n, d)


def test_peel_matches_frontier_reference(any_ring, rng):
    """The peel through the division kernel against the former peel, which
    divides by multiplying with geometric-series steps: the same
    coordinates in the same order, on dense and sparse elements, and on
    sparse ones in one variable long enough for long chains of pushes."""
    for n, d in PEEL_SHAPES + ((1, 60),):
        elements = [_sparse_element(any_ring, n, d, rng, k) for k in (1, 2, 3, 5)]
        if d < 20:
            elements += [random_witt_element(any_ring, n, d, rng) for _ in range(2)]
        for a in elements:
            want = witt_coordinates_frontier(a)
            assert list(witt_coordinates(a).coords.items()) == list(want.coords.items()), (n, d)


def test_from_coordinates_matches_series_product(any_ring, rng):
    for n, d in PEEL_SHAPES:
        pool = [e for e in exponents_below(n, d) if sum(e) > 0]
        for count in (1, 2, 4, len(pool)):
            coords = {e: any_ring.random_raw(rng) for e in rng.sample(pool, count)}
            c = WittCoordinates(any_ring, n, d, coords)
            got, want = from_coordinates(c).series, from_coordinates_series(c).series
            assert got.terms == want.terms, (n, d, count)
            assert got.exact == want.exact, (n, d, count)


@pytest.mark.parametrize(
    "coords",
    [
        {(1,): 2},  # one entry in two variables
        {(3, 3): 2},  # |nu| = 6 at d = 4
        {(0, 0): 1},  # the constant term is not a coordinate
        {(-1, 2): 1},  # a negative entry
        {(1, 0): 1, (2, 2, 0): 0},  # a zero coordinate is checked too
    ],
)
def test_malformed_coordinate_exponent_rejected(coords):
    with pytest.raises(ShapeMismatch):
        WittCoordinates(CoeffRing.make(3), 2, 4, coords)


def test_decompose_regroups_by_gcd():
    F5 = CoeffRing.make(5)
    r = 3
    lam = W(F5, 2, 5, {(2, 2): F5.rneg(r)})
    fam = decompose(lam)
    assert fam.components[(1, 1)].series.terms == {(0,): 1, (2,): F5.rneg(r)}
    for nu, comp in fam.components.items():
        if nu != (1, 1):
            assert comp.series.terms == {(0,): 1}
    assert fam.recompose() == lam


def test_decompose_identity(any_ring):
    fam = decompose(WittElement.one(any_ring, 2, 4))
    assert all(c.series.terms == {(0,): 1} for c in fam.components.values())


def test_component_family_is_bounded_before_it_is_built(monkeypatch):
    """``components`` lists every primitive exponent below d, so
    ``check_family`` refuses a family of more than FAMILY_LIMIT components
    before building any; in one variable there is one component at every
    d, and ``parts`` is never bounded."""
    F3 = CoeffRing.make(3)
    fam = decompose(WittElement.one(F3, 2, 10**9))
    assert fam.parts == {}
    with pytest.raises(TooLarge, match="up to 500000000499999999 components"):
        fam.components
    fam = decompose(WittElement.one(F3, 1, 10**9))
    assert list(fam.components) == [(1,)]
    # at (2, 5) the bound is the 14 nonzero exponents below 5
    monkeypatch.setattr("multiwitt.witt.FAMILY_LIMIT", 14)
    assert len(decompose(WittElement.one(F3, 2, 5)).components) == 7
    monkeypatch.setattr("multiwitt.witt.FAMILY_LIMIT", 13)
    with pytest.raises(TooLarge, match="up to 14 components"):
        decompose(WittElement.one(F3, 2, 5)).components


def test_decompose_is_group_hom(any_ring, rng):
    for _ in range(30):
        n, d = rng.choice(((2, 4), (3, 3), (2, 5)))
        a = random_witt_element(any_ring, n, d, rng)
        b = random_witt_element(any_ring, n, d, rng)
        fa, fb, fab = decompose(a), decompose(b), decompose(witt_add(a, b))
        assert set(fab.components) == set(fa.components)
        for nu in fab.components:
            assert fab.components[nu] == witt_add(fa.components[nu], fb.components[nu])


def test_decompose_matches_dense_oracle(any_ring, rng):
    for n, d in ((1, 7), (2, 5), (3, 4)):
        pool = primitive_exponents_below(n, d)
        elements = [WittElement.one(any_ring, n, d)]
        elements += [random_witt_element(any_ring, n, d, rng) for _ in range(3)]
        # few-term elements leave most primitive parts out
        elements += [
            _few_term_element(any_ring, n, d, rng.sample(pool, min(2, len(pool))), rng)
            for _ in range(3)
        ]
        for a in elements:
            fam, dense = decompose(a), decompose_dense(a)
            assert list(fam.components) == list(dense)
            for nu, comp in dense.items():
                assert fam.components[nu] == comp
                assert fam.components[nu].series.exact == comp.series.exact
            assert all(fam.parts[nu] is fam.components[nu] for nu in fam.parts)
            assert not any(p.series.terms == {(0,): any_ring.one} for p in fam.parts.values())
            assert fam.recompose() == a


def test_decompose_forms_part_series_only_when_read(any_ring, rng, monkeypatch):
    """``decompose`` keeps each part's coordinates and forms no part's
    series until ``parts`` or ``components`` is read; ``recompose``
    multiplies from the coordinates, one product, before or after a
    read.  The parts read equal the dense oracle's components that are
    not the identity, and the round trip returns the element."""
    calls = []
    product = witt._product_element

    def counted(ring, n, d, factors, keep_exact=False):
        calls.append(n)
        return product(ring, n, d, factors, keep_exact)

    monkeypatch.setattr("multiwitt.witt._product_element", counted)
    for n, d in ((2, 5), (3, 4)):
        pool = primitive_exponents_below(n, d)
        elements = [random_witt_element(any_ring, n, d, rng) for _ in range(2)]
        elements.append(_few_term_element(any_ring, n, d, rng.sample(pool, 2), rng))
        for a in elements:
            witt_coordinates(a)
            calls.clear()
            fam = decompose(a)
            assert calls == []
            assert fam.recompose() == a and calls == [n]
            one = {(0,): any_ring.one}
            want = {nu: c for nu, c in decompose_dense(a).items() if c.series.terms != one}
            calls.clear()
            assert fam.parts == want
            assert calls == [1] * len(want)
            assert list(fam.parts) == list(fam.coordinates)
            calls.clear()
            fam = decompose(a)
            fam.components
            assert calls == [1] * len(want)
            assert decompose(a).recompose() == a


def test_few_term_decompose_at_n6_d20_builds_present_parts_only(monkeypatch):
    """(1 - t1)(1 - 2 t2^2)(1 - t1^3 t2^3) over F_3 in a box of 230,230
    exponents: three coordinates give at most three parts, and neither
    decompose nor recompose lists the primitive exponents of the box."""
    F3 = CoeffRing.make(3)
    n, d = 6, 20
    coords = {(1, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 2, (3, 3, 0, 0, 0, 0): 1}
    a = from_coordinates(WittCoordinates(F3, n, d, coords))

    def no_primitives(*_):
        raise AssertionError("the primitive exponents of the box were listed")

    with monkeypatch.context() as patch:
        patch.setattr("multiwitt.witt.primitive_exponents_below", no_primitives)
        fam = decompose(a)
        back = fam.recompose()
    assert len(fam.parts) == 3
    assert back == a


def test_one_var_product_formula_coprime():
    F5 = CoeffRing.make(5)
    a, b = 2, 3
    x = WittElement.binomial(F5, 1, 8, (2,), a)
    y = WittElement.binomial(F5, 1, 8, (3,), b)
    expected = WittElement.binomial(
        F5, 1, 8, (6,), F5.rmul(F5.rpow(a, 3), F5.rpow(b, 2))
    )
    assert witt_mul(x, y) == expected


def test_one_var_product_formula_equal_indices():
    F5 = CoeffRing.make(5)
    a, b = 2, 3
    x = WittElement.binomial(F5, 1, 8, (2,), a)
    y = WittElement.binomial(F5, 1, 8, (2,), b)
    ab = WittElement.binomial(F5, 1, 8, (2,), F5.rmul(a, b))
    assert witt_mul(x, y) == witt_add(ab, ab)


def test_one_var_unit(any_ring, rng):
    one = WittElement.binomial(any_ring, 1, 7, (1,), any_ring.one)
    for _ in range(15):
        m = random_witt_element(any_ring, 1, 7, rng)
        assert witt_mul(one, m) == m
        assert witt_mul(m, one) == m


def test_nvar_unit_and_annihilation(rng):
    F3 = CoeffRing.make(3)
    unit = ring_one(F3, 2, 4)
    for _ in range(15):
        m = random_witt_element(F3, 2, 4, rng)
        assert witt_mul(unit, m) == m
    x = WittElement.binomial(F3, 2, 4, (1, 0), 2)
    y = WittElement.binomial(F3, 2, 4, (0, 1), 2)
    assert witt_mul(x, y) == WittElement.one(F3, 2, 4)


def test_ring_laws_nvar(rng):
    F2 = CoeffRing.make(2)
    for _ in range(25):
        a = random_witt_element(F2, 2, 4, rng)
        b = random_witt_element(F2, 2, 4, rng)
        c = random_witt_element(F2, 2, 4, rng)
        assert witt_mul(a, b) == witt_mul(b, a)
        assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
        assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))


def test_nvar_distributivity_500_triples(rng):
    configs = [
        (CoeffRing.make(2), 2, 4),
        (CoeffRing.make(3), 2, 3),
        (CoeffRing.make(2), 3, 3),
        (CoeffRing.make(5), 2, 3),
        (CoeffRing.make(4), 2, 3),
    ]
    for i in range(500):
        ring, n, d = configs[i % len(configs)]
        a = random_witt_element(ring, n, d, rng)
        b = random_witt_element(ring, n, d, rng)
        c = random_witt_element(ring, n, d, rng)
        assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_truncate_cuts_the_peeled_coordinates(any_ring, n, rng, monkeypatch):
    """``truncate`` returns the element itself when nothing is cut, and the
    longest cut made each time it is asked for again.  A cut of an element
    whose coordinates were peeled, before or after the cut was made, reads
    the coordinates below the new order, which are the peel of the cut,
    without a peel; so does a shorter cut, made from the kept one."""
    peels = []
    peel = witt.peel_keys
    monkeypatch.setattr(witt, "peel_keys", lambda *args: peels.append(args) or peel(*args))
    for _ in range(3):
        d = rng.randrange(2, (12, 7, 5)[n - 1])
        a = random_witt_element(any_ring, n, d, rng)
        assert a.truncate(d) is a
        fresh = [WittElement(a.series.truncate(d_new)) for d_new in range(1, d)]
        kept = a.truncate(d - 1)
        witt_coordinates(a)
        peels.clear()
        cuts = [a.truncate(d_new) for d_new in range(1, d)]
        assert cuts[-1] is kept and a.truncate(d - 1) is kept
        got = [witt_coordinates(cut) for cut in cuts]
        assert not peels
        for cut, coords, want in zip(cuts, got, fresh):
            assert cut == want and cut._coords is coords
            assert coords == witt_coordinates(want), (a, want.d)


def test_product_is_never_flagged_exact():
    """The coordinates of a truncated input say nothing about its factors
    at or beyond d, so no product at d can claim to be a polynomial: at
    d = 12 the same two polynomials gain a t^10 term."""
    R = CoeffRing.make(3, nil=2)
    one_plus_eps = R.radd(R.one, R.eps_raw)
    two_eps = R.radd(R.eps_raw, R.eps_raw)

    def poly(d, terms):
        return WittElement(TruncatedSeries(R, 1, d, {(0,): R.one, **terms}, exact=True))

    at9, at12 = (
        witt_mul(poly(d, {(3,): one_plus_eps, (7,): two_eps}), poly(d, {(2,): one_plus_eps}))
        for d in (9, 12)
    )
    assert sorted(at9.series.terms) == [(0,), (6,)]
    assert not at9.series.exact
    assert (10,) in at12.series.terms


def _few_term_element(ring, n, d, directions, rng):
    """1 plus one to three terms on multiples of the given primitive directions."""
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        nu = rng.choice(directions)
        i = rng.randrange(1, one_var_order(d, sum(nu)))
        terms[tuple(i * v for v in nu)] = rng.randrange(1, ring.size)
    return W(ring, n, d, terms)


def test_product_matches_dense_oracle(any_ring, rng):
    for n, dense_d, sparse_d in ((1, 8, 16), (2, 5, 12), (3, 4, 10)):
        for _ in range(3):
            a = random_witt_element(any_ring, n, dense_d, rng)
            b = random_witt_element(any_ring, n, dense_d, rng)
            product = witt_mul(a, b)
            assert product.series.terms == witt_mul_dense(a, b).series.terms
            assert not product.series.exact
        pool = primitive_exponents_below(n, 4)
        for _ in range(3):
            # a third direction leaves some parts in one factor only
            directions = rng.sample(pool, min(3, len(pool)))
            a = _few_term_element(any_ring, n, sparse_d, directions, rng)
            b = _few_term_element(any_ring, n, sparse_d, directions, rng)
            product = witt_mul(a, b)
            assert product.series.terms == witt_mul_dense(a, b).series.terms
            assert not product.series.exact


# (n, d) of the differential tests against the series-built references
SERIES_SHAPES = ((1, 9), (2, 6), (3, 4))


def test_convolution_kernel_matches_series_product(any_ring, rng):
    """The one-variable convolution through binomial_product against the
    expanded binomial powers of the series reference: the same terms at
    the truncation, and the same complete, exact polynomial at the
    pairing's window."""
    for _ in range(4):
        d = rng.randrange(3, 9)
        fa = {i: any_ring.random_raw(rng) or any_ring.one for i in rng.sample(range(1, d), 2)}
        gb = {j: any_ring.random_raw(rng) or any_ring.one for j in rng.sample(range(1, d), 2)}
        dstar = 2 + sum(fa) * sum(gb)
        for window in (d, dstar):
            got, exact = binomial_product(any_ring, window, convolution_factors(any_ring, fa, gb))
            want = mul_coordinate_families(any_ring, window, fa, gb)
            assert {(k,): c for k, c in got.items()} == want.terms, (fa, gb, window)
            if window == dstar:
                assert exact and want.exact


def test_ring_one_matches_shift_and_add(any_ring):
    for n, d in SERIES_SHAPES:
        got, want = ring_one(any_ring, n, d).series, ring_one_series(any_ring, n, d).series
        assert got.terms == want.terms, (n, d)
        assert got.exact == want.exact is False


def test_recompose_matches_substituted_series_product(any_ring, rng):
    for n, d in SERIES_SHAPES:
        pool = primitive_exponents_below(n, d)
        elements = [random_witt_element(any_ring, n, d, rng) for _ in range(2)]
        elements.append(_few_term_element(any_ring, n, d, rng.sample(pool, min(2, len(pool))), rng))
        for a in elements:
            fam = decompose(a)
            # a family of given elements is built from their peeled coordinates
            bare = OneVarComponentFamily(
                any_ring,
                n,
                d,
                {nu: witt_coordinates(WittElement(p.series)) for nu, p in fam.parts.items()},
            )
            want = recompose_series(fam).series
            for got in (fam.recompose().series, bare.recompose().series):
                assert got.terms == want.terms == a.series.terms, (n, d)
                assert got.exact == want.exact is False


def test_witt_layer_products_never_call_series_mul(monkeypatch):
    """from_coordinates, witt_mul, recompose and ring_one run on the
    product driver, series.multiply_keys, alone, and the algebraic pairing
    multiplies the binomials' values at t = 1: none multiplies series."""
    F3, R = CoeffRing.make(3), CoeffRing.make(3, nil=2)
    a = W(F3, 2, 6, {(1, 0): 1, (1, 1): 2, (0, 3): 1})
    b = W(F3, 2, 6, {(0, 1): 2, (2, 2): 1})
    f = FormalWittElement(TruncatedSeries(R, 1, 3, {(0,): R.one, (1,): R.eps_raw}, exact=True))
    g = W(F3, 1, 6, {(1,): 1, (2,): 2})

    def no_mul(*_):
        raise AssertionError("TruncatedSeries.mul was called")

    with monkeypatch.context() as patch:
        patch.setattr(TruncatedSeries, "mul", no_mul)
        product = witt_mul(a, b)
        back = decompose(a).recompose()
        unit = ring_one(F3, 2, 6)
        rebuilt = from_coordinates(witt_coordinates(b))
        value = cartier_pair(f, g)
    assert product.series.terms == witt_mul_dense(a, b).series.terms
    assert back == a and rebuilt == b
    assert unit == ring_one_series(F3, 2, 6)
    assert value == geometric_pair(f, g, g.d - 1)


def test_few_term_product_at_n6_d20_uses_shared_parts_only(monkeypatch):
    """(1 + t1 + 2 t2) * (1 + t2 + t1 t2) over F_3 in a box of 230,230
    exponents: the product's coordinates are those of the one-variable
    products of the shared parts, and the dense decomposition never runs."""
    F3 = CoeffRing.make(3)
    n, d = 6, 20
    t1, t2, t1t2 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)
    a = W(F3, n, d, {t1: 1, t2: 2})
    b = W(F3, n, d, {t2: 1, t1t2: 1})

    def no_decompose(_):
        raise AssertionError("witt_mul built the dense decomposition")

    with monkeypatch.context() as patch:
        patch.setattr("multiwitt.witt.decompose", no_decompose)
        product = witt_mul(a, b)
    expected = {}
    coords_a, coords_b = witt_coordinates(a).coords, witt_coordinates(b).coords
    for nu, ca, cb in shared_tuple_components(coords_a, coords_b):
        k = one_var_order(d, sum(nu))
        ea, eb = (
            from_coordinates(WittCoordinates(F3, 1, k, {(i,): c for i, c in fam.items()}))
            for fam in (ca, cb)
        )
        coords = {i: c for (i,), c in witt_coordinates(witt_mul(ea, eb)).coords.items()}
        if coords:
            expected[nu] = coords
    assert expected
    assert group_by_primitive_tuples(witt_coordinates(product).coords) == expected


def test_frobenius_and_lang_examples():
    F4 = CoeffRing.make(4)
    alpha = F4.gen().raw
    lam = W(F4, 1, 3, {(1,): alpha})
    image = lang_map(lam, 2)
    assert image.series.terms == {(0,): 1, (1,): 1, (2,): alpha}

    # rational points map to 1
    F2sub = [el for el in enumerate_witt_elements(F4, 1, 3) if all(c < 2 for c in el.series.terms.values())]
    for el in F2sub:
        assert lang_map(el, 2) == WittElement.one(F4, 1, 3)


def test_lang_kernel_size_small():
    F4 = CoeffRing.make(4)
    one = WittElement.one(F4, 1, 3)
    kernel = [el for el in enumerate_witt_elements(F4, 1, 3) if lang_map(el, 2) == one]
    assert len(kernel) == 4


def test_frobenius_witt_needs_field():
    R = CoeffRing.make(2, nil=2)
    with pytest.raises(NilpotentCoefficients):
        frobenius_witt(WittElement.one(R, 1, 3), 2)


@given(st.integers(0, 3**6 - 1))
def test_unipotence_orders(idx):
    F3 = CoeffRing.make(3)
    d = 6
    exps = [(k,) for k in range(1, d)]
    terms = {(0,): 1}
    v = idx
    for e in exps:
        c = v % 3
        v //= 3
        if c:
            terms[e] = c
    lam = WittElement(TruncatedSeries(F3, 1, d, terms))
    assert lam.group_pow(9) == WittElement.one(F3, 1, d)


def test_group_axioms_exhaustive_q2_d3():
    F2 = CoeffRing.make(2)
    els = list(enumerate_witt_elements(F2, 1, 3))
    assert len(els) == 4
    one = WittElement.one(F2, 1, 3)
    for a in els:
        assert witt_add(a, one) == a
        assert witt_add(a, witt_neg(a)) == one
        for b in els:
            assert witt_add(a, b) == witt_add(b, a)
            for c in els:
                assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))


def test_mul_shape_guard():
    F2 = CoeffRing.make(2)
    a = WittElement.one(F2, 1, 3)
    b = WittElement.one(F2, 1, 4)
    with pytest.raises(Exception):
        witt_mul(a, b)


def _key_updates(ring, limit, factors):
    """The keys ``binomial_product`` updates: each run (1 - r t^key)^m
    inside the window updates every key of the product of the runs before
    it once for each nonzero term C(m, k) (-r)^k t^(k key) below the
    window."""
    updates = 0
    for k, (key, r, m) in enumerate(factors):
        if r and key < limit:
            s = ring.rneg(r)
            power = {i: ring.rmul(ring.rint(comb(m, i)), ring.rpow(s, i)) for i in range(1, m + 1)}
            terms = sum(1 for i, c in power.items() if c and i * key < limit)
            updates += terms * len(binomial_product(ring, limit, factors[:k])[0])
    return updates


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_estimate_bounds_its_key_updates(any_ring, n, rng, monkeypatch):
    """The estimate a binomial product is checked by before it starts is
    at least the key updates the product makes, counted per run: with the
    limit one below their count, ``from_coordinates`` and ``witt_mul`` are
    refused."""
    limit = series.WORK_LIMIT
    for _ in range(6):
        monkeypatch.setattr(series, "WORK_LIMIT", limit)
        d = rng.randrange(2, 7)
        box = exponents_below(n, d)[1:]
        coords = {e: any_ring.random_raw(rng) for e in rng.sample(box, min(len(box), 5))}
        element = WittCoordinates(any_ring, n, d, coords)
        a = from_coordinates(element)
        peeled = witt_coordinates(a)  # in the order witt_mul reads them
        shared = shared_components(peeled, peeled)
        products = {
            lambda: from_coordinates(element): sorted(
                (pack_exponent(e, d), r, 1) for e, r in coords.items()
            ),
            lambda: witt_mul(a, a): [
                f for key, ca, cb in shared for f in convolution_factors(any_ring, ca, cb, key)
            ],
        }
        for job, factors in products.items():
            # the count runs on the driver too, so under the full limit
            monkeypatch.setattr(series, "WORK_LIMIT", limit)
            monkeypatch.setattr(series, "WORK_LIMIT", _key_updates(any_ring, d**n, factors) - 1)
            with pytest.raises(TooLarge, match="binomials .* steps"):
                job()


def _square_of_one_plus_t_plus_t2(ring, d, c=1):
    """witt_mul of 1 + c t + t^2 with itself, and the factors of the same
    product with every convolution run expanded into its single
    binomials."""
    a = W(ring, 1, d, {(1,): c, (2,): 1})
    product = witt_mul(a, a)
    peeled = witt_coordinates(a)
    factors = [
        f for key, ca, cb in shared_components(peeled, peeled)
        for f in convolution_factors_expanded(ring, ca, cb, key)
    ]
    return product, factors


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_convolution_runs_match_expanded_factors(q, monkeypatch):
    """Each run (1 - c s^L)^g is multiplied in once, as a binomial power
    after Frobenius takes out the powers of p in g: the same product, byte
    for byte, as the g single binomials one at a time, multiplied with
    ``WORK_LIMIT`` out of the way."""
    ring = CoeffRing.make(q)
    # over F_4 and F_9, 1 + x t + t^2 has coordinates that Frobenius moves
    cases = [(d, 1) for d in (50, 400, 2000)] + ([(50, ring.gen().raw)] if q in (4, 9) else [])
    for d, c in cases:
        product, factors = _square_of_one_plus_t_plus_t2(ring, d, c)
        with monkeypatch.context() as patch:
            patch.setattr(series, "WORK_LIMIT", 10**12)
            want = witt._product_element(ring, 1, d, factors)
        assert json.dumps(product.to_json_dict()) == json.dumps(want.to_json_dict()), (d, c)


def test_power_lists_end_at_zero_or_one(any_ring):
    """``powers`` lists x^k by table products; a nilpotent x's list is as
    long as its nilpotency index, and a unit's, unless ``top`` cuts it,
    as long as its order, so indexing it modulo its length gives x^u."""
    for x in any_ring.element_indices():
        for top in (1, 5, any_ring.size):
            pw, repeats = powers(any_ring, x, top)
            assert 1 <= len(pw) <= top + 1
            assert pw == [any_ring.rpow(x, k) for k in range(len(pw))]
            if repeats:
                assert any_ring.rpow(x, len(pw)) == any_ring.one
                assert all(any_ring.rpow(x, u) == pw[u % len(pw)] for u in range(3 * top))
            elif len(pw) <= top:
                assert any_ring.rpow(x, len(pw)) == 0


def test_convolution_runs_match_the_rpow_reference(any_ring, rng):
    """``convolution_factors`` reads each power from one list per
    coordinate and forms no pair that a nilpotent a_i annuls; the former
    generator forms every pair by ``rpow`` ladders.  Both yield the same
    runs (key, c, m) in the same order, for families of units, of
    nilpotents and of both on either side, keys in any order and past
    every unit's order, at scale 1 and at a packed key."""
    units = [c for c in any_ring.element_indices() if any_ring.is_unit_raw(c)]
    nilpotents = [c for c in any_ring.element_indices()[1:] if any_ring.is_nilpotent_raw(c)]
    pools = [units] + ([nilpotents, units + nilpotents] if nilpotents else [])
    scales = (1, pack_exponent((1, 2), 9))
    for _ in range(8):
        for pool_a in pools:
            for pool_b in pools:
                fa = {i: rng.choice(pool_a) for i in rng.sample(range(1, 60), rng.randrange(1, 7))}
                gb = {j: rng.choice(pool_b) for j in rng.sample(range(1, 60), rng.randrange(1, 7))}
                for scale in scales:
                    got = list(convolution_factors(any_ring, fa, gb, scale))
                    assert got == list(convolution_factors_rpow(any_ring, fa, gb, scale)), (fa, gb)


def test_square_of_one_plus_t_plus_t2_at_d_2000_is_admitted(monkeypatch):
    """Over F_3 at d = 2,000 the 6,144 convolution binomials of (1 + t + t^2)^2
    form far fewer runs, and the estimate admits the product, which is
    the factor-by-factor one; at d = 20,000 the estimate still refuses it
    before any product is formed."""
    F3 = CoeffRing.make(3)
    product, factors = _square_of_one_plus_t_plus_t2(F3, 2000)
    peeled = witt_coordinates(W(F3, 1, 2000, {(1,): 1, (2,): 1}))
    shared = shared_components(peeled, peeled)
    runs = [f for key, ca, cb in shared for f in convolution_factors(F3, ca, cb, key)]
    assert len(factors) == 6144 and len(runs) < len(factors) // 10
    with monkeypatch.context() as patch:
        patch.setattr(series, "WORK_LIMIT", 10**12)
        want = witt._product_element(F3, 1, 2000, factors)
    assert product == want and product.series.terms == want.series.terms

    def no_product(*_):
        raise AssertionError("the product started")

    a = W(F3, 1, 20000, {(1,): 1, (2,): 1})
    monkeypatch.setattr(series, "add_products", no_product)
    with pytest.raises(TooLarge, match="binomials .* steps"):
        witt_mul(a, a)


def test_operators_match_the_group_and_ring_laws(any_ring, rng):
    for n, d in ((1, 5), (2, 4)):
        a = random_witt_element(any_ring, n, d, rng)
        b = random_witt_element(any_ring, n, d, rng)
        assert a + b == witt_add(a, b) and -a == witt_neg(a)
        assert a - b == witt_add(a, witt_neg(b)) and a * b == witt_mul(a, b)


def test_group_pow_of_a_negative_exponent_is_the_inverse_power(any_ring, rng):
    a = random_witt_element(any_ring, 2, 4, rng)
    one = WittElement.one(any_ring, 2, 4)
    assert a.group_pow(-1) == witt_neg(a)
    assert a.group_pow(-3) == witt_neg(a.group_pow(3))
    assert witt_add(a.group_pow(-2), a.group_pow(2)) == one and a.group_pow(0) == one

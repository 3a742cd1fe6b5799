import time
from math import gcd

import pairing_oracle
import pytest
from conftest import RINGS
from series_oracle import eval_all_ones
from witt_oracle import (
    cartier_pair_levels,
    group_by_primitive_tuples,
    mul_coordinate_families,
    pair_value_binomial_product,
)

from multiwitt import duality, unipoly, witt
from multiwitt import (
    CoeffRing,
    WittError,
    FormalWittElement,
    InvalidTruncation,
    NotAUnit,
    ShapeMismatch,
    TooLarge,
    TruncatedSeries,
    UnstableTruncation,
    WittCoordinates,
    WittElement,
    cartier_pair,
    from_coordinates,
    geometric_pair,
    is_polynomial_unit,
    pairing_matrix,
    pairing_via_components,
    separates,
    unit_class,
    witt_add,
    witt_coordinates,
)
from multiwitt.duality import random_formal_element
from multiwitt.ptypical import PWittVector, component_lengths, pi_epsilon_inverse, pwitt_pair
from multiwitt.series import exponents_below
from multiwitt.witt import enumerate_witt_elements, one_var_order, random_witt_element

R22 = CoeffRing.make(2, nil=2)
R23 = CoeffRing.make(2, nil=3)
F2 = CoeffRing.make(2)


def formal(ring, terms):
    full = {(0,) * len(next(iter(terms))): 1} if terms else {(0,): 1}
    full.update(terms)
    d = max(sum(e) for e in full) + 1
    return FormalWittElement(TruncatedSeries(ring, len(next(iter(full))), d, full, exact=True))


def test_unit_class_examples():
    eps = R22.eps_raw
    u = TruncatedSeries(R22, 1, 2, {(0,): 1, (1,): eps}, exact=True)
    uc = unit_class(u)
    assert uc.representative.series == u

    with pytest.raises(NotAUnit):
        unit_class(TruncatedSeries(R22, 1, 2, {(1,): 1}, exact=True))

    c = R22.radd(1, eps)
    const = TruncatedSeries(R22, 1, 1, {(0,): c}, exact=True)
    assert unit_class(const).representative.series.terms == {(0,): 1}


def test_unit_class_rejects_non_nilpotent_tail():
    with pytest.raises(NotAUnit):
        unit_class(TruncatedSeries(R22, 1, 2, {(0,): 1, (1,): 1}, exact=True))


def test_formal_element_constructor_guards():
    from multiwitt import NotNilpotent, ShapeMismatch

    with pytest.raises(NotNilpotent):
        FormalWittElement(TruncatedSeries(R22, 1, 2, {(0,): 1, (1,): 1}, exact=True))
    with pytest.raises(ShapeMismatch):
        FormalWittElement(TruncatedSeries(R22, 1, 2, {(0,): 1}, exact=False))
    with pytest.raises(ShapeMismatch):
        eps = R22.eps_raw
        FormalWittElement(
            TruncatedSeries(R22, 1, 2, {(0,): R22.radd(1, eps), (1,): eps}, exact=True)
        )


def test_formal_element_equality_and_hash_ignore_truncation():
    # the same polynomial at d = 3 and d = 5: its series keys differ, since
    # they depend on d, but the formal elements are one
    R32 = CoeffRing.make(3, nil=2)
    eps = R32.eps_raw
    terms = {(0, 0): 1, (1, 0): eps, (0, 2): R32.rneg(eps), (1, 1): eps}
    f3 = FormalWittElement(TruncatedSeries(R32, 2, 3, terms, exact=True))
    f5 = FormalWittElement(TruncatedSeries(R32, 2, 5, terms, exact=True))
    assert f3.series.keys != f5.series.keys
    assert f3 == f5 and hash(f3) == hash(f5) and len({f3, f5}) == 1
    assert f3 != formal(R32, {(1, 0): eps})
    # products land at the truncation the degrees ask for, whatever d came in
    assert f3.mul(f5) == f5.mul(f3) == f3.mul(f3)


def test_pairing_matrix_trivial_row_and_column():
    one_f = formal(R22, {})
    fs = [one_f, formal(R22, {(1,): R22.eps_raw})]
    gs = [WittElement.one(F2, 1, 5), WittElement.binomial(F2, 1, 5, (1,), 1)]
    matrix = pairing_matrix(fs, gs)
    assert all(v.raw == 1 for v in matrix[0])  # trivial first argument
    assert all(row[0].raw == 1 for row in matrix)  # trivial second argument


def test_unit_criterion_exhaustive_small():
    # degree <= 2, n <= 2 over F_2[eps]/(eps^2)
    for n in (1, 2):
        exps = list(exponents_below(n, 3))
        size = R22.size ** len(exps)
        for idx in range(size):
            v = idx
            terms = {}
            for e in exps:
                c = v % R22.size
                v //= R22.size
                if c:
                    terms[e] = c
            poly = TruncatedSeries(R22, n, 3, terms, exact=True)
            expected = is_polynomial_unit(poly)
            try:
                unit_class(poly)
                accepted = True
            except NotAUnit:
                accepted = False
            assert accepted == expected


def test_pair_with_trivial_sides():
    g = WittElement.binomial(F2, 1, 5, (1,), 1)
    one_f = formal(R22, {})
    assert cartier_pair(one_f, g).raw == 1
    assert geometric_pair(one_f, g, 3).raw == 1
    gone = WittElement.one(F2, 1, 5)
    f = formal(R22, {(1,): R22.eps_raw})
    assert cartier_pair(f, gone).raw == 1
    assert geometric_pair(f, gone, 3).raw == 1


def test_pair_worked_examples():
    eps = R22.eps_raw
    g = WittElement.binomial(F2, 1, 5, (1,), 1)  # 1 - t

    f = formal(R22, {(1,): eps})  # 1 + eps t
    want = R22.radd(1, eps)
    assert cartier_pair(f, g).raw == want
    assert geometric_pair(f, g, 3).raw == want
    assert pairing_via_components(f, g).raw == want

    f2 = formal(R22, {(2,): eps})  # 1 + eps t^2
    assert cartier_pair(f2, g).raw == want  # b = 1 so eps b^2 = eps
    assert geometric_pair(f2, g, 3).raw == want


def test_pair_sees_square_of_root():
    # over F_4 the value 1 + eps b^2 differs from 1 + eps b
    R = CoeffRing.make(4, nil=2)
    F4 = CoeffRing.make(4)
    eps = R.eps_raw
    b = F4.gen().raw
    g = WittElement.binomial(F4, 1, 5, (1,), b)
    f1 = formal(R, {(1,): eps})
    f2 = formal(R, {(2,): eps})
    v1 = cartier_pair(f1, g).raw
    v2 = cartier_pair(f2, g).raw
    assert v1 == R.radd(1, R.rmul(eps, b))
    assert v2 == R.radd(1, R.rmul(eps, R.rmul(b, b)))
    assert v1 != v2
    assert geometric_pair(f1, g, 3).raw == v1
    assert geometric_pair(f2, g, 3).raw == v2


@pytest.mark.parametrize("q,e", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_route_agreement_random(q, e, rng):
    ring = CoeffRing.make(q, nil=e)
    base = CoeffRing.make(q)
    dg = 3 * (e - 1) + 2
    for _ in range(40):
        f = random_formal_element(ring, 1, 3, rng)
        g = random_witt_element(base, 1, dg, rng)
        va = cartier_pair(f, g)
        assert geometric_pair(f, g, dg - 1) == va
        assert pairing_via_components(f, g) == va
        assert ring.is_unit_raw(va.raw) and ring.is_nilpotent_raw(ring.rsub(va.raw, 1))


def test_route_agreement_long_components(rng):
    # g known to degree 21 gives the slot j = 1 a vector of length 5
    ring = CoeffRing.make(2, nil=3)
    for _ in range(3):
        f = random_formal_element(ring, 1, 2, rng)
        g = random_witt_element(F2, 1, 22, rng)
        va = cartier_pair(f, g)
        assert geometric_pair(f, g, 21) == va
        assert pairing_via_components(f, g) == va


def test_route_agreement_long_components_larger_f(rng):
    # f of degree 5 and 8 against g' of degree up to 20: the geometric
    # route's norms are determinants of size 5 and 8, not m + deg f
    ring = CoeffRing.make(2, nil=3)
    for degree in (5, 5, 5, 8, 8, 8):
        f = random_formal_element(ring, 1, degree, rng)
        g = random_witt_element(F2, 1, 22, rng)
        va = cartier_pair(f, g)
        assert geometric_pair(f, g, 21) == va
        assert pairing_via_components(f, g) == va


def test_route_agreement_two_variables(rng):
    ring = CoeffRing.make(3, nil=2)
    base = CoeffRing.make(3)
    for _ in range(25):
        f = random_formal_element(ring, 2, 2, rng)
        g = random_witt_element(base, 2, 7, rng)
        assert cartier_pair(f, g) == geometric_pair(f, g, 3)


@pytest.mark.parametrize("name", sorted(k for k, r in RINGS.items() if r.nil >= 2))
def test_three_routes_agree_in_several_variables(name, rng):
    """In two and three variables the three routes give one value, for g
    over the field and over the ring.  Every part of f lies below
    m = f.coordinate_bound(), so at g.d = (m - 1)(m + 1) + 1 each carries
    more than m + 1 terms of g and the geometric route pairs it at m.  g
    takes 5 terms of degree at most m, where f's parts meet it, and 20 of
    any degree, since a dense g at n = 3, d = 25 has 2,924 terms to peel."""
    ring = RINGS[name]
    for n in (2, 3):
        values = []
        for over in (CoeffRing.make(ring.q, 1, ring.modulus), ring):
            for _ in range(3):
                f = random_formal_element(ring, n, 2, rng)
                m = max(2, f.coordinate_bound())
                dg = (m - 1) * (m + 1) + 1
                low, box = exponents_below(n, m + 1)[1:], exponents_below(n, dg)[1:]
                chosen = rng.sample(low, min(5, len(low))) + rng.sample(box, min(20, len(box)))
                terms = {(0,) * n: 1, **{e: over.random_raw(rng) for e in chosen}}
                g = WittElement(TruncatedSeries(over, n, dg, terms))
                value = cartier_pair(f, g)
                assert geometric_pair(f, g, m) == value == pairing_via_components(f, g)
                values.append(value.raw)
        assert any(v != 1 for v in values)


@pytest.mark.parametrize("n", [1, 2])
def test_geometric_pair_refuses_a_short_g_against_one(n):
    """m + 1 > g.d is refused before the walk over shared parts, so also
    when f = 1 shares no part with g."""
    one = FormalWittElement(TruncatedSeries(R22, n, 1, {(0,) * n: 1}, exact=True))
    g = WittElement.binomial(F2, n, 4, (1,) * n, 1)
    with pytest.raises(InvalidTruncation, match="known to degree 5"):
        geometric_pair(one, g, 4)
    assert geometric_pair(one, g, 3).raw == 1


@pytest.mark.parametrize("d", [-1, 0, 8])
def test_component_pairing_refuses_a_level_outside_g_in_two_variables(d):
    f = formal(R22, {(1, 0): R22.eps_raw})
    g = WittElement.binomial(F2, 2, 7, (1, 0), 1)
    with pytest.raises(InvalidTruncation, match=r"need 1 <= d <= 7"):
        pairing_via_components(f, g, d)
    assert pairing_via_components(f, g, 7) == cartier_pair(f, g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_component_level_reads_g_below_it(n, rng):
    """At level d the component route reads only g's terms of total degree
    below d: the ceil(d / |nu|) terms of each part in s = t^nu."""
    ring, base = CoeffRing.make(3, nil=2), CoeffRing.make(3)
    for _ in range(4):
        f = random_formal_element(ring, n, 2, rng)
        g = random_witt_element(base, n, 7, rng)
        for d in range(1, g.d + 1):
            assert pairing_via_components(f, g, d) == pairing_via_components(f, g.truncate(d), d)


def test_one_variable_routes_read_only_the_terms_they_pair():
    """In one variable the geometric route reads g below m + 1 and the
    component route below d: neither peels g, which at d = 2 * 10^6 is
    past the peel's key bound."""
    f = formal(CoeffRing.make(3, nil=2), {(1,): CoeffRing.make(3, nil=2).eps_raw})
    g = WittElement.binomial(CoeffRing.make(3), 1, 2 * 10**6, (1,), 1)
    with pytest.raises(TooLarge):
        witt.witt_coordinates(g)
    low = g.truncate(5)
    assert geometric_pair(f, g, 3) == geometric_pair(f, low, 3) == cartier_pair(f, low, 3)
    assert pairing_via_components(f, g, 3) == pairing_via_components(f, low, 3) == cartier_pair(f, low, 3)


def sylvester_values(ring, f, g, m):
    """Res(rev g', f) at m and m + 1 by the Sylvester resultant, with g' the
    terms of g below the level, trimmed of its zero top coefficients."""
    values = []
    for level in (m, m + 1):
        gp = [g.get(k, 0) for k in range(level)]
        while gp[-1] == 0:
            gp.pop()
        rev = unipoly.UnivariatePolynomial(ring, reversed(gp))
        values.append(unipoly.resultant(rev, unipoly.UnivariatePolynomial(ring, f)).raw)
    return tuple(values)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_norms_match_the_sylvester_resultant(name, rng):
    """The geometric values, norms on R[x]/(rev f), are Res(rev g', f) at
    m and m + 1: for deg f = D from 1 to 7, m up to 64 and g over the ring
    and over its field, dense, with zero top coefficients (trimmed from
    g'), with only g_m past the constant, and the constant g' = 1."""
    ring = RINGS[name]
    for D in range(1, 8):
        for over in (ring, CoeffRing.make(ring.q, 1, ring.modulus)):
            for m in (1, 2, rng.randrange(3, 24), 64):
                f = [1] + [ring.random_raw(rng) for _ in range(D - 1)] + [rng.randrange(1, ring.size)]
                dense = {0: 1} | {k: over.random_raw(rng) for k in range(1, m + 1)}
                top_zero = {k: c for k, c in dense.items() if k < max(1, m - 3)}
                for g in (dense, top_zero, {0: 1, m: rng.randrange(1, over.size)}, {0: 1}):
                    got = duality._geometric_values(ring, dict(enumerate(f)), D, g, m)
                    assert got == sylvester_values(ring, f, g, m), (D, m, g)


def test_geometric_pair_reaches_m_of_ten_thousand():
    """At deg f = 4 over F_3[eps]/(eps^3) the geometric route pairs at
    m = 10^4, where the Sylvester size m + 3 was past SYLVESTER_LIMIT (the
    refusal past WORK_LIMIT is a site of tests/test_errors.py)."""
    ring, field = CoeffRing.make(3, nil=3), CoeffRing.make(3)
    eps = ring.eps_raw
    f = formal(ring, {(1,): eps, (2,): ring.rmul(eps, eps), (4,): eps})
    g = WittElement.binomial(field, 1, 10**4 + 1, (1,), 1)
    start = time.perf_counter()
    assert geometric_pair(f, g, 10**4) == cartier_pair(f, g, 10**4)
    assert time.perf_counter() - start < 1.0


def test_bilinearity(rng):
    ring = CoeffRing.make(4, nil=2)
    base = CoeffRing.make(4)
    for _ in range(40):
        f1 = random_formal_element(ring, 1, 2, rng)
        f2 = random_formal_element(ring, 1, 2, rng)
        g1 = random_witt_element(base, 1, 6, rng)
        g2 = random_witt_element(base, 1, 6, rng)
        assert cartier_pair(f1.mul(f2), g1) == cartier_pair(f1, g1) * cartier_pair(f2, g1)
        assert cartier_pair(f1, witt_add(g1, g2)) == cartier_pair(f1, g1) * cartier_pair(
            f1, g2
        )


def test_unstable_truncation_detected():
    eps = R22.eps_raw
    f = formal(R22, {(2,): eps})
    g = WittElement.binomial(F2, 1, 3, (1,), 1)
    with pytest.raises(UnstableTruncation):
        cartier_pair(f, g, d=1)
    with pytest.raises(UnstableTruncation):
        geometric_pair(f, g, 1)


def test_exact_coordinates_bounded():
    eps3 = R23.eps_raw
    f = FormalWittElement(
        TruncatedSeries(R23, 1, 3, {(0,): 1, (1,): eps3, (2,): eps3}, exact=True)
    )
    coords = f.exact_coordinates().coords
    assert max(k for (k,) in coords) <= f.degree * (R23.nil - 1)


def test_pairing_matrix_formula_entries():
    eps = R22.eps_raw
    fs = [formal(R22, {(i,): eps}) for i in (1, 2, 3)]
    gs = [WittElement.binomial(F2, 1, 6, (j,), 1) for j in (1, 2, 3)]
    matrix = pairing_matrix(fs, gs)
    from math import gcd

    for i, row in enumerate(matrix, start=1):
        for j, val in enumerate(row, start=1):
            g0 = gcd(i, j)
            # (1 - eps^(j/g) 1 t^(lcm))^g evaluated at 1, char 2
            if j // g0 == 1 and g0 % 2 == 1:
                assert val.raw == R22.radd(1, eps)
            else:
                assert val.raw == 1


def _coset_lifts(ring, d):
    """Canonical lifts of the group mod degree d: every coordinate family
    supported below d, rebuilt with zero tail at a larger truncation."""
    from itertools import product

    from multiwitt import WittCoordinates, from_coordinates

    lifts = []
    for combo in product(range(ring.size), repeat=d - 1):
        coords = {(k,): c for k, c in enumerate(combo, start=1) if c}
        lifts.append(from_coordinates(WittCoordinates(ring, 1, d + 2, coords)))
    return lifts


def _well_defined_on_quotient(fs, ring_base, d):
    # probes must kill every binomial supported at degree >= d
    for f in fs:
        for j in range(d, 2 * d + 1):
            g = WittElement.binomial(ring_base, 1, 2 * d + 3, (j,), 1)
            if cartier_pair(f, g).raw != 1:
                return False
    return True


def test_separation_needs_deeper_nilpotents():
    # with eps^2 = 0 even coordinates are invisible in characteristic 2
    lifts = _coset_lifts(F2, 3)
    fs2 = [formal(R22, {(i,): R22.eps_raw}) for i in (1, 2, 3)]
    assert not separates(fs2, lifts, d=3)

    eps = R23.eps_raw
    fs3 = [formal(R23, {(i,): eps}) for i in (1, 2)]
    assert separates(fs3, lifts, d=3)


def test_separation_full_groups():
    # probe exponents follow the conductor filtration: the probe must kill
    # every binomial supported at or beyond the quotient level
    eps = R23.eps_raw
    eps2 = R23.rmul(eps, eps)
    probe_sets = {
        3: [{(1,): eps}],
        4: [{(1,): eps}, {(3,): eps2}],
    }
    for d, probes in probe_sets.items():
        lifts = _coset_lifts(F2, d)
        assert len(lifts) == 2 ** (d - 1)
        fs = [formal(R23, terms) for terms in probes]
        assert _well_defined_on_quotient(fs, F2, d)
        assert separates(fs, lifts, d=d)


def _value_family(ring, keys, rng, nilpotent):
    draw = ring.random_nilpotent_raw if nilpotent else ring.random_raw
    return {k: draw(rng) for k in keys}


def test_pair_value_matches_binomial_product_oracle(any_ring, rng):
    """The product of the convolution binomials' values at t = 1 against
    the multiplied-out product polynomial, summed: the replaced
    binomial-product route, and the series product of the expanded
    binomial powers, which shares no convolution code with the library.
    Random families, with nilpotent and with arbitrary a_i."""
    for _ in range(12):
        fa = _value_family(any_ring, rng.sample(range(1, 7), rng.randrange(0, 4)), rng, rng.random() < 0.5)
        gb = _value_family(any_ring, rng.sample(range(1, 10), rng.randrange(0, 5)), rng, False)
        got = duality._component_pair_value(any_ring, fa, gb)
        assert got == pair_value_binomial_product(any_ring, fa, gb), (fa, gb)
        window = 2 + sum(fa) * sum(gb)
        assert got == eval_all_ones(mul_coordinate_families(any_ring, window, fa, gb)).raw


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q,e", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
def test_cartier_pair_matches_binomial_product_route(q, e, n, rng, monkeypatch):
    ring, base = CoeffRing.make(q, nil=e), CoeffRing.make(q)
    dg = 2 * (e - 1) + 3  # f of degree 2 has coordinates below 2 (e - 1) + 1
    cases = [(random_formal_element(ring, n, 2, rng), random_witt_element(base, n, dg, rng)) for _ in range(6)]
    got = [cartier_pair(f, g) for f, g in cases]
    monkeypatch.setattr(duality, "_component_pair_value", pair_value_binomial_product)
    assert [cartier_pair(f, g) for f, g in cases] == got


def test_separates_peels_each_argument_once(monkeypatch):
    """With g over the field part, ``separates`` peels each probe's exact
    coordinates and each element's coordinates once: len(fs) + len(gs)
    coordinate peels, counted at the peel's bound check."""
    eps = R23.eps_raw
    eps2 = R23.rmul(eps, eps)
    probes = [{(1,): eps}, {(3,): eps2}, {(2,): eps}, {(1,): eps2}, {(2,): eps2}]
    fs = [formal(R23, terms) for terms in probes]
    gs = _coset_lifts(F2, 4)[:7]
    peels = []
    check = witt.check_division
    monkeypatch.setattr(witt, "check_division", lambda *a: peels.append(a) or check(*a))
    assert separates(fs, gs, d=4)
    assert len(peels) == len(fs) + len(gs) == 12
    for f in fs:  # asked again, each probe answers from its cache
        f.exact_coordinates()
    assert len(peels) == 12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q,e", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
def test_one_pass_certificate_matches_two_level_oracle(q, e, n, rng):
    """At every level d below g's truncation, ``cartier_pair`` returns the
    oracle's value at d when the values at d and d + 1 agree, and raises
    UnstableTruncation exactly when they differ: on the pairing grid of
    ``test_cartier_pair_matches_binomial_product_route`` and on short g."""
    ring, base = CoeffRing.make(q, nil=e), CoeffRing.make(q)
    dg = 2 * (e - 1) + 3
    shapes = [dg] * 4 + [rng.randrange(2, 5) for _ in range(4)]
    outcomes = set()
    for dgi in shapes:
        f = random_formal_element(ring, n, 2, rng)
        g = random_witt_element(base, n, dgi, rng)
        for d in range(1, g.d):
            v1, v2 = cartier_pair_levels(f, g, d)
            if v1 == v2:
                assert cartier_pair(f, g, d).raw == v1, (f, g, d)
            else:
                with pytest.raises(UnstableTruncation):
                    cartier_pair(f, g, d)
            outcomes.add(v1 == v2)
    assert outcomes == {True, False}


def test_one_pass_certificate_on_the_unstable_example():
    # the shape of test_unstable_truncation_detected: 1 + eps t^2 against
    # 1 - t at d = 1 sees nothing, at d = 2 the coordinate of degree 2
    f = formal(R22, {(2,): R22.eps_raw})
    g = WittElement.binomial(F2, 1, 4, (1,), 1)
    assert cartier_pair_levels(f, g, 1) == (1, R22.radd(1, R22.eps_raw))
    with pytest.raises(UnstableTruncation):
        cartier_pair(f, g, d=1)
    assert cartier_pair(f, g, d=2).raw == R22.radd(1, R22.eps_raw)


@pytest.mark.parametrize("q,e", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_routes_read_g_over_the_field_as_over_the_ring(q, e, rng):
    """Each route gives the same value for g over F_q as for the same g
    over F_q[eps]/(eps^e)."""
    ring, base = CoeffRing.make(q, nil=e), CoeffRing.make(q)
    # in two variables, the shape of test_route_agreement_two_variables
    for n, dg in ((1, 2 * (e - 1) + 3), (2, 7)):
        for _ in range(5):
            f = random_formal_element(ring, n, 2, rng)
            g = random_witt_element(base, n, dg, rng)
            g_r = WittElement(TruncatedSeries(ring, n, dg, g.series.terms))
            assert cartier_pair(f, g) == cartier_pair(f, g_r)
            if n == 1 or e == 2:
                m = dg - 1 if n == 1 else 3
                assert geometric_pair(f, g, m) == geometric_pair(f, g_r, m)
            assert pairing_via_components(f, g) == pairing_via_components(f, g_r)


def test_routes_refuse_g_over_another_ring():
    f = formal(R23, {(1,): R23.eps_raw})
    for ring in (R22, CoeffRing.make(3), CoeffRing.make(4)):
        g = WittElement.binomial(ring, 1, 5, (1,), 1)
        for route in (cartier_pair, lambda f, g: geometric_pair(f, g, 3), pairing_via_components):
            with pytest.raises(ShapeMismatch, match="ring or its field part"):
                route(f, g)


@pytest.mark.parametrize(
    "f_terms,g_terms,g_d,m",
    [
        # bound 7 > g.d = 3: f's parts at (1, 2) and (1, 3) lie past g's reach
        ({(0, 1): 6, (1, 2): 2}, {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 0): 1}, 3, 2),
        # bound 3 < g.d = 6
        ({(1, 0): 6, (0, 1): 2}, {(1, 0): 1, (3, 0): 1, (2, 1): 1}, 6, 2),
    ],
    ids=["bound-above-g.d", "bound-below-g.d"],
)
def test_two_variable_routes_agree_across_truncations(f_terms, g_terms, g_d, m):
    """In two variables a packed key depends on d, and f's exact coordinates
    are keyed at ``coordinate_bound()`` while g's are at g.d.  With the two
    apart, either way, the algebraic route (which keys f's parts again at
    g.d), the geometric route and the two-level oracle, which matches
    exponent tuples, give the same value, and it is not 1.  The level is
    given: with g.d = 3 below C(f) = 7 the default level is refused."""
    f = formal(R23, f_terms)
    g = WittElement(TruncatedSeries(F2, 2, g_d, {(0, 0): 1, **g_terms}))
    assert f.coordinate_bound() != g.d
    value = cartier_pair(f, g, g.d - 1).raw
    assert value != 1
    assert geometric_pair(f, g, m).raw == value
    assert cartier_pair_levels(f, g, g.d - 1) == (value, value)
    if g.d < f.conductor():
        with pytest.raises(UnstableTruncation, match=r"C\(f\) = 7 .* \(g.d = 3\)"):
            cartier_pair(f, g)
    else:
        assert cartier_pair(f, g).raw == value


def test_formal_elements_over_different_rings_differ():
    # raw 3 is eps in both F_3[eps]/(eps^2) and F_3[eps]/(eps^3)
    R32, R33 = CoeffRing.make(3, nil=2), CoeffRing.make(3, nil=3)
    f2, f3 = formal(R32, {(1,): 3}), formal(R33, {(1,): 3})
    assert f2 != f3 and hash(f2) != hash(f3)
    assert unit_class(f2.series) != unit_class(f3.series)
    assert len({unit_class(f2.series), unit_class(f3.series)}) == 2
    # the truncation order is still ignored
    at_5 = FormalWittElement(TruncatedSeries(R32, 1, 5, {(0,): 1, (1,): 3}, exact=True))
    assert at_5 == f2 and hash(at_5) == hash(f2)


NILPOTENT_RINGS = sorted(name for name in RINGS if RINGS[name].nil >= 2)


def route_slot_pairs(f, g, d):
    """The slot pairs of the component route at level d: (j, v, w) with
    f's entries v and g's w read in f's ring, for every part both share."""
    for _, w, fp, gp in duality._shared_parts(f, g, elements=True):
        fam_f = pi_epsilon_inverse(WittElement(fp.series.extend(fp.coordinate_bound())))
        fam_g = pi_epsilon_inverse(gp.truncate(one_var_order(d, w)))
        for j, vf in fam_f.items():
            if j in fam_g:
                yield j, vf, PWittVector._make(vf.p, fam_g[j].entries, f.ring)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", NILPOTENT_RINGS)
def test_slot_value_matches_the_truncated_product_on_route_families(name, n, rng):
    """The slot value by bilinearity against ``pwitt_pair`` of the two
    vectors padded to the longer length, the W_m product the route used
    to take, and the route's value against the product of those slots
    twisted by -j: at every level 1..g.d, with g over the field and over
    the ring."""
    ring = RINGS[name]
    for over in (ring, CoeffRing.make(ring.q, 1, ring.modulus)):
        for _ in range(3):
            f = random_formal_element(ring, n, 3 if n == 1 else 2, rng)
            g = random_witt_element(over, n, rng.randrange(2, (10, 8, 6)[n - 1]), rng)
            for d in range(1, g.d + 1):
                want = ring.one
                for j, v, w in route_slot_pairs(f, g, d):
                    m = max(len(v), len(w))
                    value = pwitt_pair(v.pad(m), w.pad(m)).raw
                    assert duality._slot_value(ring, v.entries, w.entries) == value, (v, w)
                    want = ring.rmul(want, ring.rpow(value, -j))
                assert pairing_via_components(f, g, d).raw == want, (f, g, d)


@pytest.mark.parametrize("name", NILPOTENT_RINGS)
def test_f_family_entries_lie_in_the_weight_filtration(name, rng):
    """v_(j,i) in N^ceil(j p^i / D) for the family of each part of f, D
    the part's degree: the lemma on which the component route's
    truncation argument rests.  N^k holds the raws divisible by q^k, and
    only 0 once k >= nil, so the family is 0 from j p^i > D (nil - 1) on,
    and no entry is 0 only because it is past the family's length."""
    ring = RINGS[name]
    p, q = ring.p, ring.q
    for n in (1, 2):
        for _ in range(12):
            f = random_formal_element(ring, n, rng.randrange(1, 7 if n == 1 else 3), rng)
            g = WittElement(TruncatedSeries(ring, n, 12, {e: 1 for e in exponents_below(n, 12)}))
            for _, _, fp, _ in duality._shared_parts(f, g, elements=True):
                D = fp.degree
                bound = fp.coordinate_bound()
                family = pi_epsilon_inverse(WittElement(fp.series.extend(bound)))
                assert {j: len(v) for j, v in family.items()} == component_lengths(p, bound)
                for j, v in family.items():
                    for i, entry in enumerate(v.entries):
                        assert entry % q ** -(-j * p**i // D) == 0, (fp, j, i, entry)


def conductor_by_search(f) -> int:
    """C(f) by its definition: in each part of weight w, c_f - 1 is the
    largest j with (j/g) p^v < N_i for some i, g = gcd(i, j) = p^v m and
    N_i the least N with a_i^N = 0, searched over every j below i N_i."""
    ring, coords = f.ring, f.exact_coordinates()
    top = 0
    for nu, fa in group_by_primitive_tuples(coords.coords).items():
        for i, a in fa.items():
            index = next(k for k in range(1, ring.nil + 1) if ring.rpow(a, k) == 0)
            for j in range(1, i * index):
                g, u = gcd(i, j), j // gcd(i, j)
                while g % ring.p == 0:
                    g, u = g // ring.p, u * ring.p
                if u < index:
                    top = max(top, sum(nu) * j)
    return top + 1


@pytest.mark.parametrize("name", NILPOTENT_RINGS)
def test_conductor_is_at_most_the_coordinate_bound(name, rng):
    """C(f) <= ``coordinate_bound()`` on random f in one, two and three
    variables, and it is C(f) by its definition; it is computed once and
    kept, and C(1) = 1."""
    ring = RINGS[name]
    for n, degree in ((1, 6), (2, 3), (3, 2)):
        for _ in range(8):
            f = random_formal_element(ring, n, rng.randrange(1, degree + 1), rng)
            c = f.conductor()
            assert 1 <= c <= f.coordinate_bound(), f
            assert c == conductor_by_search(f), f
            assert f._conductor == c
    assert formal(ring, {}).conductor() == 1


def test_conductor_of_one_coordinate():
    """1 - eps t^2 over F_2[eps]/(eps^3): a_2 = eps has nilpotency index 3,
    and (j/g) 2^v < 3 holds for j = 4 (g = 2, 2 * 2 = 4, no) .. j = 3
    (g = 1, 3, no), j = 2 (g = 2, 1 * 2 = 2, yes): c_f - 1 = 2 at weight 1,
    so C(f) = 3 against the bound 2 * 2 + 1 = 5."""
    f = formal(R23, {(2,): R23.eps_raw})
    assert (f.conductor(), f.coordinate_bound()) == (3, 5)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", NILPOTENT_RINGS)
def test_every_level_from_the_conductor_gives_the_limit(name, n, rng):
    """From C(f) to g's truncation every level gives the limit, the
    two-level oracle's value at ``coordinate_bound()``, past which no
    coordinate of f is nonzero: ``cartier_pair`` at levels up to g.d - 1,
    ``pairing_via_components`` up to g.d, and both at the default level;
    at n = 1 also ``geometric_pair`` at levels up to g.d - 1; with g over
    the field and over the ring."""
    ring = RINGS[name]
    for over in (ring, CoeffRing.make(ring.q, 1, ring.modulus)):
        for _ in range(3):
            f = random_formal_element(ring, n, 3 if n == 1 else 2, rng)
            c, bound = f.conductor(), f.coordinate_bound()
            g = random_witt_element(over, n, bound + rng.randrange(1, 4), rng)
            limit, past = cartier_pair_levels(f, g, bound)
            assert limit == past
            for d in range(c, g.d):
                assert cartier_pair(f, g, d).raw == limit, (f, g, d)
            for d in range(c, g.d + 1):
                assert pairing_via_components(f, g, d).raw == limit, (f, g, d)
            assert cartier_pair(f, g).raw == pairing_via_components(f, g).raw == limit
            if n == 1:
                for m in range(c, g.d):
                    assert geometric_pair(f, g, m).raw == limit, (f, g, m)


def test_default_level_refuses_g_short_of_the_conductor(rng):
    """f of degree 2 over F_3[eps]/(eps^3) in two variables against g over
    F_3 with g.d in 3..7: without a level, ``cartier_pair`` and
    ``geometric_pair`` refuse when g.d < C(f), and
    ``pairing_via_components``, whose default level reads g below
    g.d - 1, when g.d - 1 < C(f); each names C(f) and g.d.  Many
    refused calls answered before, at the level g.d - 1 they defaulted to,
    and some of those answers are not the value of an element that
    agrees with g below g.d and carries coordinates up to C(f)."""
    ring, base = CoeffRing.make(3, nil=3), CoeffRing.make(3)
    answered = wrong = 0
    for _ in range(100):
        f = random_formal_element(ring, 2, 2, rng)
        g = random_witt_element(base, 2, rng.randrange(3, 8), rng)
        c = f.conductor()
        routes = ((cartier_pair, g.d), (geometric_pair, g.d), (pairing_via_components, g.d - 1))
        for route, reach in routes:
            if reach >= c:
                continue
            with pytest.raises(UnstableTruncation, match=rf"C\(f\) = {c} .*\(g.d = {g.d}\)"):
                route(f, g)
            if route is not cartier_pair:
                continue
            try:
                before = cartier_pair(f, g, g.d - 1)
            except UnstableTruncation:
                continue
            answered += 1
            # g's coordinates below g.d and random ones up to degree C(f) - 1
            coords = dict(witt_coordinates(g).coords)
            coords |= {e: rng.randrange(3) for e in exponents_below(2, c) if sum(e) >= g.d}
            longer = from_coordinates(WittCoordinates(base, 2, c + 1, coords))
            assert longer.truncate(g.d) == g
            wrong += cartier_pair(f, longer) != before
    assert answered >= 10 and wrong >= 5, (answered, wrong)


def outcome(route, f, g, level):
    """The raw value of a pairing, or the kind and message of its refusal."""
    try:
        return route(f, g, level).raw
    except WittError as exc:
        return type(exc).__name__, str(exc)


CUT_ROUTES = (
    (cartier_pair, pairing_oracle.cartier_pair),
    (geometric_pair, pairing_oracle.geometric_pair),
    (pairing_via_components, pairing_oracle.pairing_via_components),
)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", NILPOTENT_RINGS)
def test_routes_cut_at_the_conductor_match_the_whole_level_routes(name, n, rng):
    """Each route, run at min(level, C(f)) on g cut at the degree it reads,
    against the same route taken to the whole level: the same value at
    every level from C(f) to g's truncation, and below it, and the same
    refusal, kind and message, at every other level and at the default
    one.  g over the field and over the ring, long enough to reach past
    ``coordinate_bound()`` or short of C(f)."""
    ring = RINGS[name]
    past = refused = 0
    for over in (ring, CoeffRing.make(ring.q, 1, ring.modulus)):
        for dg in ("long", "long", "short"):
            f = random_formal_element(ring, n, 3 if n == 1 else 2, rng)
            c, bound = f.conductor(), f.coordinate_bound()
            top = bound + rng.randrange(1, 4) if dg == "long" else max(2, c - 1)
            g = random_witt_element(over, n, top, rng)
            for route, whole in CUT_ROUTES:
                for level in (None, *range(0, g.d + 2)):
                    got = outcome(route, f, g, level)
                    assert got == outcome(whole, f, g, level), (route.__name__, f, g, level)
                    refused += type(got) is tuple
                    past += level is not None and level >= c and type(got) is int
    assert past and refused, (past, refused)


def test_each_refusal_of_the_cut_routes_fires_as_before(rng):
    """On the inputs of the differential test above, every kind of refusal
    the whole-level routes make still fires: a level outside g, a part of
    g too short for m, the certificate one level up, and the default level
    short of C(f)."""
    ring, field = CoeffRing.make(3, nil=3), CoeffRing.make(3)
    seen = set()
    for n in (1, 2):
        for _ in range(12):
            f = random_formal_element(ring, n, 2, rng)
            g = random_witt_element(field, n, rng.randrange(2, f.coordinate_bound() + 3), rng)
            for route, whole in CUT_ROUTES:
                for level in (None, *range(0, g.d + 2)):
                    got = outcome(route, f, g, level)
                    assert got == outcome(whole, f, g, level), (route.__name__, f, g, level)
                    if type(got) is tuple:
                        kind, detail = got
                        seen.add((kind, detail.split()[0]))
    assert seen >= {
        ("InvalidTruncation", "need"),
        ("InvalidTruncation", "stability"),
        ("InvalidTruncation", "truncation"),
        ("InvalidTruncation", "component"),
        ("UnstableTruncation", "pairing"),
        ("UnstableTruncation", "the"),
    }, seen


def test_geometric_pair_of_a_two_term_g_at_m_of_a_billion():
    """The walk stops at C(f) = 9, so g = 1 - t at d = 10^9 + 1 against a
    degree-4 f over F_3[eps]/(eps^3) answers at m = 10^9, where the norms
    at m were refused past WORK_LIMIT; its value is the whole-level
    walk's at m = C(f) and the algebraic route's."""
    ring, field = CoeffRing.make(3, nil=3), CoeffRing.make(3)
    eps = ring.eps_raw
    f = formal(ring, {(1,): eps, (2,): ring.rmul(eps, eps), (4,): eps})
    g = WittElement(TruncatedSeries(field, 1, 10**9 + 1, {(0,): 1, (1,): field.rneg(1)}, exact=True))
    c = f.conductor()
    assert c == 9
    value = geometric_pair(f, g, 10**9)
    assert value == pairing_oracle.geometric_pair(f, g.truncate(c + 1), c)
    assert value == cartier_pair(f, g, 10**9) == geometric_pair(f, g) and value.raw != 1
    with pytest.raises(TooLarge, match="the norms at m = 1000000000"):
        pairing_oracle.geometric_pair(f, g, 10**9)


def test_default_routes_pair_a_long_dense_g_at_its_conductor(rng):
    """f = 1 + eps t + eps t^3 over F_3[eps]/(eps^2), C(f) = 2, against a
    dense g over F_3 at g.d = 20,000: the default algebraic and component
    routes answer, with their values on g cut at C(f) + 1; peeling the
    whole g, as the algebraic route did, is refused by the peel's meter."""
    ring, field = CoeffRing.make(3, nil=2), CoeffRing.make(3)
    f = formal(ring, {(1,): ring.eps_raw, (3,): ring.eps_raw})
    terms = {(k,): rng.randrange(3) for k in range(1, 20000)}
    g = WittElement(TruncatedSeries(field, 1, 20000, {(0,): 1, **terms}))
    c = f.conductor()
    assert c == 2
    low = g.truncate(c + 1)
    assert cartier_pair(f, g) == cartier_pair(f, low) == pairing_via_components(f, g)
    assert pairing_via_components(f, g) == pairing_via_components(f, low)

import itertools

import pytest
from conftest import RINGS
from det_oracle import (
    ExtensionBoundExceeded,
    _det_bird,
    _det_memo,
    base_embedding,
    roots_with_multiplicity,
)

from multiwitt import (
    CoeffRing,
    EmptyInput,
    ShapeMismatch,
    TooLarge,
    UnivariatePolynomial,
    resultant,
)
from multiwitt.errors import SchemaError
from multiwitt.unipoly import _det_chain, sylvester_matrix


def lin(ring, a_raw):
    # X - a
    return UnivariatePolynomial(ring, [ring.rneg(a_raw), 1])


def test_degree_one_resultant_evaluates(rng):
    F5 = CoeffRing.make(5)
    for _ in range(50):
        a = rng.randrange(5)
        f = UnivariatePolynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(2, 6))])
        if f.degree < 1:
            continue
        assert resultant(lin(F5, a), f) == f.evaluate(F5.from_raw(a))


def test_small_resultant_value():
    F5 = CoeffRing.make(5)
    a = UnivariatePolynomial(F5, [F5.rneg(1), 0, 1])  # x^2 - 1
    b = UnivariatePolynomial(F5, [F5.rneg(2), 1])  # x - 2
    assert resultant(a, b).raw == 3


def test_swap_symmetry(rng):
    F5 = CoeffRing.make(5)
    minus_one = F5.from_int(-1)
    for _ in range(60):
        a = UnivariatePolynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(2, 6))])
        b = UnivariatePolynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(2, 6))])
        if a.degree < 1 or b.degree < 1:
            continue
        assert resultant(a, b) == resultant(b, a) * minus_one ** (a.degree * b.degree)


def test_both_constants_rejected():
    F5 = CoeffRing.make(5)
    with pytest.raises(EmptyInput):
        resultant(UnivariatePolynomial(F5, [1]), UnivariatePolynomial(F5, [2]))


def test_constant_against_polynomial():
    F5 = CoeffRing.make(5)
    c = UnivariatePolynomial(F5, [3])
    f = UnivariatePolynomial(F5, [1, 2, 1])
    assert resultant(c, f).raw == F5.rpow(3, 2)
    assert resultant(f, c).raw == F5.rpow(3, 2)


def test_zero_polynomial_gives_zero():
    F5 = CoeffRing.make(5)
    z = UnivariatePolynomial(F5, [])
    f = UnivariatePolynomial(F5, [1, 1])
    assert resultant(z, f).raw == 0


def test_resultant_over_nilpotent_ring():
    R = CoeffRing.make(2, nil=2)
    eps = R.eps_raw
    a = UnivariatePolynomial(R, [R.radd(1, eps), 1])
    b = UnivariatePolynomial(R, [eps, 0, 1])
    # root of a is 1 + eps; b(1 + eps) = (1 + eps)^2 + eps = 1 + eps
    assert resultant(a, b).raw == R.radd(1, eps)


def test_double_root_multiplicity():
    F3 = CoeffRing.make(3)
    f = UnivariatePolynomial(F3, [1, 1, 1])  # (x - 1)^2 over F_3
    roots = roots_with_multiplicity(f, 2)
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 2 and root.raw == 1 and root.ring == F3


def test_roots_in_quadratic_extension():
    F3 = CoeffRing.make(3)
    f = UnivariatePolynomial(F3, [1, 0, 1])  # x^2 + 1
    roots = roots_with_multiplicity(f, 2)
    assert len(roots) == 2
    assert all(m == 1 and r.ring.q == 3**2 for r, m in roots)
    s = roots[0][0] + roots[1][0]
    p = roots[0][0] * roots[1][0]
    # F_3 is prime, so its elements embed as themselves
    assert s.raw == 0
    assert p.raw == 1


def test_roots_of_quadratic_over_f2():
    F2 = CoeffRing.make(2)
    f = UnivariatePolynomial(F2, [1, 1, 1])
    roots = roots_with_multiplicity(f, 2)
    assert len(roots) == 2 and all(r.ring.q == 2**2 for r, _ in roots)


def test_extension_bound_exceeded():
    F2 = CoeffRing.make(2)
    f = UnivariatePolynomial(F2, [1, 1, 0, 1])  # irreducible cubic
    with pytest.raises(ExtensionBoundExceeded):
        roots_with_multiplicity(f, 2)
    assert len(roots_with_multiplicity(f, 3)) == 3


def test_resultant_matches_root_product(rng):
    for q in (2, 3, 4, 5):
        ring = CoeffRing.make(q)
        for _ in range(30):
            roots = [rng.randrange(q) for _ in range(rng.randrange(1, 4))]
            lead = 1 + rng.randrange(q - 1) if q > 2 else 1
            a = UnivariatePolynomial(ring, [lead])
            for r in roots:
                a = a.mul(lin(ring, r))
            b = UnivariatePolynomial(ring, [rng.randrange(q) for _ in range(4)])
            if b.degree < 1:
                continue
            prod = ring.rpow(lead, b.degree)
            for r in roots:
                prod = ring.rmul(prod, b.evaluate(ring.from_raw(r)).raw)
            assert resultant(a, b).raw == prod


def test_split_polynomial_roots_cross_check(rng):
    F4 = CoeffRing.make(4)
    for _ in range(20):
        roots = [rng.randrange(4) for _ in range(3)]
        f = UnivariatePolynomial(F4, [1])
        for r in roots:
            f = f.mul(lin(F4, r))
        found = roots_with_multiplicity(f, 1)
        flat = []
        for r, m in found:
            assert r.ring == F4
            flat.extend([r.raw] * m)
        assert sorted(flat) == sorted(roots)


def _degree_over(x, q):
    # length of the orbit of x under y -> y^q, by plain powering
    k, y = 1, x**q
    while y != x:
        k, y = k + 1, y**q
    return k


def _pull_back(poly, emb):
    # coefficients of poly in F_(q^s) that lie in the embedded F_q, mapped back
    back = {v: b for b, v in enumerate(emb)}
    assert all(c in back for c in poly.coeffs), f"{poly} leaves the base field"
    return [back[c] for c in poly.coeffs]


def _check_embedding(base, field, emb):
    assert len(set(emb)) == base.q
    for a in base.element_indices():
        for b in base.element_indices():
            assert emb[base.radd(a, b)] == field.radd(emb[a], emb[b])
            assert emb[base.rmul(a, b)] == field.rmul(emb[a], emb[b])


def check_root_scan(f, max_ext):
    """(s, multiplicity) profile of f's roots, or None when the scan gives
    up; on success every root has degree s over F_q, and the roots of each
    degree multiply out to a factor over F_q of f / lc(f)."""
    ring, q = f.ring, f.ring.q
    try:
        roots = roots_with_multiplicity(f, max_ext)
    except ExtensionBoundExceeded:
        return None
    by_degree = {}
    for r, m in roots:
        s = 1
        while q**s < r.ring.q:
            s += 1
        assert r.ring.q == q**s and 1 <= s <= max_ext
        assert r.ring == ring or s > 1
        assert _degree_over(r, q) == s
        by_degree.setdefault(s, []).append((r, m))
    product = UnivariatePolynomial(ring, [1])
    for s, group in by_degree.items():
        field = group[0][0].ring
        emb = base_embedding(ring, field)
        _check_embedding(ring, field, emb)
        factor = UnivariatePolynomial(field, [1])
        for r, m in group:
            for _ in range(m):
                factor = factor.mul(lin(field, r.raw))
        product = product.mul(UnivariatePolynomial(ring, _pull_back(factor, emb)))
    lead_inv = ring.rinv(f.coeffs[-1])
    assert product == UnivariatePolynomial(ring, [ring.rmul(lead_inv, c) for c in f.coeffs])
    return sorted((s, m) for s, group in by_degree.items() for _, m in group)


@pytest.mark.parametrize("q", [2, 3])
def test_root_scan_exhaustive_to_degree_4(q):
    ring = CoeffRing.make(q)
    seen_degrees = set()
    for degree in range(5):
        for low in itertools.product(range(q), repeat=degree):
            f = UnivariatePolynomial(ring, list(low) + [1])
            # a factor of degree <= 4 splits in F_(q^4)
            full = check_root_scan(f, 4)
            assert full is not None
            top = max((s for s, _ in full), default=1)
            seen_degrees.add(top)
            for max_ext in (1, 2, 3):
                assert check_root_scan(f, max_ext) == (full if top <= max_ext else None)
    assert seen_degrees == {1, 2, 3, 4}


@pytest.mark.parametrize("q", [4, 8, 9])
def test_root_scan_random_over_non_prime_fields(q, rng):
    ring = CoeffRing.make(q)
    seen_degrees = set()
    for _ in range(25):
        degree = rng.randrange(1, 5)
        f = UnivariatePolynomial(
            ring, [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]
        )
        full = check_root_scan(f, 3)
        if full is None:
            continue
        top = max(s for s, _ in full)
        seen_degrees.add(top)
        for max_ext in (1, 2):
            assert check_root_scan(f, max_ext) == (full if top <= max_ext else None)
    assert {1, 2} <= seen_degrees


def test_root_scan_table_bound_reached_only_when_needed():
    F16 = CoeffRing.make(16)
    # a cubic without roots in F_16 is irreducible, so its roots lie in F_(16^3)
    cubic = next(
        f
        for f in (UnivariatePolynomial(F16, [c, 1, 0, 1]) for c in range(1, 16))
        if all(f.evaluate(x).raw for x in F16.elements())
    )
    with pytest.raises(ExtensionBoundExceeded):
        roots_with_multiplicity(cubic, 2)
    with pytest.raises(TooLarge):
        roots_with_multiplicity(cubic, 3)
    # a quadratic splitting in F_256 returns before the scan reaches 16^3
    quad = next(
        f
        for f in (UnivariatePolynomial(F16, [c, 1, 1]) for c in range(1, 16))
        if all(f.evaluate(x).raw for x in F16.elements())
    )
    roots = roots_with_multiplicity(quad, 10)
    assert [(r.ring.q, m) for r, m in roots] == [(256, 1), (256, 1)]


def random_poly(ring, degree, rng, unit_lead=False):
    # exact degree, so the Sylvester size is the sum of the degrees; a unit
    # leading coefficient keeps the degree of a product additive
    lead = rng.randrange(1, ring.size)
    while unit_lead and not ring.is_unit_raw(lead):
        lead = rng.randrange(1, ring.size)
    return UnivariatePolynomial(ring, [ring.random_raw(rng) for _ in range(degree)] + [lead])


def check_det(rows, ring):
    """The elimination's determinant, after checking it against both oracles."""
    det = _det_chain(rows, ring)
    assert det == _det_memo(rows, ring) == _det_bird(rows, ring)
    return det


# the test names predate the elimination; each now checks it and Bird's
# recurrence against the Laplace expansion
@pytest.mark.parametrize("name", sorted(RINGS))
def test_bird_matches_laplace_oracle(name, rng):
    ring = RINGS[name]
    for n in range(1, 11):
        for _ in range(3):
            full = [[ring.random_raw(rng) for _ in range(n)] for _ in range(n)]
            nilpotent = [[ring.random_nilpotent_raw(rng) for _ in range(n)] for _ in range(n)]
            # a repeated row makes the matrix singular over any commutative ring
            repeated = [list(r) for r in full]
            if n > 1:
                i, j = rng.sample(range(n), 2)
                repeated[j] = list(repeated[i])
            for rows in (full, nilpotent, repeated):
                check_det(rows, ring)
            if n > 1:
                assert _det_chain(repeated, ring) == 0
            assert ring.is_nilpotent_raw(_det_chain(nilpotent, ring))


@pytest.mark.parametrize("q, nil", [(5, 3), (2, 4)])
def test_bird_matches_laplace_oracle_on_sylvester(q, nil, rng):
    ring = CoeffRing.make(q, nil=nil)
    for size in range(2, 17):
        for _ in range(2):
            m = rng.randrange(1, size)
            rows = sylvester_matrix(random_poly(ring, m, rng), random_poly(ring, size - m, rng))
            assert len(rows) == size
            check_det(rows, ring)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_elimination_matches_both_oracles_on_sylvester(name, rng):
    ring = RINGS[name]
    for size in range(2, 13):
        m = rng.randrange(1, size)
        a, b = random_poly(ring, m, rng), random_poly(ring, size - m, rng)
        assert resultant(a, b).raw == check_det(sylvester_matrix(a, b), ring)


def unit(ring, rng):
    while True:
        a = rng.randrange(1, ring.size)
        if ring.is_unit_raw(a):
            return a


@pytest.mark.parametrize("name", sorted(RINGS))
def test_elimination_pivot_branches(name, rng):
    ring = RINGS[name]
    n = 6
    for _ in range(10):
        # an all-zero column: no pivot, determinant 0
        rows = [[ring.random_raw(rng) for _ in range(n)] for _ in range(n)]
        col = rng.randrange(n)
        for r in rows:
            r[col] = 0
        assert check_det(rows, ring) == 0

        # the only unit of column 0 is in the last row: one swap flips the sign
        rows = [[ring.random_raw(rng) for _ in range(n)] for _ in range(n)]
        for r in rows[:-1]:
            r[0] = ring.random_nilpotent_raw(rng)
        rows[-1][0] = unit(ring, rng)
        check_det(rows, ring)

        # a row that is a combination of two others turns zero midway
        rows = [[ring.random_raw(rng) for _ in range(n)] for _ in range(n)]
        c0, c1 = ring.random_raw(rng), ring.random_raw(rng)
        rows[3] = [ring.radd(ring.rmul(c0, x), ring.rmul(c1, y)) for x, y in zip(rows[0], rows[1])]
        assert check_det(rows, ring) == 0

        if ring.nil == 1:
            continue
        # column 0 holds no unit, and its least valuation, 1, sits below
        # row 0, whose entry has valuation nil - 1 (or is 0 when nil = 2)
        rows = [[ring.random_raw(rng) for _ in range(n)] for _ in range(n)]
        high = ring.rpow(ring.eps_raw, ring.nil - 1) if ring.nil > 2 else 0
        for r in rows:
            r[0] = ring.rmul(high, unit(ring, rng))
        rows[rng.randrange(1, n)][0] = ring.rmul(ring.eps_raw, unit(ring, rng))
        check_det(rows, ring)


def test_resultant_size_bounded_before_the_matrix(rng, monkeypatch):
    def refuse(a, b):
        raise AssertionError("Sylvester matrix built beyond the limit")

    monkeypatch.setattr("multiwitt.unipoly.sylvester_matrix", refuse)
    ring = CoeffRing.make(3, nil=2)
    a, b = random_poly(ring, 300, rng), random_poly(ring, 300, rng)
    with pytest.raises(TooLarge, match="size 600"):
        resultant(a, b)


def test_resultant_multiplicative_at_size_200(rng):
    ring = CoeffRing.make(3, nil=2)
    for _ in range(2):
        a = random_poly(ring, 100, rng)
        b1 = random_poly(ring, rng.randrange(45, 56), rng, unit_lead=True)
        b2 = random_poly(ring, 100 - b1.degree, rng, unit_lead=True)
        b = b1.mul(b2)
        assert a.degree + b.degree >= 200
        assert resultant(a, b) == resultant(a, b1) * resultant(a, b2)


def test_resultant_multiplicative_at_size_30(rng):
    ring = CoeffRing.make(3, nil=2)
    for _ in range(3):
        a = random_poly(ring, 10, rng)
        b1 = random_poly(ring, rng.randrange(9, 12), rng, unit_lead=True)
        b2 = random_poly(ring, rng.randrange(9, 12), rng, unit_lead=True)
        b = b1.mul(b2)
        assert a.degree + b.degree >= 28
        assert resultant(a, b) == resultant(a, b1) * resultant(a, b2)


def test_resultant_swap_at_size_30(rng):
    ring = CoeffRing.make(3, nil=2)
    minus_one = ring.from_int(-1)
    for _ in range(3):
        a = random_poly(ring, rng.randrange(13, 16), rng)
        b = random_poly(ring, rng.randrange(15, 18), rng)
        assert a.degree + b.degree >= 28
        assert resultant(a, b) == resultant(b, a) * minus_one ** (a.degree * b.degree)


@pytest.mark.parametrize("coeffs", [[-1, 1], [4, 1], [True, 1], [1.0, 1]])
def test_coefficients_outside_the_ring_are_refused(coeffs):
    F4 = CoeffRing.make(4)
    with pytest.raises(SchemaError, match=r"polynomial coefficient .* is not in range\(4\)"):
        UnivariatePolynomial(F4, coeffs)


def test_coefficients_of_another_ring_are_refused():
    F3, F5 = CoeffRing.make(3), CoeffRing.make(5)
    with pytest.raises(ShapeMismatch, match="belongs to another ring"):
        UnivariatePolynomial(F5, [F3.from_raw(2), F5.from_raw(1)])
    assert UnivariatePolynomial(F5, [F5.from_raw(2), 1]) == UnivariatePolynomial(F5, [2, 1])


def test_evaluation_at_an_element_of_another_ring_is_refused():
    F3, F5 = CoeffRing.make(3), CoeffRing.make(5)
    f = UnivariatePolynomial(F5, [1, 1])
    with pytest.raises(ShapeMismatch, match="evaluation point belongs to another ring"):
        f.evaluate(F3.from_raw(2))
    assert f.evaluate(F5.from_raw(2)) == F5.from_raw(3)

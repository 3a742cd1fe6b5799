import json

import pytest
import series_oracle

from multiwitt import (
    CoeffRing,
    NonUnitConstantTerm,
    NotExact,
    ShapeMismatch,
    TruncatedSeries,
)
from multiwitt.series import (
    exponents_below,
    grlex_key,
    pack_exponent,
    primitive_exponents_below,
    unpack_exponent,
)
from multiwitt.witt import WittCoordinates, from_coordinates, random_witt_element


def S(ring, n, d, terms, exact=False):
    return TruncatedSeries(ring, n, d, terms, exact)


def test_multiply_by_one(any_ring, rng):
    one = TruncatedSeries.one(any_ring, 2, 4)
    a = random_witt_element(any_ring, 2, 4, rng).series
    assert a.mul(one) == a


def test_difference_of_squares():
    R = CoeffRing.make(5)
    a = S(R, 1, 3, {(0,): 1, (1,): 1})
    b = S(R, 1, 3, {(0,): 1, (1,): R.rneg(1)})
    assert a.mul(b).terms == {(0,): 1, (2,): R.rneg(1)}


def test_truncation_drops_cross_term():
    R = CoeffRing.make(3)
    a = S(R, 2, 2, {(0, 0): 1, (1, 0): 1})
    b = S(R, 2, 2, {(0, 0): 1, (0, 1): 1})
    prod = a.mul(b)
    assert prod.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    assert not prod.exact


def test_shape_mismatch():
    R = CoeffRing.make(2)
    a = TruncatedSeries.one(R, 1, 3)
    b = TruncatedSeries.one(R, 1, 4)
    with pytest.raises(ShapeMismatch):
        a.mul(b)
    with pytest.raises(ShapeMismatch):
        a.mul(TruncatedSeries.one(R, 2, 3))


def test_negative_exponent_entry_rejected():
    F3 = CoeffRing.make(3)
    with pytest.raises(ShapeMismatch):
        TruncatedSeries(F3, 2, 5, {(0, 0): 1, (-1, 2): 1, (0, 1): 2})
    # a zero coefficient does not hide it
    with pytest.raises(ShapeMismatch):
        TruncatedSeries(F3, 2, 5, {(0, 0): 1, (-1, 2): 0})


def test_geometric_inverse():
    R = CoeffRing.make(5)
    m1 = R.rneg(1)
    a = S(R, 1, 4, {(0,): 1, (1,): 1})
    assert a.inv().terms == {(0,): 1, (1,): m1, (2,): 1, (3,): m1}
    assert TruncatedSeries.one(R, 1, 4).inv() == TruncatedSeries.one(R, 1, 4)


def test_two_variable_inverse_multiplies_back():
    R = CoeffRing.make(5)
    a = S(R, 2, 3, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    inv = a.inv()
    assert inv.terms == {
        (0, 0): 1,
        (1, 0): R.rneg(1),
        (0, 1): R.rneg(1),
        (2, 0): 1,
        (1, 1): 2,
        (0, 2): 1,
    }
    assert a.mul(inv) == TruncatedSeries.one(R, 2, 3)


def test_inverse_needs_unit_constant():
    R = CoeffRing.make(2, nil=2)
    with pytest.raises(NonUnitConstantTerm):
        S(R, 1, 3, {(0,): R.eps_raw}).inv()


def test_inverse_two_sided(any_ring, rng):
    for _ in range(25):
        a = random_witt_element(any_ring, 2, 4, rng).series
        one = TruncatedSeries.one(any_ring, 2, 4)
        assert a.mul(a.inv()) == one
        assert a.inv().mul(a) == one


def test_mul_associative_commutative(any_ring, rng):
    for _ in range(25):
        a = random_witt_element(any_ring, 1, 5, rng).series
        b = random_witt_element(any_ring, 1, 5, rng).series
        c = random_witt_element(any_ring, 1, 5, rng).series
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_truncation_commutes_with_mul_and_inv(any_ring, rng):
    for _ in range(20):
        a = random_witt_element(any_ring, 2, 5, rng).series
        b = random_witt_element(any_ring, 2, 5, rng).series
        for dd in (2, 3, 4):
            assert a.mul(b).truncate(dd) == a.truncate(dd).mul(b.truncate(dd))
            assert a.inv().truncate(dd) == a.truncate(dd).inv()


def test_eval_all_ones_examples():
    R = CoeffRing.make(2, nil=2)
    one = TruncatedSeries.one(R, 1, 2, exact=True)
    assert series_oracle.eval_all_ones(one).raw == 1

    s = S(R, 1, 2, {(0,): 1, (1,): R.eps_raw}, exact=True)
    assert series_oracle.eval_all_ones(s).raw == R.radd(1, R.eps_raw)

    R3 = CoeffRing.make(3, nil=3)
    e = R3.eps_raw
    e2 = R3.rmul(e, e)
    s3 = S(R3, 2, 3, {(0, 0): 1, (1, 0): e, (0, 1): e, (1, 1): e2}, exact=True)
    expected = R3.radd(R3.radd(1, R3.rmul(2, e)), e2)
    assert series_oracle.eval_all_ones(s3).raw == expected


def test_eval_requires_exact():
    R = CoeffRing.make(2)
    with pytest.raises(NotExact):
        series_oracle.eval_all_ones(TruncatedSeries.one(R, 1, 3, exact=False))


def test_exactness_survives_harmless_truncation():
    # products whose overflow coefficients vanish stay exact
    R = CoeffRing.make(2, nil=2)
    eps = R.eps_raw
    a = S(R, 1, 3, {(0,): 1, (2,): eps}, exact=True)
    b = S(R, 1, 3, {(0,): 1, (1,): eps}, exact=True)
    prod = a.mul(b)
    assert prod.exact  # eps^2 t^3 would overflow but is zero
    assert prod.terms == {(0,): 1, (1,): eps, (2,): eps}

    # a genuinely nonzero overflow clears the flag
    c = S(R, 1, 3, {(0,): 1, (2,): 1}, exact=True)
    assert not c.mul(b).exact


@pytest.mark.parametrize(
    "q,nil,d,exact",
    [(5, 1, 4, False), (2, 3, 2, False), (2, 2, 3, True)],
    ids=["1/(1+t)-F5-d4", "1/(1+eps*t)-F2e3-d2", "1/(1+eps*t)-F2e2-d3"],
)
def test_inverse_is_exact_only_when_it_is_a_polynomial(q, nil, d, exact):
    R = CoeffRing.make(q, nil=nil)
    a = S(R, 1, d, {(0,): 1, (1,): 1 if nil == 1 else R.eps_raw}, exact=True)
    inv = a.inv()
    assert inv.exact is exact
    if exact:  # carried two levels up, the product is still 1
        assert inv.extend(d + 2).mul(a.extend(d + 2)).terms == {(0,): 1}


def test_zero_coefficients_never_stored(any_ring, rng):
    for _ in range(20):
        a = random_witt_element(any_ring, 2, 4, rng).series
        b = random_witt_element(any_ring, 2, 4, rng).series
        assert all(v != 0 for v in a.mul(b).terms.values())


def random_series(ring, n, d, rng, unit_constant=False):
    terms = {}
    for e in exponents_below(n, d):
        if rng.random() < 0.5:
            terms[e] = rng.choice([ring.random_raw(rng), ring.random_nilpotent_raw(rng)])
    if unit_constant:
        c = 0
        while not ring.is_unit_raw(c):
            c = ring.random_raw(rng)
        terms[(0,) * n] = c
    return TruncatedSeries(ring, n, d, terms, exact=rng.random() < 0.5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_arithmetic_results_pass_the_public_checks(any_ring, n, rng):
    # mul, add_series, map_coefficients, truncate and inv build their
    # results without re-validation; the public constructor must accept
    # them as is
    for _ in range(15):
        d = rng.randrange(2, 6)
        a, b = random_series(any_ring, n, d, rng), random_series(any_ring, n, d, rng)
        shift = tuple(rng.randrange(2) for _ in range(n))
        raw = any_ring.random_raw(rng)
        results = [
            a.mul(b),
            a.mul(TruncatedSeries(any_ring, n, d, {shift: raw} if sum(shift) < d else {})),
            a.add_series(b),
            a.add_series(a.map_coefficients(any_ring.rneg)),
            a.truncate(rng.randrange(1, d + 1)),
            random_series(any_ring, n, d, rng, unit_constant=True).inv(),
        ]
        for r in results:
            checked = TruncatedSeries(r.ring, r.n, r.d, dict(r.terms), r.exact)
            assert (checked.terms, checked.exact) == (r.terms, r.exact)
    with pytest.raises(ShapeMismatch):
        TruncatedSeries(any_ring, n, d, {(1,) * (n + 1): 1})
    with pytest.raises(ShapeMismatch):
        TruncatedSeries(any_ring, n, d, {(-1,) + (1,) * (n - 1): 1})
    with pytest.raises(ValueError):
        a.truncate(0)


def test_grlex_enumeration_sorted():
    exps = exponents_below(3, 4)
    assert list(exps) == sorted(exps, key=grlex_key)
    assert exps[0] == (0, 0, 0)
    assert all(sum(e) < 4 for e in exps)


PACK_SHAPES = ((1, 9), (2, 6), (3, 5), (4, 4))


def test_packed_keys_follow_graded_order():
    for n, d in PACK_SHAPES:
        exps = exponents_below(n, d)
        keys = [pack_exponent(e, d) for e in exps]
        assert keys == sorted(set(keys))  # graded order, no two exponents share a key
        assert [k // d ** (n - 1) for k in keys] == [sum(e) for e in exps]
        assert [unpack_exponent(k, n, d) for k in keys] == list(exps)


def test_packed_keys_add_under_truncation():
    for n, d in PACK_SHAPES:
        exps = exponents_below(n, d)
        for a in exps:
            for b in exps:
                total = pack_exponent(a, d) + pack_exponent(b, d)
                # the overflow test: the key sum stays below d^n exactly
                # when the exponent sum stays below the truncation
                assert (total < d**n) == (sum(a) + sum(b) < d)
                if sum(a) + sum(b) < d:
                    assert total == pack_exponent(tuple(x + y for x, y in zip(a, b)), d)


def test_exponent_box_caches_are_bounded():
    for box in (exponents_below, primitive_exponents_below):
        assert box.cache_info().maxsize == 32
        for d in range(2, 40):
            box(1, d)
        assert box.cache_info().currsize <= 32


def test_json_roundtrip_byte_identical(any_ring, rng):
    for _ in range(10):
        a = random_witt_element(any_ring, 2, 4, rng).series
        blob = json.dumps(a.to_json_dict(), sort_keys=True, separators=(",", ":"))
        back = TruncatedSeries.from_json_dict(any_ring, json.loads(blob))
        blob2 = json.dumps(back.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert back == a and blob == blob2


def test_json_terms_in_graded_order(rng):
    R = CoeffRing.make(3)
    a = random_witt_element(R, 2, 5, rng).series
    doc = a.to_json_dict()
    keys = [tuple(t["exp"]) for t in doc["terms"]]
    assert keys == sorted(keys, key=grlex_key)


def series_strategy(ring, n, d):
    from hypothesis import strategies as st

    exps = [e for e in exponents_below(n, d) if sum(e) > 0]
    coeffs = st.lists(
        st.integers(0, ring.size - 1), min_size=len(exps), max_size=len(exps)
    )

    def build(cs):
        terms = {(0,) * n: 1}
        terms.update({e: c for e, c in zip(exps, cs) if c})
        return TruncatedSeries(ring, n, d, terms)

    return coeffs.map(build)


from hypothesis import given

_R4 = CoeffRing.make(4)


@given(series_strategy(_R4, 2, 4), series_strategy(_R4, 2, 4))
def test_mul_commutes_hypothesis(a, b):
    assert a.mul(b) == b.mul(a)


@given(series_strategy(_R4, 1, 6))
def test_inverse_hypothesis(a):
    assert a.mul(a.inv()) == TruncatedSeries.one(_R4, 1, 6)


def assert_matches_oracle(got, want):
    """``got`` holds the oracle's (terms, exact), and equals and hashes like
    the same terms passed through the public constructor."""
    terms, exact = want
    assert (got.terms, got.exact) == (terms, exact)
    rebuilt = TruncatedSeries(got.ring, got.n, got.d, terms, exact)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    assert got.to_json_dict() == rebuilt.to_json_dict()


# the largest d per n keeps the boxes small: 8, 21, 35 and 84 exponents
ORACLE_ORDERS = {1: 8, 2: 6, 3: 5, 6: 4}


@pytest.mark.parametrize("n", sorted(ORACLE_ORDERS))
def test_packed_kernel_matches_tuple_oracle(any_ring, n, rng):
    for _ in range(4):
        d = rng.randrange(2, ORACLE_ORDERS[n] + 1)
        a, b = random_series(any_ring, n, d, rng), random_series(any_ring, n, d, rng)
        for exact in (False, True):
            a = series_oracle.copy_with(a, exact=exact)
            b = series_oracle.copy_with(b, exact=rng.random() < 0.5 or exact)
            assert_matches_oracle(a.mul(b), series_oracle.mul(a, b))
            assert_matches_oracle(a.add_series(b), series_oracle.add_series(a, b))
            # a times a monomial below d is the tuple kernel's shift
            shift = tuple(rng.randrange(d) for _ in range(n))
            raw = any_ring.random_raw(rng)
            if sum(shift) < d:
                monomial = TruncatedSeries(any_ring, n, d, {shift: raw}, exact=True)
                assert_matches_oracle(a.mul(monomial), series_oracle.scale_shift(a, raw, shift))
            u = random_series(any_ring, n, d, rng, unit_constant=True)
            u = series_oracle.copy_with(u, exact=exact)
            assert_matches_oracle(u.inv(), series_oracle.inv(u))
            for d_new in range(1, d + 1):
                assert_matches_oracle(a.truncate(d_new), series_oracle.truncate(a, d_new))
        # a is exact here: carry it across d, and back when nothing was dropped
        for d_new in range(1, d + 3):
            moved = a.extend(d_new)
            assert_matches_oracle(moved, series_oracle.extend(a, d_new))
            if moved.exact:
                assert_matches_oracle(moved.extend(d), series_oracle.extend(moved, d))


def test_equal_series_hash_equal_however_built(rng):
    R = CoeffRing.make(3, nil=2)
    for n in (1, 2, 3):
        a = random_series(R, n, 4, rng, unit_constant=True)
        b = random_series(R, n, 4, rng, unit_constant=True)
        poly = series_oracle.copy_with(a, exact=True)
        built = {
            "mul": a.mul(b),
            "inv": a.inv(),
            "truncate": a.truncate(3),
            "extend": poly.extend(6),
            "extend, truncate": poly.extend(6).truncate(4),
        }
        for how, got in built.items():
            public = TruncatedSeries(R, n, got.d, dict(got.terms), got.exact)
            assert got == public and hash(got) == hash(public), (n, how)
            assert {got: how}[public] == how
        assert built["extend, truncate"] == poly and hash(built["extend, truncate"]) == hash(poly)


@pytest.mark.parametrize("n", sorted(ORACLE_ORDERS))
def test_division_kernel_matches_geometric_series_oracle(any_ring, n, rng):
    """``inv`` and ``a / b`` through the forward recurrence against the
    geometric-series inverse of the tuple oracle: the inverse with its exact
    flag, the quotient as a times that inverse, and the quotient times b
    is a again, on dense and sparse divisors."""
    for _ in range(4):
        d = rng.randrange(2, ORACLE_ORDERS[n] + 1)
        a = random_series(any_ring, n, d, rng)
        dense = random_series(any_ring, n, d, rng, unit_constant=True)
        sparse = _few_terms(any_ring, n, d, rng, unit_constant=True)
        for b in (dense, sparse):
            for exact in (False, True):
                a = series_oracle.copy_with(a, exact=exact)
                b = series_oracle.copy_with(b, exact=exact)
                inv_terms, inv_exact = series_oracle.inv(b)
                assert_matches_oracle(b.inv(), (inv_terms, inv_exact))
                inverse = TruncatedSeries(any_ring, n, d, inv_terms, inv_exact)
                quotient = a / b
                assert quotient.terms == series_oracle.mul(a, inverse)[0]
                assert quotient.mul(b) == a


def _few_terms(ring, n, d, rng, unit_constant=False):
    """Up to three terms, nilpotent ones more often than not, and a unit
    constant term when asked: the inputs whose products and inverses can be
    polynomials."""
    pool = exponents_below(n, d)[1:]
    terms = {}
    for e in rng.sample(pool, min(len(pool), rng.randrange(1, 4))):
        terms[e] = ring.random_nilpotent_raw(rng) if rng.random() < 0.7 else ring.random_raw(rng)
    c = ring.random_raw(rng)
    while unit_constant and not ring.is_unit_raw(c):
        c = ring.random_raw(rng)
    terms[(0,) * n] = c
    return TruncatedSeries(ring, n, d, terms, exact=True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_results_are_whole_polynomials(any_ring, n, rng):
    """An exact result is the complete polynomial: with its inputs carried
    to d + k, the same operation gives the result carried to d + k.  Checked
    on every operation that can flag its result exact, each of which must
    do so at least once here."""
    seen = set()
    for _ in range(12):
        d = rng.randrange(2, 5)
        a, b = _few_terms(any_ring, n, d, rng), _few_terms(any_ring, n, d, rng)
        u = _few_terms(any_ring, n, d, rng, unit_constant=True)
        # raw and shift are drawn only to keep the cases after them fixed
        raw, shift = any_ring.random_raw(rng), tuple(rng.randrange(2) for _ in range(n))
        d_low = rng.randrange(1, d + 1)
        unit = u.constant_raw
        coords = WittCoordinates(any_ring, n, d, {e: c for e, c in a.terms.items() if sum(e)})
        ops = {
            "mul": lambda D: a.extend(D).mul(b.extend(D)),
            "add_series": lambda D: a.extend(D).add_series(b.extend(D)),
            "inv": lambda D: u.extend(D).inv(),
            "div": lambda D: a.extend(D) / u.extend(D),
            # the truncation is the whole of a, or not exact
            "truncate": lambda D: a.extend(D) if D > d else a.truncate(d_low),
            "map_coefficients": lambda D: a.extend(D).map_coefficients(
                lambda c: any_ring.rmul(c, unit)
            ),
            "from_coordinates": lambda D: from_coordinates(
                WittCoordinates(any_ring, n, D, coords.coords)
            ).series,
        }
        for name, op in ops.items():
            got = op(d)
            if not got.exact:
                continue
            seen.add(name)
            for k in (1, 3):
                again = op(d + k)
                assert again == got.extend(d + k) and again.exact, (name, d, k)
    assert seen == set(ops)


@pytest.mark.parametrize("nilpotent", [False, True], ids=["1/(1+t)", "1/(1+eps*t)"])
def test_inverse_at_d2_over_F2e3_is_not_exact(nilpotent):
    """1/(1 + t) is no polynomial, and 1/(1 + eps t) = 1 - eps t + eps^2 t^2
    over F_2[eps]/(eps^3) has a term at degree 2: at d = 2 neither is exact,
    by ``inv`` or by division."""
    R = CoeffRing.make(2, nil=3)
    x = R.eps_raw if nilpotent else 1
    a = S(R, 1, 2, {(0,): 1, (1,): x}, exact=True)
    one = TruncatedSeries.one(R, 1, 2, exact=True)
    for inverse in (a.inv(), one / a):
        assert inverse.terms == {(0,): 1, (1,): R.rneg(x)} and not inverse.exact


@pytest.mark.parametrize("n", [1, 2, 3])
def test_division_by_a_constant_only_scales(any_ring, n, rng):
    """A divisor whose only term is its unit constant c pushes nothing:
    the quotient is c^-1 times the numerator, exact when both inputs are,
    and no degree is walked, so it answers at once even at d = 10^9."""
    d = 10**9
    c = any_ring.random_raw(rng)
    while not any_ring.is_unit_raw(c):
        c = any_ring.random_raw(rng)
    zero, top = (0,) * n, (d - 1,) + (0,) * (n - 1)
    a = S(any_ring, n, d, {zero: any_ring.one, top: any_ring.random_raw(rng) or c}, exact=True)
    b = S(any_ring, n, d, {zero: c}, exact=True)
    u = any_ring.rinv(c)
    assert b.inv().terms == {zero: u} and b.inv().exact
    quotient = a / b
    assert quotient.terms == {e: any_ring.rmul(u, v) for e, v in a.terms.items()}
    assert quotient.exact and not (a / series_oracle.copy_with(b, exact=False)).exact


def test_one_variable_primitive_exponents_build_no_box():
    """In one variable (1,) is the only primitive exponent: the family of
    primitive exponents equals the filtered box for small d and is built
    without a box at any d."""
    for d in range(1, 9):
        box = tuple(e for e in exponents_below(1, d) if sum(e) == 1)
        assert primitive_exponents_below(1, d) == box
    assert primitive_exponents_below(1, 10**9) == ((1,),)

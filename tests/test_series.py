import json
import random

import pytest
import series_oracle
from series_oracle import grlex_key

from multiwitt import (
    CoeffRing,
    NonUnitConstantTerm,
    NotExact,
    ShapeMismatch,
    TruncatedSeries,
)
from multiwitt import series
from multiwitt.errors import SchemaError, TooLarge
from multiwitt.series import (
    divide_keys,
    exponents_below,
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


# exponents outside a family in n = 2 variables at d = 4
MALFORMED = {
    "arity": (1, 1, 0),
    "negative": (-1, 2),
    "past-d": (3, 1),
    "zero-degree": (0, 0),  # a coordinate only: a series has a constant term
    "twice": (1, 1),  # listed twice: JSON only, a dict holds a key once
}
ROUTES = ("series", "coords", "series-json", "coords-json")


@pytest.mark.parametrize(
    "case, route, raw",
    [
        (case, route, raw)
        for case in MALFORMED
        for route in ROUTES
        for raw in (0, 2)
        if not (case == "zero-degree" and route.startswith("series"))
        and not (case == "twice" and not route.endswith("-json"))
    ],
)
def test_malformed_exponent_rejected_by_both_constructors_and_readers(case, route, raw):
    # checked whether its coefficient is zero or not
    F3, n, d = CoeffRing.make(3), 2, 4
    rows = [(MALFORMED[case], raw)] * (2 if case == "twice" else 1)
    series = route.startswith("series")
    if series:
        rows.insert(0, ((0, 0), 1))
    coef = "c" if series else "r"
    json_rows = [{"exp": list(e), coef: F3.raw_to_coords(c)} for e, c in rows]
    with pytest.raises(ShapeMismatch):
        if route == "series":
            TruncatedSeries(F3, n, d, dict(rows))
        elif route == "coords":
            WittCoordinates(F3, n, d, dict(rows))
        elif route == "series-json":
            TruncatedSeries.from_json_dict(F3, {"n": n, "d": d, "terms": json_rows})
        else:
            WittCoordinates.from_json_dict(F3, n, d, {"coords": json_rows})


@pytest.mark.parametrize("cls", [TruncatedSeries, WittCoordinates])
@pytest.mark.parametrize("raw", [-1, 2, 7, 1.0])
def test_raw_coefficient_outside_the_ring_rejected(cls, raw):
    # a negative raw would read the ring tables from their end
    F2 = CoeffRing.make(2)
    with pytest.raises(SchemaError):
        cls(F2, 1, 3, {(1,): raw})


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
    def dumps(x):
        return json.dumps(x.to_json_dict(), sort_keys=True, separators=(",", ":"))

    for n in (1, 2, 3):
        for _ in range(10):
            d = rng.randrange(1, 6)
            a = random_series(any_ring, n, d, rng)
            back = TruncatedSeries.from_json_dict(any_ring, json.loads(dumps(a)))
            assert back == a and back.exact == a.exact and dumps(back) == dumps(a)
            terms = random_series(any_ring, n, d, rng).terms
            c = WittCoordinates(any_ring, n, d, {e: r for e, r in terms.items() if any(e)})
            back = WittCoordinates.from_json_dict(any_ring, n, d, json.loads(dumps(c)))
            assert back == c and dumps(back) == dumps(c)


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


def rekeyed_through_tuples(a, d_new):
    """The keys of a's terms below d_new, each unpacked at a.d and packed
    at d_new, in a's key order, and the exact flag a rekey must carry."""
    pairs = ((unpack_exponent(k, a.n, a.d), c) for k, c in a.keys.items())
    keys = {pack_exponent(e, d_new): c for e, c in pairs if sum(e) < d_new}
    return list(keys.items()), a.exact and len(keys) == len(a.keys)


@pytest.mark.parametrize("density", ["dense", "sparse"])
def test_one_variable_rekey_keeps_keys_as_they_are(any_ring, density, rng):
    """At n = 1 ``truncate`` and ``extend`` keep the keys below the new
    order without unpacking them: the same keys, in the same order, and
    the same exact flag as the rekey through exponent tuples, for exact
    and inexact series, the order shrinking, unchanged and growing (the
    last for exact series only), keys inserted out of order."""
    for _ in range(6):
        d = rng.randrange(2, 40)
        degrees = list(range(d)) if density == "dense" else rng.sample(range(d), min(d, 4))
        rng.shuffle(degrees)
        terms = {(k,): any_ring.random_raw(rng) for k in degrees}
        for exact in (False, True):
            a = TruncatedSeries(any_ring, 1, d, terms, exact)
            for d_new in sorted({1, rng.randrange(1, d), d - 1, d, d + 1, 2 * d + 5} - {0}):
                moved = [a.extend(d_new)] if exact else []
                if d_new <= d:
                    moved.append(a.truncate(d_new))
                for got in moved:
                    assert (list(got.keys.items()), got.exact) == rekeyed_through_tuples(a, d_new)
                    assert got.d == d_new and (got is a) == (d_new == d)


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


def _one_push_oracle(a, b):
    """a / b by the tuple oracle's geometric-series inverse of b, and
    whether the quotient times b, multiplied out without truncation, has a
    nonzero term at degree d or more.  With one non-constant divisor term
    t^nu, the pushes past d land on distinct exponents e + nu, so that is
    whether a nonzero push fell past d."""
    ring, n, d = a.ring, a.n, a.d
    inverse, _ = series_oracle.inv(b)
    quotient, _ = series_oracle.mul(a, S(ring, n, d, inverse))
    wide = 2 * d
    product, _ = series_oracle.mul(S(ring, n, wide, quotient), series_oracle.copy_with(b, d=wide))
    return quotient, any(sum(e) >= d for e in product)


def _unit(ring, rng):
    c = ring.random_raw(rng)
    while not ring.is_unit_raw(c):
        c = ring.random_raw(rng)
    return c


def _one_push_cases(ring, n, rng):
    """(a, b) with b = b_0 + b_nu t^nu, b_0 = 1 and a unit other than 1 (if
    the ring has one) in turn: random numerators at orders up to
    ORACLE_ORDERS[n], and at d = 7 numerators built to end chains early:

    * a push that vanishes mid-chain (nilpotent rings): 1 - eps t^nu makes
      eps^k at k nu until eps^k = 0, and an original key after that point
      must still be read;
    * a remainder that cancels: the key nu of a is minus the push it gets,
      so the division deletes it, and an original key at 2 nu follows;
    * keys at or past stop, of degree d - |nu| or more: one takes its push
      from a key |nu| below it, and another sits at degree d - 1."""
    units = [ring.one] + [c for c in range(2, ring.size) if ring.is_unit_raw(c)][:1]
    zero = (0,) * n
    for u0 in units:
        for _ in range(3):
            d = rng.randrange(2, ORACLE_ORDERS[n] + 1)
            nu = rng.choice(exponents_below(n, d)[1:])
            b = S(ring, n, d, {zero: u0, nu: ring.random_raw(rng) or ring.one})
            yield random_series(ring, n, d, rng), b
        d = 7
        nu = tuple(rng.randrange(2) for _ in range(n - 1)) + (1,)
        nu = nu if sum(nu) <= 2 else (0,) * (n - 1) + (1,)
        w = sum(nu)
        times = lambda k: tuple(k * v for v in nu)  # noqa: E731
        bk = ring.random_raw(rng) or ring.one
        inv0 = ring.rinv(u0)
        if ring.nil > 1:
            b = S(ring, n, d, {zero: u0, nu: ring.rneg(ring.eps_raw)})
            a = {zero: _unit(ring, rng), times(3): ring.random_raw(rng) or ring.one}
            yield S(ring, n, d, a), b
        b = S(ring, n, d, {zero: u0, nu: bk})
        a0 = _unit(ring, rng)
        # rem[nu] after its push is a[nu] - b_nu * q[0], q[0] = a0 / b_0
        cancel = ring.rmul(bk, ring.rmul(inv0, a0))
        a = {zero: a0, nu: cancel, times(2): ring.random_raw(rng) or ring.one}
        yield S(ring, n, d, a), b
        top = (0,) * (n - 1) + (d - 1,)
        low = (0,) * (n - 1) + (d - 2 * w,)
        high = tuple(x + y for x, y in zip(low, nu))
        a = {low: _unit(ring, rng), high: ring.random_raw(rng)}
        a[top] = ring.random_raw(rng) or ring.one
        yield S(ring, n, d, a), b


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_one_push_division_matches_tuple_oracle(any_ring, n, rng):
    """A divisor b_0 + b_nu t^nu takes the one-push walk of ``divide_keys``:
    with and without ``track``, its quotient is a times the oracle's
    geometric-series inverse, and the flag it returns with ``track`` is
    whether the untruncated quotient times b has a term at degree d or
    more.  Each case runs on the kernel directly and through ``a / b``."""
    for a, b in _one_push_cases(any_ring, n, rng):
        quotient, past = _one_push_oracle(a, b)
        for track in (False, True):
            rem = dict(a.keys)
            dropped = divide_keys(any_ring, n, a.d, rem, dict(b.keys), track)
            got = {unpack_exponent(k, n, a.d): c for k, c in rem.items()}
            assert got == quotient, (a, b, track)
            assert dropped == (track and past), (a, b, track)
            both = series_oracle.copy_with(a, exact=track), series_oracle.copy_with(b, exact=track)
            assert_matches_oracle(both[0] / both[1], (quotient, track and not past))


def _heap_oracle(a, b):
    """a / b by the tuple oracle's geometric-series inverse of b, and
    whether a nonzero product of a quotient term and a divisor term falls
    at degree d or more: the pushes past d, which can land on one exponent
    and cancel once several divisor terms are pushed."""
    ring, n, d = a.ring, a.n, a.d
    inverse, _ = series_oracle.inv(b)
    quotient, _ = series_oracle.mul(a, S(ring, n, d, inverse))
    exact_b = series_oracle.copy_with(b, exact=True)
    _, kept = series_oracle.mul(S(ring, n, d, quotient, True), exact_b)
    return quotient, not kept


def _heap_cases(ring, n, rng):
    """(a, b) with at least two non-constant divisor terms, b_0 = 1 and a
    unit other than 1 (if the ring has one) in turn: dense and sparse
    divisors against random numerators at orders up to ORACLE_ORDERS[n],
    and at d = 7, with nu = t_n and b = b_0 + b_1 t^nu + b_2 t^(2 nu)
    (b_1 a unit, plus a term at t_1 when n > 1):

    * a key that cancels and is created again: a = a_0 + a_2 t^(2 nu) with
      a_2 = b_0^-1 b_2 a_0, so the push from 0 cancels 2 nu, and the push
      from nu, which 0 created, makes it nonzero again; it must be read
      once, and a walk that reads it twice pushes its term twice;
    * keys at or past stop, of degree d - 1, which push nothing below d:
      (d - 1) nu takes pushes from (d - 2) nu and (d - 3) nu, and
      (d - 1) t_1 sits there too."""
    units = [ring.one] + [c for c in range(2, ring.size) if ring.is_unit_raw(c)][:1]
    zero = (0,) * n
    nu = (0,) * (n - 1) + (1,)
    times = lambda k: tuple(k * v for v in nu)  # noqa: E731
    for u0 in units:
        for _ in range(2):
            d = rng.randrange(3, ORACLE_ORDERS[n] + 1)
            dense = random_series(ring, n, d, rng).terms
            pool = exponents_below(n, d)[1:]
            sparse = {e: ring.random_raw(rng) or ring.one for e in rng.sample(pool, 2)}
            for b in (dense, sparse):
                b = dict(b)
                b[zero] = u0
                if len(b) > 2:
                    yield random_series(ring, n, d, rng), S(ring, n, d, b)
        d, b1 = 7, _unit(ring, rng)
        b = {zero: u0, nu: b1, times(2): ring.random_raw(rng) or ring.one}
        if n > 1:
            b[(1,) + (0,) * (n - 1)] = ring.random_raw(rng) or ring.one
        a0 = _unit(ring, rng)
        a = {zero: a0, times(2): ring.rmul(ring.rmul(ring.rinv(u0), b[times(2)]), a0)}
        yield S(ring, n, d, a), S(ring, n, d, b)
        a = {times(d - 3): _unit(ring, rng), times(d - 2): ring.random_raw(rng)}
        a[times(d - 1)] = ring.random_raw(rng) or ring.one
        a[(d - 1,) + (0,) * (n - 1)] = ring.random_raw(rng) or ring.one
        yield S(ring, n, d, a), S(ring, n, d, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heap_division_matches_tuple_oracle(any_ring, n, rng):
    """A divisor with several non-constant terms takes the heap walk of
    ``divide_keys``: with and without ``track``, its quotient is a times
    the oracle's geometric-series inverse, and the flag it returns with
    ``track`` is whether a nonzero push fell at degree d or more.  Each
    case runs on the kernel directly and through ``a / b``."""
    for a, b in _heap_cases(any_ring, n, rng):
        quotient, past = _heap_oracle(a, b)
        for track in (False, True):
            rem = dict(a.keys)
            dropped = divide_keys(any_ring, n, a.d, rem, dict(b.keys), track)
            got = {unpack_exponent(k, n, a.d): c for k, c in rem.items()}
            assert got == quotient, (a, b, track)
            assert dropped == (track and past), (a, b, track)
            both = series_oracle.copy_with(a, exact=track), series_oracle.copy_with(b, exact=track)
            assert_matches_oracle(both[0] / both[1], (quotient, track and not past))


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


def test_truncate_refuses_a_larger_order_and_extend_an_inexact_series():
    R = CoeffRing.make(3)
    a = S(R, 2, 3, {(0, 0): 1, (1, 0): 2})
    with pytest.raises(ShapeMismatch, match="cannot extend a truncated series"):
        a.truncate(4)
    with pytest.raises(NotExact, match="only exact series"):
        a.extend(4)
    assert a.truncate(3) is a and a.truncate(2) == S(R, 2, 2, {(0, 0): 1, (1, 0): 2})


def test_dense_inverse_at_d_1300_is_admitted():
    """A dense series over F_3 at d = 1,300 has 881 terms: its inverse may
    make 1,301 * 881 = 1,146,181 steps, within errors.WORK_LIMIT (a
    division was once refused past 10^6 pushes, keys times divisor terms),
    and times the series it is 1 by the tuple oracle's product."""
    F3 = CoeffRing.make(3)
    rng = random.Random(1300)
    terms = {(k,): rng.randrange(3) for k in range(1300)} | {(0,): rng.randrange(1, 3)}
    a = TruncatedSeries(F3, 1, 1300, terms)
    assert len(a.keys) == 881
    assert series_oracle.mul(a, a.inv()) == ({(0,): 1}, False)


def test_product_driver_takes_the_closer_bounds_only_where_needed(monkeypatch):
    """The product driver unpacks every factor for its closer bounds only
    past the crude work bound or when the window has more than KEYS_LIMIT
    exponents.  Few coordinates at n = 3, d = 16 (816 exponents) take the
    crude bound.  20 coordinates at t^(2^i), i < 20, at d = 2^20 + 1 take
    the closer ones, 2^20 - 1 steps and 2^20 keys, and are refused (a site
    of test_errors.py)."""
    F3, bounds = CoeffRing.make(3), []
    bound = series._product_bound

    def spy(*args):
        bounds.append(bound(*args))
        return bounds[-1]

    monkeypatch.setattr(series, "_product_bound", spy)
    from_coordinates(WittCoordinates(F3, 3, 16, {(1, 0, 0): 1, (0, 2, 1): 2, (3, 3, 3): 1}))
    assert not bounds
    with pytest.raises(TooLarge, match="may hold 1048576 keys"):
        from_coordinates(WittCoordinates(F3, 1, 2**20 + 1, {(2**i,): 1 for i in range(20)}))
    assert bounds == [(2**20 - 1, 2**20)]

import copy
import json
import pickle
from fractions import Fraction
from functools import lru_cache

import pytest
from conftest import RINGS
from hypothesis import given, strategies as st
from ring_oracle import DigitLoopRing

from multiwitt import (
    AbelianGroupStructure,
    CoeffRing,
    GhostVector,
    LangCensus,
    ModulusGroupDesc,
    NonUnit,
    PWittVector,
    RingElement,
    ShapeMismatch,
    TooLarge,
    TruncatedSeries,
    UnitClass,
    UnivariatePolynomial,
    WittCoordinates,
    WittElement,
    unit_class,
    witt_coordinates,
)
from multiwitt.errors import SchemaError


def test_char_two_addition():
    R = CoeffRing.make(2)
    one = R.from_int(1)
    assert (one + one).is_zero


def test_dual_number_inverse():
    R = CoeffRing.make(2, nil=2)
    a = R.from_int(1) + R.eps()
    assert a.inv() == a
    assert (a * a) == R.from_int(1)


def test_f4_generator_square():
    F4 = CoeffRing.make(4)
    x = F4.gen()
    assert x * x == x + F4.from_int(1)


def test_inverse_of_nonunit_raises():
    R = CoeffRing.make(3, nil=2)
    with pytest.raises(NonUnit):
        R.eps().inv()


def test_unit_and_nilpotent_predicates():
    R = CoeffRing.make(2, nil=3)
    eps = R.eps()
    assert eps.is_nilpotent and not eps.is_unit
    u = R.from_int(1) + eps
    assert u.is_unit and not u.is_nilpotent
    assert (eps * eps * eps).is_zero


def test_frobenius_examples():
    F2 = CoeffRing.make(2)
    assert F2.from_int(1).frobenius(2) == F2.from_int(1)

    F4 = CoeffRing.make(4)
    alpha = F4.gen()
    assert alpha.frobenius(2) == alpha + F4.from_int(1)

    R = CoeffRing.make(2, nil=2)
    assert R.eps().frobenius(2).is_zero


def test_frobenius_fixes_prime_subfield(any_ring):
    q = any_ring.q
    for c in range(any_ring.p):
        a = any_ring.from_int(c)
        assert a.frobenius(q) == a


def test_pow_including_negative():
    F5 = CoeffRing.make(5)
    a = F5.from_int(2)
    assert a**4 == F5.from_int(1)
    assert a**-1 == F5.from_int(3)


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_ring_axioms_all_rings(x, y, z):
    for R in (CoeffRing.make(4, nil=2), CoeffRing.make(3, nil=3), CoeffRing.make(5)):
        a, b, c = (R.from_raw(v % R.size) for v in (x, y, z))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == R.from_raw(0)


def test_ring_axioms_thousand_cases(any_ring, rng):
    radd, rmul = any_ring.radd, any_ring.rmul
    for _ in range(1000):
        a, b, c = (any_ring.random_raw(rng) for _ in range(3))
        assert radd(radd(a, b), c) == radd(a, radd(b, c))
        assert rmul(rmul(a, b), c) == rmul(a, rmul(b, c))
        assert radd(a, b) == radd(b, a)
        assert rmul(a, b) == rmul(b, a)
        assert rmul(a, radd(b, c)) == radd(rmul(a, b), rmul(a, c))


def test_every_unit_inverts(any_ring):
    one = any_ring.one
    for a in any_ring.element_indices():
        if any_ring.is_unit_raw(a):
            assert any_ring.rmul(a, any_ring.rinv(a)) == one
        else:
            with pytest.raises(NonUnit):
                any_ring.rinv(a)


def test_frobenius_is_ring_hom(any_ring, rng):
    q = any_ring.q
    for _ in range(60):
        a = any_ring.from_raw(any_ring.random_raw(rng))
        b = any_ring.from_raw(any_ring.random_raw(rng))
        assert (a + b).frobenius(q) == a.frobenius(q) + b.frobenius(q)
        assert (a * b).frobenius(q) == a.frobenius(q) * b.frobenius(q)


def test_builtin_moduli_are_irreducible():
    from multiwitt.ring import _check_irreducible

    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27):
        F = CoeffRing.make(q)
        assert F.q == F.p**F.e == q and len(F.modulus) == F.e + 1
        _check_irreducible(F.modulus, F.p)


def test_default_moduli_are_pinned():
    # the first monic irreducible in index order, ascending coefficients
    moduli = {
        2: (0, 1),
        3: (0, 1),
        5: (0, 1),
        4: (1, 1, 1),
        9: (1, 0, 1),
        25: (2, 0, 1),
        8: (1, 1, 0, 1),
        27: (1, 2, 0, 1),
        16: (1, 1, 0, 0, 1),
    }
    for q, modulus in moduli.items():
        assert CoeffRing.make(q).modulus == modulus, q


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        # x^2 + 1 = (x+1)^2 over F_2
        CoeffRing.from_json_dict({"p": 2, "e": 2, "modulus": [1, 0, 1]})
    with pytest.raises(ValueError):
        CoeffRing.from_json_dict({"p": 4, "e": 1, "modulus": [0, 1]})  # 4 is not prime


def test_user_supplied_modulus():
    F = CoeffRing.make(9, modulus=[2, 2, 1])  # x^2 + 2x + 2, irreducible over F_3
    a = F.gen()
    assert a * a == -(a + a) - F.from_int(2)


def test_json_roundtrip(any_ring):
    blob = json.dumps(any_ring.to_json_dict(), sort_keys=True)
    back = CoeffRing.from_json_dict(json.loads(blob))
    assert back == any_ring
    el = any_ring.from_raw(any_ring.size - 1)
    assert any_ring.element(el.coords) == el


@pytest.mark.parametrize("raw", [-1, 4, 7, True, 1.0, "1"])
def test_from_raw_refuses_values_outside_the_ring(raw):
    F4 = CoeffRing.make(4)
    with pytest.raises(SchemaError, match=r"raw element .* is not in range\(4\)"):
        F4.from_raw(raw)
    assert [F4.from_raw(a).raw for a in range(4)] == [0, 1, 2, 3]


def test_operands_of_another_ring_are_a_shape_mismatch():
    F3, F5 = CoeffRing.make(3), CoeffRing.make(5)
    a, b = F3.from_raw(1), F5.from_raw(1)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a + 1):
        with pytest.raises(ShapeMismatch, match="is not an element of this ring"):
            op()
    assert a + F3.from_raw(1) == F3.from_raw(2)


def test_coords_matrix_shape():
    R = CoeffRing.make(4, nil=2)
    el = R.gen() + R.eps()
    m = el.coords
    assert len(m) == 2 and all(len(row) == 2 for row in m)
    assert m[0] == [0, 1] and m[1] == [1, 0]


# every test ring, F_5[eps]/eps^3 (125 elements) and F_2[eps]/eps^4
ORACLE_RINGS = {**RINGS, "F5e3": CoeffRing.make(5, nil=3), "F2e4": CoeffRing.make(2, nil=4)}


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_tables_match_digit_loop_oracle(name):
    R = ORACLE_RINGS[name]
    oracle = DigitLoopRing(R)
    for a in R.element_indices():
        for b in R.element_indices():
            assert R.radd(a, b) == oracle.radd(a, b)
            assert R.rsub(a, b) == oracle.rsub(a, b)
            assert R.rmul(a, b) == oracle.rmul(a, b)
        assert R.rneg(a) == oracle.rneg(a)
        assert R.rfrob_p(a) == oracle.rfrob_p(a)
        if R.is_unit_raw(a):
            assert R.rinv(a) == oracle.rinv(a)
        else:
            with pytest.raises(NonUnit):
                R.rinv(a)
            with pytest.raises(NonUnit):
                oracle.rinv(a)


def test_coordinate_rows_match_digit_loop(any_ring):
    oracle = DigitLoopRing(any_ring)
    for a in any_ring.element_indices():
        rows = any_ring.raw_to_coords(a)
        assert rows == oracle.raw_to_coords(a)
        # the caller owns the lists: changing them leaves the ring's table alone
        rows[0][0] += 1
        rows.append([])
        assert any_ring.raw_to_coords(a) == oracle.raw_to_coords(a)
        assert any_ring.coords_to_raw(any_ring.raw_to_coords(a)) == a


def _unit_class(ring, d, terms):
    return unit_class(TruncatedSeries(ring, 1, d, terms, exact=True))


F4 = CoeffRing.make(4)
F3E2 = CoeffRing.make(3, nil=2)
# 1 + eps t, also as the class of 2 + 2 eps t at another truncation, and 1 + eps t^2
UNIT = _unit_class(F3E2, 2, {(0,): 1, (1,): 3})
UNIT_SCALED = _unit_class(F3E2, 5, {(0,): 2, (1,): 6})
UNIT_OTHER = _unit_class(F3E2, 3, {(0,): 1, (2,): 3})

# constructor, its arguments, arguments of an equal value written
# differently, arguments of a different value, and a field.  A ring is
# built past make's cache by the Record constructor, so that an equal
# ring is another object.
VALUE_CLASSES = [
    (CoeffRing._make, (3, 1, (0, 1), 2), (3, 1, (0, 1), 2), (3, 1, (0, 1), 1), "nil"),
    (AbelianGroupStructure, ((2, 4), 8), ((2, 4), 8, lambda: ("w",)), ((8,), 8), "order"),
    (ModulusGroupDesc, (2, 3, 4, AbelianGroupStructure((2, 2), 4)),
     (2, 3, 4, AbelianGroupStructure((2, 2), 4, lambda: ("w",))),
     (2, 3, 4, AbelianGroupStructure((4,), 4)), "structure"),
    (LangCensus, (16, 4, 4, 256, True), (16, 4, 4, 256, True), (16, 4, 4, 256, False), "kernel"),
    (GhostVector, (2, (1, 2)), (2, (1, 2)), (2, (1, 3)), "entries"),
    (RingElement, (F4, 2), (CoeffRing.make(4, modulus=[1, 1, 1]), 2), (F4, 3), "raw"),
    (PWittVector, (2, [2, 0], F4), (2, (F4.from_raw(2), 0), CoeffRing.make(4)), (2, [2, 1], F4),
     "entries"),
    (PWittVector, (3, [1, 2]), (3, (Fraction(2, 2), 2.0), None), (3, [1, Fraction(1, 2)]),
     "entries"),
    (UnivariatePolynomial, (F4, [1, 2]), (F4, (F4.from_raw(1), 2, 0, 0)), (F4, [1, 3]), "coeffs"),
    (UnitClass, (UNIT.representative,), (UNIT_SCALED.representative,),
     (UNIT_OTHER.representative,), "representative"),
]


@pytest.mark.parametrize(
    "cls, args, same, other, field",
    VALUE_CLASSES,
    ids=[getattr(case[0], "__self__", case[0]).__name__ for case in VALUE_CLASSES],
)
def test_value_classes_compare_and_hash_by_fields(cls, args, same, other, field):
    a, b, c = cls(*args), cls(*same), cls(*other)
    assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != c and not a == c
    assert a != tuple(args) and a != object()
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(c, field))
    with pytest.raises(AttributeError):
        a.unknown = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) == getattr(b, field)


def test_value_keys_cannot_be_changed_in_place():
    x = F4.from_raw(2)
    table = {x: "x", UNIT: "unit"}
    with pytest.raises(AttributeError):
        x.raw = 3
    assert table[F4.from_raw(2)] == "x" and table[UNIT_SCALED] == "unit"
    with pytest.raises(TypeError, match=r"RingElement takes the fields \('ring', 'raw'\)"):
        RingElement(F4)


def test_equal_coordinate_families_hash_equal():
    element = WittElement(TruncatedSeries(F4, 2, 4, {(0, 0): 1, (1, 0): 2, (1, 1): 3}))
    peeled = witt_coordinates(element)
    built = WittCoordinates(F4, 2, 4, dict(peeled.coords))
    assert peeled is not built and peeled == built and hash(peeled) == hash(built)
    assert len({peeled, built}) == 1 and {peeled: 1}[built] == 1
    other = WittCoordinates(F4, 2, 4, {(1, 0): 2})
    assert other != peeled and other in {other, peeled}


def test_value_class_defaults_and_lazy_witnesses():
    assert CoeffRing.make(2).nil == 1
    assert AbelianGroupStructure((), 1) == AbelianGroupStructure((), 1)
    assert AbelianGroupStructure((), 1).witnesses == ()
    built = []
    s = AbelianGroupStructure((3,), 3, lambda: built.append(1) or ("g",))
    assert built == [] and s.witnesses == ("g",) and s.witnesses == ("g",) and built == [1]
    R = CoeffRing.make(9, nil=2)
    assert (R.p, R.e, R.q, R.size) == (3, 2, 9, 81)


def test_equal_rings_share_one_cache_entry():
    calls = []

    @lru_cache(maxsize=None)
    def size_of(ring):
        calls.append(ring)
        return ring.size

    # an equal ring that is another object, past make's cache
    made, built = CoeffRing.make(3, nil=2), CoeffRing._make(3, 1, (0, 1), 2)
    assert size_of(made) == size_of(built) == 9
    assert size_of(CoeffRing.make(3)) == 3
    assert len(calls) == 2


def test_ring_size_bound():
    with pytest.raises(TooLarge, match=r"q\^nil = 4096 elements, beyond limit 2048$"):
        CoeffRing.make(2, nil=12)
    with pytest.raises(TooLarge):
        CoeffRing.make(3, nil=10**9)


def test_field_order_bounded_before_factoring(monkeypatch):
    def no_scan(*_):
        raise AssertionError("q was factored or a modulus searched for")

    monkeypatch.setattr("multiwitt.ring._is_prime", no_scan)
    monkeypatch.setattr("multiwitt.ring._find_irreducible", no_scan)
    # 2^61 - 1 is prime: trial division would not reach its smallest factor
    sizes = ((4096, "4096"), (2**1000, r"at least 2\^1000"), (2**61 - 1, r"at least 2\^60"))
    for q, shown in sizes:
        with pytest.raises(TooLarge, match=rf"q = {shown} elements, beyond limit 2048$"):
            CoeffRing.make(q)
    with pytest.raises(TooLarge):
        CoeffRing.make(2**61 - 1, modulus=[0, 1])
    with pytest.raises(TooLarge, match=r"2\^1000000\b"):
        CoeffRing.from_json_dict({"p": 2, "e": 10**6, "modulus": [0, 1]})
    with pytest.raises(TooLarge, match=r"p\^e = at least 2\^60 elements, beyond limit 2048$"):
        CoeffRing.from_json_dict({"p": 2**61 - 1, "e": 1, "modulus": [0, 1]})
    # too many digits for str(): the message names the size as a power of two
    with pytest.raises(TooLarge, match=r"at least 2\^100000\b"):
        CoeffRing.make(2**100000)


def test_table_cache_is_bounded():
    """The made rings, which alone hold their tables, stay cached 32 at a
    time: a ring evicted by 46 newer ones is built again, equal and new."""
    from multiwitt.ring import _is_prime, _made_ring

    assert _made_ring.cache_info().maxsize == 32
    first = CoeffRing.make(2)
    primes = [p for p in range(2, 200) if _is_prime(p)]
    assert len(primes) > 32
    for p in primes:
        assert CoeffRing.make(p).rmul(p - 1, p - 1) == 1
    assert _made_ring.cache_info().currsize <= 32
    again = CoeffRing.make(2)
    assert again == first and again is not first and again is CoeffRing.make(2)


def test_make_returns_one_object_per_descriptor():
    assert CoeffRing.make(4) is CoeffRing.make(4)
    assert CoeffRing.make(4, modulus=[1, 1, 1]) is CoeffRing.make(4, modulus=(1, 1, 1))
    # the default modulus of F_4, and x + 3 = x over F_3
    assert CoeffRing.make(4, modulus=(1, 1, 1)) is CoeffRing.make(4)
    assert CoeffRing.make(3, modulus=(3, 1)) is CoeffRing.make(3)
    assert CoeffRing.make(3) is CoeffRing.make(3, nil=1)
    assert CoeffRing.make(3, nil=2) is CoeffRing.make(3, 2) is not CoeffRing.make(3)


def test_every_way_to_a_ring_shares_the_made_tables():
    ring = CoeffRing.make(9, nil=2)
    assert CoeffRing.make(ring.q, 1, ring.modulus) is CoeffRing.make(9)
    ways = (
        CoeffRing.from_json_dict(ring.to_json_dict()),
        pickle.loads(pickle.dumps(ring)),
        copy.deepcopy(ring),
        copy.copy(ring),
    )
    assert all(other is ring for other in ways)
    with pytest.raises(TypeError, match=r"made by CoeffRing\.make"):
        CoeffRing(3, 2, (2, 2, 1), 2)


def test_a_cached_descriptor_is_read_without_a_check(monkeypatch):
    ring = CoeffRing.make(9, nil=2, modulus=[2, 2, 1])
    tested = []
    monkeypatch.setattr("multiwitt.ring._check_irreducible", lambda *args: tested.append(args))
    blob = {"p": 3, "e": 2, "modulus": [2, 2, 1], "nil": 2}
    assert CoeffRing.from_json_dict(blob) is ring and tested == []


def test_a_modulus_is_tested_once_per_miss(monkeypatch):
    """A miss on the default modulus tests the modulus the search found
    once, in the search, and a miss on an unreduced modulus tests the
    reduced one once.  No other test makes a ring over F_49."""
    from multiwitt import ring as ring_module

    real, tested = ring_module._check_irreducible, []

    def spy(modulus, p):
        tested.append(modulus)
        return real(modulus, p)

    monkeypatch.setattr(ring_module, "_check_irreducible", spy)
    ring_module._find_irreducible.cache_clear()  # a memo of the search, no ring
    misses = ring_module._made_ring.cache_info().misses
    assert CoeffRing.make(49).modulus == (1, 0, 1)
    assert tested == [(0, 0, 1), (1, 0, 1)]  # x^2 has the root 0
    tested.clear()
    # x^2 + x + 3 over F_7, given unreduced
    assert CoeffRing.make(49, modulus=[10, 8, 8]) is CoeffRing.make(49, modulus=[3, 1, 1])
    assert tested == [(3, 1, 1)]
    assert ring_module._made_ring.cache_info().misses == misses + 4


@pytest.mark.parametrize(
    "args, error, match",
    [
        ((4, 1, [1, 0, 1]), SchemaError, "modulus has root 1 mod 2"),
        ((8, 1, [1, 0, 1, 1, 1]), SchemaError, "modulus degree does not match q"),
        ((6,), SchemaError, "6 is not a prime power"),
        ((2, 12), TooLarge, r"q\^nil = 4096 elements, beyond limit 2048$"),
        ((3, 0), SchemaError, "nilpotency order must be >= 1"),
    ],
    ids=["reducible", "degree", "q", "q^nil", "nil"],
)
def test_a_failed_make_is_checked_again_and_never_cached(args, error, match):
    from multiwitt.ring import _made_ring

    before = _made_ring.cache_info()
    for _ in range(2):
        with pytest.raises(error, match=match):
            CoeffRing.make(*args)
    after = _made_ring.cache_info()
    assert after.hits == before.hits and after.misses > before.misses
    assert after.currsize == before.currsize


@pytest.mark.parametrize(
    "descriptor, error, match",
    [
        ({"p": 4, "e": 6, "modulus": [0, 1]}, TooLarge, r"p\^e = 4096 elements"),
        ({"p": 4, "e": 1, "modulus": [0, 2]}, SchemaError, "^4 is not prime$"),
        ({"p": 2, "e": 2, "modulus": [1, 0, 1, 1], "nil": 0}, SchemaError, "degree does not"),
        ({"p": 2, "e": 2, "modulus": [1, 1, 2], "nil": 0}, SchemaError, "must be monic"),
        ({"p": 2, "e": 2, "modulus": [1, 0, 1], "nil": 0}, SchemaError, "has root 1 mod 2"),
        ({"p": 2, "e": 1, "modulus": [0, 1], "nil": 0}, SchemaError, "nilpotency order"),
        ({"p": 2, "e": 1, "modulus": [0, 1], "nil": 12}, TooLarge, r"q\^nil = 4096"),
    ],
    ids=["p^e", "prime", "degree", "monic", "irreducible", "nil", "q^nil"],
)
def test_descriptor_refusals_keep_their_order(descriptor, error, match):
    """Each descriptor is faulty from its row's check on, so each check
    must run before every later one: the table bound before primality,
    then degree and monic, irreducibility, nil and the ring's size."""
    with pytest.raises(error, match=match):
        CoeffRing.from_json_dict(descriptor)

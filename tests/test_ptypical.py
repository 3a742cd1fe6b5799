import time
from fractions import Fraction

import pytest

from multiwitt import (
    CoeffRing,
    GhostVector,
    NonIntegral,
    NotNilpotent,
    PWittVector,
    ShapeMismatch,
    artin_hasse_coefficients,
    artin_hasse_exp,
    component_lengths,
    from_ghost,
    ghost,
    integer_pwitt,
    pi_epsilon,
    pi_epsilon_inverse,
    pwitt_add,
    pwitt_mul,
    pwitt_pair,
    witt_add,
    witt_mul,
)
from multiwitt import ptypical
from multiwitt.errors import SchemaError, TooLarge
from multiwitt.series import TruncatedSeries
from multiwitt.duality import random_formal_element
from multiwitt.witt import WittElement, enumerate_witt_elements, random_witt_element

from conftest import RINGS
from law_oracle import (
    _lift_mul,
    artin_hasse_by_exp_log,
    law_op,
    lift_op,
    pi_epsilon_inverse_per_factor,
    pi_epsilon_per_factor,
    reduce_fraction,
)


def test_ghost_definition():
    v = PWittVector(2, [Fraction(3), Fraction(5)])
    assert ghost(v).entries == (Fraction(3), Fraction(19))
    z = PWittVector(3, [0, 0, 0])
    assert ghost(z).entries == (0, 0, 0)


def test_ghost_roundtrip_random(rng):
    for p in (2, 3, 5):
        for _ in range(40):
            v = PWittVector(
                p,
                [Fraction(rng.randrange(-20, 20), rng.randrange(1, 7)) for _ in range(4)],
            )
            assert from_ghost(ghost(v)) == v


def test_sum_example_over_f2():
    F2 = CoeffRing.make(2)
    a = PWittVector(2, [1, 0], F2)
    assert pwitt_add(a, a).entries == (0, 1)


def test_identities(any_ring):
    p = any_ring.p
    v = PWittVector(p, [any_ring.random_raw(__import__("random").Random(3)) for _ in range(3)], any_ring)
    assert pwitt_add(v, PWittVector.zero(p, 3, any_ring)) == v
    assert pwitt_mul(v, PWittVector.one(p, 3, any_ring)) == v


# longest vectors the symbolic oracle builds in reasonable time
ORACLE_LENGTH = {2: 4, 3: 3, 5: 2}


def test_ghost_lift_laws_match_symbolic_oracle(any_ring, rng):
    p = any_ring.p
    for m in range(1, ORACLE_LENGTH[p] + 1):
        for _ in range(30):
            v = PWittVector(p, [any_ring.random_raw(rng) for _ in range(m)], any_ring)
            w = PWittVector(p, [any_ring.random_raw(rng) for _ in range(m)], any_ring)
            assert pwitt_add(v, w) == law_op(v, w, "sum")
            assert pwitt_mul(v, w) == law_op(v, w, "prod")


# a ring of 512 elements with e = 3, and lengths up to 8 at p = 2, where
# a slot holds the most bits
PACKED_RINGS = {**RINGS, "F8e3": CoeffRing.make(8, nil=3)}


def _random_vector(ring, m, rng, nilpotent=False):
    draw = ring.random_nilpotent_raw if nilpotent else ring.random_raw
    return PWittVector(ring.p, [draw(rng) for _ in range(m)], ring)


@pytest.mark.parametrize("name", sorted(PACKED_RINGS))
def test_packed_law_matches_list_form_and_symbolic_oracles(name, rng):
    ring = PACKED_RINGS[name]
    p = ring.p
    for m in [1, 2, 3, 4, 5] + ([8] if p == 2 else []):
        for _ in range(10):
            v, w = _random_vector(ring, m, rng), _random_vector(ring, m, rng)
            for kind, op in (("sum", pwitt_add), ("prod", pwitt_mul)):
                got = op(v, w)
                assert got == lift_op(v, w, kind), (kind, v, w)
                if m <= ORACLE_LENGTH[p]:
                    assert got == law_op(v, w, kind), (kind, v, w)
            if ring.nil > 1:
                nv = _random_vector(ring, m, rng, nilpotent=True)
                expected = ring.one
                for entry in lift_op(nv, w, "prod").entries:
                    expected = ring.rmul(expected, ptypical.ah_value(ring, entry))
                assert pwitt_pair(nv, w).raw == expected


@pytest.mark.parametrize("name", sorted(PACKED_RINGS))
def test_packed_product_of_largest_digits_matches_list_form(name):
    # every digit p^m - 1 fills each product slot to its bound nil*e*(p^m-1)^2
    ring = PACKED_RINGS[name]
    e, nil = ring.e, ring.nil
    for m in (2, 5, 8):
        law, mod = ptypical._lift_law(ring, m), ring.p**m
        top = [[mod - 1] * e for _ in range(nil)]
        packed = sum(mod - 1 << shift for shift in law.shifts)
        got = law._mul(packed, packed)
        digits = [got >> shift & law.mask for shift in law.shifts]
        assert digits == [c for row in _lift_mul(top, top, ring, mod) for c in row]


def test_solve_back_refuses_ghosts_of_no_vector():
    law = ptypical._LiftLaw(RINGS["F3"], 2)
    law.ladders[1] = [1, 2]  # 1^3 lifted as 2, so the ghosts of (1, 0) are wrong
    with pytest.raises(NonIntegral, match="prod law entry 1 is not divisible by 3"):
        law.op((1, 0), (1, 0), "prod")


def test_ring_laws_over_extension(rng):
    R = CoeffRing.make(4, nil=2)
    for _ in range(25):
        v = PWittVector(2, [R.random_raw(rng) for _ in range(3)], R)
        w = PWittVector(2, [R.random_raw(rng) for _ in range(3)], R)
        u = PWittVector(2, [R.random_raw(rng) for _ in range(3)], R)
        assert pwitt_add(v, w) == pwitt_add(w, v)
        assert pwitt_mul(v, w) == pwitt_mul(w, v)
        assert pwitt_add(pwitt_add(v, w), u) == pwitt_add(v, pwitt_add(w, u))
        assert pwitt_mul(pwitt_mul(v, w), u) == pwitt_mul(v, pwitt_mul(w, u))
        lhs = pwitt_mul(v, pwitt_add(w, u))
        assert lhs == pwitt_add(pwitt_mul(v, w), pwitt_mul(v, u))


def test_ghost_map_is_ring_hom(rng):
    for p in (2, 3):
        for _ in range(40):
            v = PWittVector(p, [Fraction(rng.randrange(-9, 9)) for _ in range(3)])
            w = PWittVector(p, [Fraction(rng.randrange(-9, 9)) for _ in range(3)])
            gv, gw = ghost(v).entries, ghost(w).entries
            assert ghost(pwitt_add(v, w)).entries == tuple(a + b for a, b in zip(gv, gw))
            assert ghost(pwitt_mul(v, w)).entries == tuple(a * b for a, b in zip(gv, gw))


def test_artin_hasse_leading_terms():
    for p in (2, 3, 5):
        c = artin_hasse_coefficients(p, 2)
        assert c[0] == 1 and c[1] == 1
    assert artin_hasse_coefficients(2, 3)[2] == 1


def test_artin_hasse_integrality_window():
    for p in (2, 3, 5):
        for c in artin_hasse_coefficients(p, 16):
            assert c.denominator % p != 0


def test_artin_hasse_exp_examples():
    F3 = CoeffRing.make(3)
    assert artin_hasse_exp(F3.from_int(0), 1, 6) == WittElement.one(F3, 1, 6)

    x = F3.from_int(2)
    e = artin_hasse_exp(x, 1, 2)
    assert e.series.terms == {(0,): 1, (1,): 2}

    F2 = CoeffRing.make(2)
    e2 = artin_hasse_exp(F2.from_int(1), 1, 3)
    assert e2.series.terms == {(0,): 1, (1,): 1, (2,): 1}


def test_component_lengths():
    assert component_lengths(2, 8) == {1: 3, 3: 2, 5: 1, 7: 1}
    assert component_lengths(3, 8) == {1: 2, 2: 2, 4: 1, 5: 1, 7: 1}


def test_pi_epsilon_examples():
    F3 = CoeffRing.make(3)
    v = PWittVector(3, [2, 0], F3)
    assert pi_epsilon({1: v}, F3, 6) == artin_hasse_exp(F3.from_int(2), 1, 6)
    assert pi_epsilon({}, F3, 6) == WittElement.one(F3, 1, 6)


def test_pi_epsilon_roundtrip_exhaustive():
    F2 = CoeffRing.make(2)
    for d in range(2, 9):
        for el in enumerate_witt_elements(F2, 1, d):
            fam = pi_epsilon_inverse(el)
            assert pi_epsilon(fam, F2, d) == el
            for j, v in fam.items():
                assert len(v) == component_lengths(2, d)[j]


def sparse_element(ring, d, rng):
    """1 plus a few terms below d / 3 + 2, each coefficient a unit or a
    nonzero nilpotent: few keys, long gaps, and products of factors that
    land below d."""
    units = [r for r in range(1, ring.size) if ring.is_unit_raw(r)]
    nilpotents = [r for r in range(1, ring.size) if not ring.is_unit_raw(r)]
    keys = {0: ring.one}
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice([units, nilpotents]) if nilpotents else units
        keys[rng.randrange(1, d // 3 + 2)] = rng.choice(kind)
    return WittElement(TruncatedSeries._make(ring, 1, d, keys, False))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_factor_maps_match_per_factor_oracle(name, rng):
    """``pi_epsilon`` multiplies every Artin-Hasse factor into one dict and
    ``pi_epsilon_inverse`` peels one dict by each factor in place: both
    against the oracle's series per factor, on random elements (dense, so
    the divisions are multi-term), on sparse ones (a few keys, unit and
    nilpotent, up to d = 200, where the peel's heap walk jumps the gaps)
    and on random families, whose vectors run one entry past the window
    and have zeros and missing indices."""
    ring = RINGS[name]
    p = ring.p
    for d in (2, 3, 7, 12, 30):
        for _ in range(3):
            a = random_witt_element(ring, 1, d, rng)
            assert pi_epsilon_inverse(a) == pi_epsilon_inverse_per_factor(a), (a,)
            family = {}
            for j, m in component_lengths(p, d).items():
                if rng.random() < 0.8:
                    entries = [rng.choice((0, ring.random_raw(rng))) for _ in range(m + 1)]
                    family[j] = PWittVector(p, entries, ring)
            got, want = pi_epsilon(family, ring, d), pi_epsilon_per_factor(family, ring, d)
            assert got == want and got.series.exact is want.series.exact is False, family
    for d in (5, 40, 200):
        for _ in range(4):
            a = sparse_element(ring, d, rng)
            assert pi_epsilon_inverse(a) == pi_epsilon_inverse_per_factor(a), (a,)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_component_entries_are_the_nonzero_components(name, rng):
    """The pairing route reads the peel's entries, ``_component_entries``:
    exactly the components of ``pi_epsilon_inverse`` that are not 0, each
    at its full length, on units (g-like: random elements, dense and
    sparse) and, over rings with nilpotents, on f-like elements (exact
    polynomials with nilpotent coefficients) at several d."""
    ring = RINGS[name]
    for d in (2, 5, 9, 16, 40):
        inputs = [random_witt_element(ring, 1, d, rng) for _ in range(2)] + [sparse_element(ring, d, rng)]
        if ring.nil > 1:
            for _ in range(2):
                f = random_formal_element(ring, 1, rng.randrange(1, 5), rng)
                inputs.append(WittElement(f.series.extend(d)))
        for a in inputs:
            family = pi_epsilon_inverse(a)
            want = {j: v.entries for j, v in family.items() if any(v.entries)}
            got = ptypical._component_entries(a)
            assert {j: tuple(v) for j, v in got.items()} == want, a
            assert all(type(v) is list for v in got.values())


def test_pi_epsilon_is_group_hom(rng):
    for p in (2, 3):
        ring = CoeffRing.make(p)
        for _ in range(250):
            d = rng.randrange(2, 9)
            a = random_witt_element(ring, 1, d, rng)
            b = random_witt_element(ring, 1, d, rng)
            fa, fb = pi_epsilon_inverse(a), pi_epsilon_inverse(b)
            fs = {j: pwitt_add(fa[j], fb[j]) for j in fa}
            assert pi_epsilon(fs, ring, d) == witt_add(a, b)


def test_transported_multiplication_matches_formula(rng):
    # push through the factor solver, multiply slotwise with the integer
    # twist -j, map back; must equal the direct convolution product
    for p in (2, 3):
        ring = CoeffRing.make(p)
        for _ in range(60):
            d = rng.randrange(2, 9)
            a = random_witt_element(ring, 1, d, rng)
            b = random_witt_element(ring, 1, d, rng)
            fa, fb = pi_epsilon_inverse(a), pi_epsilon_inverse(b)
            prod_fam = {}
            for j in fa:
                m = len(fa[j])
                twist = integer_pwitt(-j, p, m, ring)
                prod_fam[j] = pwitt_mul(twist, pwitt_mul(fa[j], fb[j]))
            assert pi_epsilon(prod_fam, ring, d) == witt_mul(a, b)


def test_artin_hasse_recurrence_matches_exp_log():
    for p in (2, 3, 5):
        reference = artin_hasse_by_exp_log(p, 60)
        for count in range(61):
            assert artin_hasse_coefficients(p, count) == reference[:count]


def test_artin_hasse_coefficients_built_once_per_prime(monkeypatch):
    class CountingList(list):
        appends = 0

        def append(self, value):
            CountingList.appends += 1
            super().append(value)

    monkeypatch.setitem(ptypical._AH_COEFFICIENTS, 2, CountingList())
    got = {count: artin_hasse_coefficients(2, count) for count in (999, 1000, 998)}
    assert CountingList.appends == 1000
    monkeypatch.setitem(ptypical._AH_COEFFICIENTS, 2, [])
    fresh = artin_hasse_coefficients(2, 1000)
    for count, coeffs in got.items():
        assert coeffs == fresh[:count]


@pytest.mark.parametrize("p", [4, 1, 0, -3])
def test_artin_hasse_coefficients_refuse_a_p_that_is_not_prime(p, monkeypatch):
    monkeypatch.setattr(ptypical, "_AH_COEFFICIENTS", {})
    with pytest.raises(SchemaError, match=f"need a prime p, got {p}$"):
        artin_hasse_coefficients(p, 5)
    assert ptypical._AH_COEFFICIENTS == {}


def test_artin_hasse_coefficients_refuse_a_negative_count(monkeypatch):
    """Also once a table is cached, where count = -1 read all but its last
    coefficient."""
    monkeypatch.setattr(ptypical, "_AH_COEFFICIENTS", {})
    for _ in range(2):
        with pytest.raises(SchemaError, match="count -1 is negative$"):
            artin_hasse_coefficients(2, -1)
        artin_hasse_coefficients(2, 5)


def test_artin_hasse_coefficients_refuse_a_count_past_the_limit(monkeypatch):
    monkeypatch.setattr(ptypical, "_AH_COEFFICIENTS", {})
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="^2000 Artin-Hasse coefficients for p = 2, beyond limit 1000$"):
        artin_hasse_coefficients(2, 2000)
    assert time.perf_counter() - start < 0.1 and ptypical._AH_COEFFICIENTS == {}


def test_artin_hasse_coefficients_check_only_a_table_they_start_or_extend(monkeypatch):
    monkeypatch.setattr(ptypical, "_AH_COEFFICIENTS", {})
    want = artin_hasse_coefficients(3, 7)

    def refuse(*_):
        raise AssertionError("a count the table holds was checked")

    monkeypatch.setattr(ptypical, "_is_prime", refuse)
    monkeypatch.setattr(ptypical, "check_budget", refuse)
    assert [artin_hasse_coefficients(3, count) for count in (7, 0, 3)] == [want, (), want[:3]]


def test_artin_hasse_residues_match_the_reduced_coefficients(any_ring):
    """The one table per p serves every ring of characteristic p: it is
    the coefficients reduced through the ring's own operations."""
    p = any_ring.p
    got = ptypical._ah_residues(p, 300)
    assert len(got) >= 300
    assert got[:300] == [reduce_fraction(any_ring, c) for c in artin_hasse_coefficients(p, 300)]


def test_artin_hasse_residues_read_a_shorter_prefix_without_extending(monkeypatch):
    monkeypatch.setattr(ptypical, "_AH_RESIDUES", {})
    table = ptypical._ah_residues(3, 40)
    assert len(table) == 40

    def refuse(*_):
        raise AssertionError("a prefix the table holds was extended")

    monkeypatch.setattr(ptypical, "artin_hasse_coefficients", refuse)
    for count in (0, 7, 40):
        assert ptypical._ah_residues(3, count) is table and len(table) == 40
    assert ptypical._AH_RESIDUES == {3: table}


def test_artin_hasse_residues_refuse_before_the_table_is_touched(monkeypatch):
    """TooLarge past AH_COEFFICIENT_LIMIT, and NonIntegral from a
    coefficient table that is not p-integral, fire from
    ``artin_hasse_coefficients`` before a residue is stored: on no table,
    and on a table that holds a shorter prefix."""
    monkeypatch.setattr(ptypical, "_AH_RESIDUES", {})
    with pytest.raises(TooLarge, match="^2000 Artin-Hasse coefficients for p = 2, beyond limit 1000$"):
        ptypical._ah_residues(2, 2000)
    assert ptypical._AH_RESIDUES == {}
    table = ptypical._ah_residues(2, 5)
    with pytest.raises(TooLarge):
        ptypical._ah_residues(2, 1001)
    assert ptypical._AH_RESIDUES == {2: table} and len(table) == 5
    # a_2 = (a_1 + a_0) / 2 = 3/4 from a corrupted a_1 = 1/2
    monkeypatch.setitem(ptypical._AH_COEFFICIENTS, 5, [Fraction(1), Fraction(1, 5)])
    monkeypatch.setitem(ptypical._AH_COEFFICIENTS, 2, [Fraction(1), Fraction(1, 2)])
    for p in (5, 2):
        with pytest.raises(NonIntegral, match="not .*-integral"):
            ptypical._ah_residues(p, 8)
    assert ptypical._AH_RESIDUES == {2: table} and len(table) == 5


def test_artin_hasse_factor_stops_at_a_zero_power(monkeypatch):
    """E(x, t^j) of a nilpotent x has its terms below x^nil = 0 only, and
    forms no power past the first zero one."""
    ring = RINGS["F3e3"]
    products = []

    class CountingRow(tuple):
        def __getitem__(self, b):
            products.append(b)
            return tuple.__getitem__(self, b)

    table = ring._mul
    want = ptypical._ah_terms(ring, ring.eps_raw, 1, 900)
    ring._set(_mul=tuple(CountingRow(row) for row in table))
    try:
        assert ptypical._ah_terms(ring, ring.eps_raw, 1, 900) == want
    finally:
        ring._set(_mul=table)
    assert [k for k, _ in want] == [1, 2] and len(products) <= 2 * ring.nil


def test_nilpotent_factor_needs_coefficients_below_its_first_zero_power(monkeypatch):
    """Over F_2[eps]/(eps^2), E(eps, t^3) is 1 + eps t^3 at any d: at
    d = 3,100, where (d - 1) // 3 + 1 = 1,034 coefficients pass
    AH_COEFFICIENT_LIMIT, it is built, and peeled back, from a cold table
    that grows to the 2 coefficients a_0, a_1 and no further.  A unit keeps
    the refusal by the whole count."""
    monkeypatch.setattr(ptypical, "_AH_COEFFICIENTS", {})
    monkeypatch.setattr(ptypical, "_AH_RESIDUES", {})
    ring = RINGS["F2e2"]
    eps = ring.from_raw(ring.eps_raw)
    e = artin_hasse_exp(eps, 3, 3100)
    assert e.series.keys == {0: 1, 3: ring.eps_raw}
    family = pi_epsilon_inverse(e)
    assert family[3].entries == (ring.eps_raw,) + (0,) * 10 and not any(family[1].entries)
    assert len(ptypical._AH_RESIDUES[2]) == 2 and len(ptypical._AH_COEFFICIENTS[2]) == 2
    with pytest.raises(TooLarge, match=r"^E\(x, t\^3\) at d = 3100 needs 1034 Artin-Hasse coefficients"):
        artin_hasse_exp(ring.from_raw(ring.one), 3, 3100)


def test_component_family_is_bounded_before_it_is_built(monkeypatch):
    """``pi_epsilon_inverse`` counts its family's components, the j < d
    coprime to p, against ``witt.FAMILY_LIMIT`` before it peels or builds
    any: the unit at d = 10^8 is refused at once, and with the limit
    lowered a family at the limit is built and one past it refused."""

    def refuse(*_args):
        raise AssertionError("the family was built before its bound was checked")

    F2, F3 = RINGS["F2"], RINGS["F3"]
    with monkeypatch.context() as patch:
        patch.setattr(ptypical, "component_lengths", refuse)
        patch.setattr(ptypical, "peel_keys", refuse)
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=r"^at d = 100000000 a p-typical family for p = 2 "
                                           r"has 50000000 components, beyond limit 1000000$"):
            pi_epsilon_inverse(WittElement.one(F2, 1, 10**8))
        assert time.perf_counter() - start < 0.1
    # the j < 31 coprime to 3 are 30 - 10 = 20, and below 32 there is 31 too
    monkeypatch.setattr(ptypical, "FAMILY_LIMIT", 20)
    assert len(pi_epsilon_inverse(WittElement.one(F3, 1, 31))) == 20
    with pytest.raises(TooLarge, match="has 21 components, beyond limit 20$"):
        pi_epsilon_inverse(WittElement.one(F3, 1, 32))


def test_zero_components_of_one_length_are_one_vector():
    """The family's zero components share one vector per length, and each
    nonzero component is its own: at d = 60, j = 5 has as many entries as
    j = 7 for p = 2 and as j = 4 for p = 3."""
    for ring, other in ((RINGS["F2"], 7), (RINGS["F3e2"], 4)):
        p, d = ring.p, 60
        lengths = component_lengths(p, d)
        v = PWittVector(p, [ring.one] + [0] * (lengths[5] - 1), ring)
        family = pi_epsilon_inverse(pi_epsilon({5: v}, ring, d))
        assert {j: len(w) for j, w in family.items()} == lengths and family[5] == v
        zeros = {}
        for j, w in family.items():
            if j != 5:
                assert w == PWittVector.zero(p, lengths[j], ring)
                assert zeros.setdefault(len(w), w) is w, j
        assert len(family[other]) == len(v) and family[other] is not family[5]
        assert set(zeros) == set(lengths.values())


def test_component_lengths_match_their_definition():
    for p in (2, 3, 5, 7):
        for d in range(-1, 200):
            want = {}
            for j in range(1, d):
                m = 0
                while j * p**m < d:
                    m += 1
                if j % p:
                    want[j] = m
            got = component_lengths(p, d)
            assert got == want and list(got) == list(want), (p, d)


def test_pairing_example_and_bilinearity(rng):
    R = CoeffRing.make(2, nil=2)
    eps = R.eps_raw
    v = PWittVector(2, [eps, 0], R)
    w = PWittVector(2, [1, 0], R)
    assert pwitt_pair(v, w).raw == R.radd(1, eps)
    assert pwitt_pair(PWittVector.zero(2, 2, R), w).raw == 1

    for _ in range(40):
        v1 = PWittVector(2, [R.random_nilpotent_raw(rng) for _ in range(2)], R)
        v2 = PWittVector(2, [R.random_nilpotent_raw(rng) for _ in range(2)], R)
        w1 = PWittVector(2, [R.random_raw(rng) for _ in range(2)], R)
        lhs = pwitt_pair(pwitt_add(v1, v2), w1)
        assert lhs == pwitt_pair(v1, w1) * pwitt_pair(v2, w1)


def test_pairing_needs_nilpotent_left():
    R = CoeffRing.make(2, nil=2)
    v = PWittVector(2, [1, 0], R)
    with pytest.raises(NotNilpotent):
        pwitt_pair(v, v)


def test_integer_vector_ghosts():
    for p, c in ((2, -1), (3, -2), (5, 7)):
        v = integer_pwitt(c, p, 4)
        assert all(g == c for g in ghost(v).entries)


@pytest.mark.parametrize("name", ["F4", "F4e2", "F2e3"])
def test_ring_axioms_long_vectors(name, rng):
    ring = RINGS[name]
    p = ring.p
    for m in range(5, 9):
        zero, one = PWittVector.zero(p, m, ring), PWittVector.one(p, m, ring)
        for _ in range(6):
            v, w, u = (
                PWittVector(p, [ring.random_raw(rng) for _ in range(m)], ring) for _ in range(3)
            )
            assert pwitt_add(v, w) == pwitt_add(w, v)
            assert pwitt_mul(v, w) == pwitt_mul(w, v)
            assert pwitt_add(pwitt_add(v, w), u) == pwitt_add(v, pwitt_add(w, u))
            assert pwitt_mul(pwitt_mul(v, w), u) == pwitt_mul(v, pwitt_mul(w, u))
            assert pwitt_mul(v, pwitt_add(w, u)) == pwitt_add(pwitt_mul(v, w), pwitt_mul(v, u))
            assert pwitt_add(v, zero) == v and pwitt_mul(v, one) == v
            assert pwitt_mul(v, zero) == zero


def test_json_shapes():
    F2 = CoeffRing.make(2)
    v = PWittVector(2, [1, 0], F2)
    doc = v.to_json_dict()
    assert doc["p"] == 2 and doc["entries"] == [[[1]], [[0]]]


@pytest.mark.parametrize("entries", [[-1, 7], [0, 4], [1, True], [1, 1.0], [1, "1"]])
def test_ring_entries_outside_the_ring_are_refused(entries):
    F4 = CoeffRing.make(4)
    with pytest.raises(SchemaError, match=r"vector entry .* is not in range\(4\)"):
        PWittVector(2, entries, F4)


def test_ring_entries_may_be_elements_of_the_same_ring_only():
    F4, F2 = CoeffRing.make(4), CoeffRing.make(2)
    assert PWittVector(2, [F4.from_raw(3), 1], F4) == PWittVector(2, [3, 1], F4)
    with pytest.raises(ShapeMismatch, match="belongs to another ring"):
        PWittVector(2, [F2.from_raw(1), 1], F4)


def test_pad_appends_zeros_and_keeps_a_vector_of_full_length():
    F4 = CoeffRing.make(4)
    v = PWittVector(2, [3, 1], F4)
    assert v.pad(2) is v and v.pad(4) == PWittVector(2, [3, 1, 0, 0], F4)
    with pytest.raises(ShapeMismatch):
        v.pad(1)

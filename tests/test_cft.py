import functools
import itertools
import math
import pickle
import random
import re
import time
import types

import cft_oracle
import pytest
from test_acceptance import LANG_GRID, PI1_GRID

from multiwitt import (
    CoeffRing,
    InvalidTruncation,
    NotAbelian,
    NotClosed,
    TooLarge,
    cft,
    lang_kernel_census,
    modulus_group,
    pi1_truncated,
    transition_surjective,
    witt_add,
    witt_group_structure_brute,
    witt_neg,
)
from multiwitt import dense
from multiwitt.cli import main
from multiwitt.errors import SchemaError
from multiwitt.cft import _coefficient_tuples, generator_order_exponent
from multiwitt.dense import _DenseLaw
from multiwitt.series import exponents_below
from multiwitt.witt import enumerate_witt_elements, random_witt_element


def test_anchor_cases():
    assert pi1_truncated(1, 2, 3).invariant_factors == (4,)
    assert pi1_truncated(1, 3, 3).invariant_factors == (3, 3)
    assert pi1_truncated(2, 2, 2).invariant_factors == (2, 2)


def test_anchors_against_oracle():
    assert witt_group_structure_brute(CoeffRing.make(2), 1, 3).invariant_factors == (4,)
    assert witt_group_structure_brute(CoeffRing.make(3), 1, 3).invariant_factors == (3, 3)
    assert witt_group_structure_brute(CoeffRing.make(2), 2, 2).invariant_factors == (2, 2)


def test_order_formula(rng):
    for n, q, d in ((1, 2, 6), (1, 9, 3), (2, 3, 3), (3, 2, 3), (2, 4, 3)):
        s = pi1_truncated(n, q, d)
        m = len([e for e in exponents_below(n, d) if sum(e) > 0])
        assert s.order == q**m


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_counts_match_the_box(n):
    """The factors counted per weight are the factors of the box: the same
    factors, order and witnesses, in the same order."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for d in range(2, 9):
            s, box = pi1_truncated(n, q, d), cft_oracle.pi1_box(n, q, d)
            assert s.invariant_factors == box.invariant_factors, (n, q, d)
            assert s.order == box.order, (n, q, d)
            assert s.witnesses == box.witnesses, (n, q, d)


@pytest.mark.parametrize(
    "n, q, d, error",
    [
        (1, 2, 1, InvalidTruncation),
        (2, 3, 0, InvalidTruncation),
        (3, 4, -1, InvalidTruncation),
        (0, 2, 3, InvalidTruncation),
        (1, 6, 3, SchemaError),
        (2, 12, 4, SchemaError),
        (1, 4096, 3, TooLarge),
        (20, 2, 20, TooLarge),
        (3, 4, 70, TooLarge),
        (1, 2, 10**5 + 2, TooLarge),
        (5, 2, 1 << 14000, TooLarge),
    ],
    ids=[
        "d-1", "d-0", "d-negative", "n-0", "q-6", "q-12", "q-4096", "rank-20-20", "rank-F4",
        "rank-n-1", "exponent-bits",
    ],
)
def test_generator_counts_refuse_as_the_box(n, q, d, error):
    with pytest.raises(error) as counted:
        pi1_truncated(n, q, d)
    with pytest.raises(error) as box:
        cft_oracle.pi1_box(n, q, d)
    assert str(counted.value) == str(box.value)


def test_generator_orders_match_witnesses():
    from multiwitt import WittElement

    s = pi1_truncated(1, 4, 4)
    ring = s.witnesses[0].ring
    one = WittElement.one(ring, 1, 4)
    for order, w in zip(s.invariant_factors, s.witnesses):
        assert w.group_pow(order) == one
        assert w.group_pow(order // 2) != one
    # the oracle's witnesses too, and they span the group
    for n, q, d in PI1_GRID:
        ring = CoeffRing.make(q)
        s = witt_group_structure_brute(ring, n, d)
        one = WittElement.one(ring, n, d)
        # each factor is a power of p, so w has order m exactly when w^m is
        # one and w^(m / p) is not
        for order, w in zip(s.invariant_factors, s.witnesses):
            assert w.group_pow(order) == one, (n, q, d)
            assert w.group_pow(order // ring.p) != one, (n, q, d)
        # the span, on the raw tuples of the dense law, whose witnesses the
        # loops over its op peel as the oracle does
        law = dense._dense_law(ring, n, d)
        raw = cft_oracle.brute_force_structure(_coefficient_tuples(q, len(law.exps)), law.op)
        assert [law.to_witt(w) for w in raw.witnesses] == list(s.witnesses)
        span = {(0,) * len(law.exps)}
        for w in raw.witnesses:
            for x in list(span):
                x = law.op(x, w)
                while x not in span:
                    span.add(x)
                    x = law.op(x, w)
        assert len(span) == s.order, (n, q, d)


@pytest.mark.parametrize(
    "make",
    [
        lambda: pi1_truncated(1, 2, 4),
        lambda: pi1_truncated(2, 3, 3),
        lambda: witt_group_structure_brute(F2, 1, 4),
        lambda: witt_group_structure_brute(CoeffRing.make(3), 2, 2),
        lambda: modulus_group(2, 5),
        lambda: modulus_group(3, 1),
    ],
    ids=["formula-1-2-4", "formula-2-3-3", "oracle-2-1-4", "oracle-3-2-2", "modulus-2-5", "modulus-3-1"],
)
def test_structures_pickle_round_trip(make):
    s = make()
    back = pickle.loads(pickle.dumps(s))
    assert back == s
    if isinstance(s, cft.ModulusGroupDesc):
        s, back = s.structure, back.structure
    assert back.invariant_factors == s.invariant_factors and back.order == s.order
    assert back.witnesses == s.witnesses


def test_pi1_json_builds_no_witnesses(monkeypatch):
    from multiwitt import WittElement

    built = []
    binomial = WittElement.binomial

    def counting(*args):
        built.append(args)
        return binomial(*args)

    monkeypatch.setattr(WittElement, "binomial", counting)
    s = pi1_truncated(3, 4, 5)
    assert s.to_json_dict()["order"] == s.order and built == []
    assert len(s.witnesses) == len(s.invariant_factors) == len(built)
    assert s.witnesses is s.witnesses  # built once, then kept


def test_factors_make_no_ring(monkeypatch):
    """pi1_truncated and modulus_group read p and e off q: the factors of
    F_2048's groups add no made ring, and reading the witnesses makes the
    ring and its binomials."""
    from multiwitt import WittElement
    from multiwitt.ring import _made_ring

    before = _made_ring.cache_info()
    s = pi1_truncated(1, 2048, 2)
    assert s.invariant_factors == (2,) * 11 and s.order == 2048
    assert modulus_group(2048, 2).structure == s and modulus_group(2048, 1).order == 1
    small = pi1_truncated(2, 9, 3)
    assert small.invariant_factors == (3,) * 10 and small.order == 9**5
    after = _made_ring.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)

    built = []
    binomial = WittElement.binomial
    monkeypatch.setattr(WittElement, "binomial", lambda *a: built.append(a) or binomial(*a))
    assert len(small.witnesses) == len(built) == 10
    assert all(w.ring is CoeffRing.make(9) for w in small.witnesses)


def test_invalid_truncation():
    with pytest.raises(InvalidTruncation):
        pi1_truncated(1, 2, 1)


F2 = CoeffRing.make(2)


@pytest.mark.parametrize("n", [0, -1])
def test_pi1_rejects_no_variables(n):
    with pytest.raises(InvalidTruncation):
        pi1_truncated(n, 2, 3)


@pytest.mark.parametrize("n,d", [(0, 3), (-2, 3), (1, 0), (1, -1)])
def test_oracle_rejects_empty_shape(n, d):
    with pytest.raises(InvalidTruncation):
        witt_group_structure_brute(F2, n, d)


@pytest.mark.parametrize("n", [0, -1])
def test_census_rejects_no_variables(n):
    with pytest.raises(InvalidTruncation):
        lang_kernel_census(n, 2, 1, 3)


@pytest.mark.parametrize("n", [0, -1])
def test_transition_rejects_no_variables(n):
    with pytest.raises(InvalidTruncation):
        transition_surjective(F2, n, 3, 2)


@pytest.mark.parametrize("n,d", [(0, 3), (-1, 3), (2, 0), (2, -1)])
def test_exponents_below_rejects_empty_shape(n, d):
    with pytest.raises(ValueError):
        exponents_below(n, d)


def test_structure_sweep_matches_oracle():
    for n, q, d in [
        (1, 2, 4),
        (1, 2, 6),
        (1, 3, 4),
        (1, 4, 3),
        (1, 5, 3),
        (2, 2, 3),
        (2, 3, 2),
        (3, 2, 2),
    ]:
        f = pi1_truncated(n, q, d)
        b = witt_group_structure_brute(CoeffRing.make(q), n, d)
        assert f.invariant_factors == b.invariant_factors
        assert f.order == b.order


def test_generator_order_exponent():
    assert generator_order_exponent(2, 1, 3) == 2
    assert generator_order_exponent(3, 1, 3) == 1
    assert generator_order_exponent(2, 3, 8) == 2


def test_klein_group():
    elems = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    s = cft_oracle.brute_force_structure(elems, lambda a, b: (a[0] * b[0], a[1] * b[1]))
    assert s.invariant_factors == (2, 2) and s.order == 4


def test_trivial_group():
    s = cft_oracle.brute_force_structure([0], lambda a, b: 0)
    assert s.invariant_factors == () and s.order == 1


def test_cyclic_group_with_witness():
    elems = list(range(8))
    s = cft_oracle.brute_force_structure(elems, lambda a, b: (a + b) % 8)
    assert s.invariant_factors == (8,)
    assert s.witnesses[0] % 2 == 1  # a generator of Z/8 is odd


def test_mixed_cyclic():
    elems = list(itertools.product(range(2), range(4)))
    s = cft_oracle.brute_force_structure(elems, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 4))
    assert s.invariant_factors == (2, 4)


def test_not_abelian_detected():
    perms = list(itertools.permutations(range(3)))
    with pytest.raises(NotAbelian):
        cft_oracle.brute_force_structure(perms, lambda a, b: tuple(a[b[i]] for i in range(3)))


def test_not_closed_detected():
    with pytest.raises(NotClosed):
        cft_oracle.brute_force_structure([1, 2], lambda a, b: a * b)


def test_duplicates_refused_where_the_loops_run(monkeypatch):
    """The loops over op refuse an element listed twice, also of the dense
    law's box.  The library oracle lists no elements: the law proves its
    own box a group, and no set of members is built."""
    with pytest.raises(NotClosed, match="duplicate elements"):
        cft_oracle.brute_force_structure([0, 1, 1, 0], lambda a, b: (a + b) % 2)
    law = _DenseLaw(CoeffRing.make(2), 1, 4)
    elems = list(_coefficient_tuples(2, len(law.exps)))
    with pytest.raises(NotClosed, match="duplicate elements"):
        cft_oracle.brute_force_structure(elems + elems[:1], law.op)
    monkeypatch.setattr(cft, "set", lambda *_: pytest.fail("a member set was built"), raising=False)
    assert witt_group_structure_brute(F2, 1, 4).invariant_factors == (2, 4)


def _table_op(table):
    return lambda a, b: table[a][b]


# closed, commutative, with an idempotent, and no group
MONOIDS = {
    "mult-01": ([0, 1], lambda a, b: a * b),
    "mult-10": ([1, 0], lambda a, b: a * b),
    "mult-signs-0": ([1, -1, 0], lambda a, b: a * b),
    "constant": (list(range(4)), lambda a, b: 0),
    "nilpotent": ([0, 1, 2], _table_op([[0, 1, 2], [1, 2, 2], [2, 2, 2]])),
    "z2-times-absorbing": (
        list(itertools.product(range(2), range(2))),
        lambda a, b: ((a[0] + b[0]) % 2, a[1] | b[1]),
    ),
}


@pytest.mark.parametrize("name", sorted(MONOIDS))
def test_monoid_that_is_no_group_is_rejected(name):
    elems, op = MONOIDS[name]
    with pytest.raises((NotAbelian, NotClosed)):
        cft_oracle.brute_force_structure(elems, op)


def test_brute_force_size_limit():
    assert cft.BRUTE_FORCE_LIMIT == 2**18
    with pytest.raises(TooLarge):
        cft_oracle.brute_force_structure(range(2**18 + 1), lambda a, b: 0)


def test_brute_force_takes_one_element_past_the_limit():
    def op(a, b):
        raise AssertionError("a group operation ran")

    elements = itertools.count()
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"at least 262145 elements, beyond limit 262144$"):
        cft_oracle.brute_force_structure(elements, op)
    assert time.perf_counter() - start < 1.0
    assert next(elements) == 2**18 + 1


def test_modulus_group_examples():
    assert modulus_group(2, 1).order == 1
    g = modulus_group(2, 3)
    assert g.order == 4 and g.structure.invariant_factors == (4,)
    for q, m in ((2, 2), (2, 5), (3, 3), (4, 2), (5, 3), (9, 2)):
        assert modulus_group(q, m).order == q ** (m - 1)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 6])
def test_modulus_group_refuses_a_q_that_is_no_prime_power(q, m):
    with pytest.raises(SchemaError, match=f"^{q} is not a prime power$"):
        modulus_group(q, m)


def test_modulus_group_matches_pi1():
    for q, m in ((2, 3), (2, 4), (3, 3), (5, 2)):
        assert (
            modulus_group(q, m).structure.invariant_factors
            == pi1_truncated(1, q, m).invariant_factors
        )


def test_modulus_group_elements_enumeration():
    g = modulus_group(2, 3)
    els = list(g.elements())
    assert len(els) == 4


def test_lang_census_example():
    c = lang_kernel_census(1, 2, 2, 3)
    assert c.total == 16 and c.kernel == 4 and c.expected_kernel == 4
    assert c.matches and c.kernel_is_rational


def test_lang_census_trivial_extension():
    c = lang_kernel_census(1, 3, 1, 3)
    assert c.kernel == c.total == 9


def test_lang_census_more_configs():
    for n, q, s, d in ((1, 2, 2, 4), (1, 3, 2, 2), (2, 2, 2, 2)):
        c = lang_kernel_census(n, q, s, d)
        assert c.matches, (n, q, s, d, c)


@pytest.mark.parametrize("s", [0, -1])
def test_census_refuses_an_extension_degree_below_one(monkeypatch, s):
    def no_ring(*_):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(CoeffRing, "make", no_ring)
    with pytest.raises(InvalidTruncation, match=rf"\bs = {s} must be at least 1$"):
        lang_kernel_census(1, 2, s, 3)


def test_census_sizes_the_extension_before_any_ring(monkeypatch):
    from multiwitt.ring import _made_ring

    def no_ring(*_):
        raise AssertionError("a ring was built")

    before = _made_ring.cache_info()
    monkeypatch.setattr(CoeffRing, "make", no_ring)
    with pytest.raises(TooLarge, match=r"q\^s = 4194304 elements, beyond limit 2048$"):
        lang_kernel_census(1, 2048, 2, 3)
    with pytest.raises(TooLarge, match=r"census of 1099511627776 elements, beyond limit 1000000$"):
        lang_kernel_census(2, 16, 2, 3)
    with pytest.raises(SchemaError, match="^6 is not a prime power$"):
        lang_kernel_census(1, 6, 2, 3)
    assert _made_ring.cache_info() == before


def test_lang_census_too_large():
    with pytest.raises(TooLarge):
        lang_kernel_census(1, 2, 4, 8)


def test_transition_surjectivity():
    assert transition_surjective(CoeffRing.make(2), 1, 5, 3)
    assert transition_surjective(CoeffRing.make(3), 1, 4, 2)
    assert transition_surjective(CoeffRing.make(2), 2, 3, 2)
    with pytest.raises(InvalidTruncation):
        transition_surjective(CoeffRing.make(2), 1, 3, 4)


def test_transition_rejects_target_below_one():
    with pytest.raises(InvalidTruncation):
        transition_surjective(CoeffRing.make(2), 1, 3, 0)


def test_group_rank_closed_form():
    for n in (1, 2, 3, 4):
        for d in range(1, 8):
            assert cft._group_rank(n, d) == len(exponents_below(n, d)) - 1


def test_group_rank_is_exact_within_the_shape_bound():
    assert cft._group_rank(40, 40) == math.comb(79, 40) - 1
    # exponents of 1.7 * 10^6 and 3 * 10^10 bits: refused by the shape
    # bound before the rank, about 6 * 10^8 digits at 10^9, is counted
    for n, d in ((10**5, 10**5), (10**9, 10**9)):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="bits, beyond limit 65536$"):
            cft._group_rank(n, d)
        assert time.perf_counter() - start < 1.0


def test_oversized_enumerations_rejected_before_the_box(monkeypatch):
    def no_box(n, d):
        raise AssertionError(f"exponent box ({n}, {d}) built")

    monkeypatch.setattr("multiwitt.series.exponents_below", no_box)
    F2 = CoeffRing.make(2)
    rank = cft._group_rank(20, 20)
    estimate = rf"order at least 2\^{rank}, beyond limit 262144$"
    with pytest.raises(TooLarge, match=estimate):
        witt_group_structure_brute(F2, 20, 20)
    with pytest.raises(TooLarge, match=estimate):
        transition_surjective(F2, 20, 20, 2)
    census = rf"census of at least 2\^{2 * rank} elements, beyond limit 1000000$"
    with pytest.raises(TooLarge, match=census):
        lang_kernel_census(20, 2, 2, 20)
    with pytest.raises(TooLarge, match=rf"\b{rank} generators, beyond limit 100000$"):
        pi1_truncated(20, 2, 20)
    # the rank at (3, 70) is under the limit, but F_4 has two basis
    # elements, so two generators per exponent
    assert cft._group_rank(3, 70) <= cft.PI1_GENERATOR_LIMIT
    with pytest.raises(TooLarge, match=rf"\b{2 * cft._group_rank(3, 70)} generators, beyond"):
        pi1_truncated(3, 4, 70)


def test_oversized_extension_rejected_before_it_is_built(monkeypatch):
    def no_field(*_):
        raise AssertionError("a modulus search ran")

    monkeypatch.setattr("multiwitt.ring._find_irreducible", no_field)
    with pytest.raises(TooLarge, match=r"q\^s = at least 2\^100000 elements, beyond limit 2048$"):
        lang_kernel_census(1, 2, 100000, 2)
    with pytest.raises(TooLarge, match=r"q\^s = 4096 elements, beyond limit 2048$"):
        lang_kernel_census(1, 2, 12, 2)


def test_dense_law_matches_witt_add_and_neg(any_ring):
    rng = random.Random(7)
    for n, d in ((1, 6), (2, 4), (3, 3)):
        law = _DenseLaw(any_ring, n, d)
        for _ in range(40):
            x, y = cft_oracle.random_tuple(law, rng), cft_oracle.random_tuple(law, rng)
            a, b = law.to_witt(x), law.to_witt(y)
            assert law.to_witt(law.op(x, y)) == witt_add(a, b)
            assert law.to_witt(cft_oracle.loop_inv(law, x)) == witt_neg(a)


def test_dense_draw_matches_random_witt_element(any_ring):
    law = _DenseLaw(any_ring, 2, 4)
    dense_rng, witt_rng = random.Random(3), random.Random(3)
    for _ in range(20):
        x = cft_oracle.random_tuple(law, dense_rng)
        assert law.to_witt(x) == random_witt_element(any_ring, 2, 4, witt_rng)


def check_against_loop_law(law, rng, count):
    for _ in range(count):
        x, y = cft_oracle.random_tuple(law, rng), cft_oracle.random_tuple(law, rng)
        assert law.op(x, y) == cft_oracle.loop_op(law, x, y)
        assert law.to_witt(cft_oracle.loop_inv(law, x)) == witt_neg(law.to_witt(x))


def test_compiled_law_matches_loop_law(any_ring):
    rng = random.Random(11)
    for n, d in ((1, 6), (2, 4), (3, 3)):
        check_against_loop_law(_DenseLaw(any_ring, n, d), rng, 40)


@pytest.mark.parametrize("n,d", [(1, 20), (2, 6), (3, 4)])
def test_widest_compiled_laws_match_loop_law(n, d):
    # rank 19, 20 and 19 over F_2: the deepest straight-line bodies
    check_against_loop_law(_DenseLaw(F2, n, d), random.Random(n * 100 + d), 50)


def test_rank_zero_law():
    for n in (1, 3):
        law = _DenseLaw(F2, n, 1)
        assert law.exps == [] and law.op((), ()) == () and cft_oracle.loop_inv(law, ()) == ()
    assert witt_group_structure_brute(F2, 1, 1) == cft.AbelianGroupStructure((), 1)


def test_law_is_built_once_per_shape():
    assert dense._dense_law(F2, 2, 3) is dense._dense_law(CoeffRing.make(2), 2, 3)
    assert dense._dense_law(F2, 2, 3) is not dense._dense_law(F2, 2, 4)


def test_brute_force_same_on_loop_and_compiled_law():
    for n, q, d in PI1_GRID:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        size, rank = law.ring.size, len(law.exps)
        got = cft_oracle.brute_force_structure(_coefficient_tuples(size, rank), law.op)
        want = cft_oracle.brute_force_structure(
            _coefficient_tuples(size, rank), lambda x, y: cft_oracle.loop_op(law, x, y)
        )
        assert got == want, (n, q, d)
        assert got.witnesses == want.witnesses, (n, q, d)


def commute_outcome(check):
    """None when the check accepts, else the class of its refusal."""
    try:
        check()
    except (NotAbelian, NotClosed) as exc:
        return type(exc)
    return None


def proof_and_pairwise(law, reference=cft_oracle.pairwise_commutes):
    """The outcomes of the table proof and of the loop ``reference`` on
    ``law`` over the whole set range(size)^rank."""
    elems = list(_coefficient_tuples(law.ring.size, len(law.pairs)))
    return commute_outcome(law.prove), commute_outcome(lambda: reference(elems, law.op))


def test_commutes_kernel_accepts_where_pairwise_does_on_pi1_grid():
    # the table proof in place of the compiled kernel, on the laws whose
    # pairs the exhaustive loop can afford
    exhaustive = [
        (n, q, d)
        for n, q, d in PI1_GRID
        if (q ** cft._group_rank(n, d)) ** 2 <= cft_oracle.PAIR_CHECK_LIMIT
    ]
    assert (1, 2, 8) in exhaustive and len(exhaustive) == 26
    for n, q, d in exhaustive:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        assert proof_and_pairwise(law) == (None, None), (n, q, d)


def test_proof_accepts_every_law_on_pi1_and_lang_grids(monkeypatch):
    laws = {(q, n, d) for n, q, d in PI1_GRID}
    laws |= {(q**s, n, d) for n, q, s, d in LANG_GRID}
    proved = [dense._dense_law(CoeffRing.make(q), n, d) for q, n, d in sorted(laws)]
    for law in proved:
        assert law.prove() is None, (law.ring.size, law.n, law.d)
    # a proved law proves once: a second call reads no table
    monkeypatch.setattr(dense, "Counter", lambda *_: pytest.fail("the pairs were counted again"))
    for law in proved:
        law.prove()


# (q, n, d): the laws whose one-pair-dropped mutants the proof and the
# exhaustive loop must judge alike
MUTATED_LAWS = [(2, 1, 8), (3, 1, 4), (4, 1, 4), (2, 2, 3), (2, 1, 5)]
# past the exhaustive regime (243 and 1,024 elements): the sampled loop
SAMPLED_LAWS = [(3, 1, 6), (4, 2, 3)]


def one_pair_dropped(law):
    """Every law made from ``law`` by dropping one pair of one coordinate,
    with the pair dropped."""
    for k, ks in enumerate(law.pairs):
        for drop in range(len(ks)):
            mutant = _DenseLaw(law.ring, law.n, law.d)
            del mutant.pairs[k][drop]
            yield ks[drop], mutant


def test_commutes_kernel_rejects_the_mutants_pairwise_rejects():
    rejected = 0
    for q, n, d in MUTATED_LAWS:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        for dropped, mutant in one_pair_dropped(law):
            proof, pairwise = proof_and_pairwise(mutant)
            assert proof == pairwise, (q, n, d, dropped)
            assert proof in (None, NotAbelian)
            # dropping a diagonal pair (i, i) keeps the law commutative
            assert (proof is None) == (dropped[0] == dropped[1])
            rejected += proof is NotAbelian
    assert rejected == 28


def test_commutes_kernel_names_a_failing_pair():
    # every refusal of the proof names a coordinate k and indices (i, j)
    # where the unit vectors e_i and e_j do not commute
    named = 0
    for q, n, d in MUTATED_LAWS + SAMPLED_LAWS:
        ring = CoeffRing.make(q)
        for dropped, mutant in one_pair_dropped(_DenseLaw(ring, n, d)):
            try:
                mutant.prove()
            except NotAbelian as exc:
                found = re.fullmatch(
                    r"coordinate (\d+) of the law takes x_(\d+) y_(\d+) \d+ times"
                    r" and x_\3 y_\2 \d+ times, apart modulo \d+",
                    str(exc),
                )
                k, i, j = map(int, found.groups())
                op, rank = mutant.op, len(mutant.pairs)
                e_i, e_j = (tuple(ring.one * (t == v) for t in range(rank)) for v in (i, j))
                assert op(e_i, e_j)[k] != op(e_j, e_i)[k], (q, n, d, dropped)
                named += 1
    assert named == 38


def test_commutes_kernel_refuses_an_index_out_of_range():
    # addition mod 3 on the indices of F_2: 1 + 1 leaves range(2); the
    # proof refuses the add table, and the loops over op refuse the law
    add3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    ring = types.SimpleNamespace(size=2, p=2, _add=add3, _mul=F2._mul, _neg=F2._neg)
    law = _DenseLaw(ring, 1, 5)
    elems = list(_coefficient_tuples(2, len(law.exps)))
    with pytest.raises(NotClosed, match="^the add table leaves the ring's indices$"):
        law.prove()
    assert commute_outcome(lambda: cft_oracle.pairwise_commutes(elems, law.op)) is NotClosed
    with pytest.raises(NotClosed, match=r"left the set$"):
        cft_oracle.brute_force_structure(elems, law.op)


def test_proof_applies_only_to_a_closed_coeff_ring():
    # F_2's own tables prove only as F_2's: in a namespace they are refused,
    # and so is an add table with an entry below or past range(2)
    assert _DenseLaw(F2, 1, 5).prove() is None
    with pytest.raises(NotClosed, match="^the ring is not a CoeffRing whose zero is the identity$"):
        _DenseLaw(faulty_ring(F2), 1, 5).prove()
    for entry in (-1, 2):
        add = [list(row) for row in F2._add]
        add[1][0] = entry
        with pytest.raises(NotClosed, match="^the add table leaves the ring's indices$"):
            _DenseLaw(faulty_ring(F2, _add=add), 1, 5).prove()


def swapped_tables(ring):
    """The tables of ``ring`` with the indices 0 and 1 swapped: a closed
    ring whose index 0 is the ring's one, so the zero tuple is no
    identity.  Its negation table takes a to the b with add[a][b] == 0,
    which passes the inverse check without being the inverse."""
    swap = [1, 0, *range(2, ring.size)]

    def relabel(table):
        return [[swap[table[swap[a]][swap[b]]] for b in range(ring.size)] for a in range(ring.size)]

    add = relabel(ring._add)
    return {"_add": add, "_mul": relabel(ring._mul), "_neg": [row.index(0) for row in add]}


def test_proof_needs_zero_to_be_the_identity(monkeypatch):
    # F_2 with its two indices swapped, taken for a CoeffRing: the proof
    # refuses it, where the loops over op find the group of F_2
    swapped = faulty_ring(F2, **swapped_tables(F2))
    monkeypatch.setattr(dense, "CoeffRing", types.SimpleNamespace)
    law = _DenseLaw(swapped, 1, 5)
    with pytest.raises(NotClosed, match="^the ring is not a CoeffRing whose zero is the identity$"):
        law.prove()
    elems = list(_coefficient_tuples(2, len(law.exps)))
    got = cft_oracle.brute_force_structure(elems, law.op)
    assert got.invariant_factors == pi1_truncated(1, 2, 5).invariant_factors


def out_of_range_add(ring):
    """The add table of ``ring`` with 1 + 1 at the index ring.size."""
    add = [list(row) for row in ring._add]
    add[1][1] = ring.size
    return add


@pytest.mark.parametrize("fault", ["add out of range", "zero no identity"])
def test_oracle_refuses_faulty_tables_before_any_kernel(monkeypatch, fault):
    # the oracle has no loops to fall back to: a law whose tables do not
    # prove it a group is refused before any kernel, op included, compiles
    F4 = CoeffRing.make(4)
    tables = {"add out of range": {"_add": out_of_range_add(F4)}, "zero no identity": swapped_tables(F4)}
    patch_law(monkeypatch, **tables[fault])
    monkeypatch.setattr(dense, "_compile", lambda *_: pytest.fail("a kernel was compiled"))
    with pytest.raises(NotClosed, match="^the (add table leaves|ring is not a CoeffRing)"):
        witt_group_structure_brute(F4, 1, 3)


def test_commutes_kernel_is_compiled_only_by_the_exhaustive_check(monkeypatch, capsys):
    # no commutativity kernel is compiled any more: the oracle and the
    # census run the table proof once per law, the oracle compiles only
    # the ladder and the census only its pass, and every compiled kernel
    # goes through dense._compile
    compiled = []
    compile_code, prove = dense._compile, _DenseLaw.prove

    def code_counted(ring, signature, body):
        compiled.append((signature.split("(")[0], ring.size))
        return compile_code(ring, signature, body)

    def proof_counted(law):
        if not law._proved:
            compiled.append(("proof", law.ring.size, len(law.pairs)))
        return prove(law)

    monkeypatch.setattr(dense, "_compile", code_counted)
    monkeypatch.setattr(_DenseLaw, "prove", proof_counted)
    dense._dense_law.cache_clear()
    pi1_truncated(1, 2, 8)
    pi1_truncated(2, 4, 3)
    for n, q, d in ((1, 2, 8), (2, 4, 3)):
        assert main(["pi1", "--n", str(n), "--q", str(q), "--d", str(d)]) == 0
    capsys.readouterr()
    assert compiled == []
    # 16 and 256 elements, each law proved and compiled once
    for _ in range(2):
        lang_kernel_census(1, 2, 2, 3)
        lang_kernel_census(1, 2, 2, 5)
    assert compiled == [("proof", 4, 2), ("lang_pass", 4), ("proof", 4, 4), ("lang_pass", 4)]
    compiled.clear()
    # 1,024 elements, past the exhaustive regime of the loops
    for _ in range(2):
        assert witt_group_structure_brute(CoeffRing.make(4), 2, 3).order == 1024
    assert compiled == [("proof", 4, 5), ("box_powers", 4), ("powers", 4)]
    compiled.clear()
    # 128 elements
    for _ in range(2):
        assert witt_group_structure_brute(F2, 1, 8).invariant_factors == (2, 2, 4, 8)
    assert compiled == [("proof", 2, 7), ("box_powers", 2), ("powers", 2)]
    dense._dense_law.cache_clear()
    witt_group_structure_brute(F2, 1, 8)
    assert compiled == [("proof", 2, 7), ("box_powers", 2), ("powers", 2)] * 2


def outcome(check):
    """None when the check accepts, else the class and message of its
    refusal."""
    try:
        check()
    except (NotAbelian, NotClosed) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("count", [201, 243, 256, 1024])
def test_sampled_pairs_are_the_draws_of_random_choices(count):
    # the loops over an opaque op: the idempotent 0, count identity
    # products, then op(a, b) and op(b, a) for each sampled pair
    calls = []

    def op(a, b):
        calls.append((a, b))
        return (a + b) % count

    elems = list(range(count))
    cft_oracle.brute_force_structure(elems, op)
    draws = iter(random.Random(0).choices(elems, k=4000))
    sampled = calls[1 + count : 1 + count + 4000]
    assert sampled[::2] == list(zip(draws, draws))
    assert sampled[1::2] == [(b, a) for a, b in sampled[::2]]


def test_sampled_kernel_judges_the_mutants_as_the_loop_does():
    # the table proof against the sampled loop on two groups past the
    # exhaustive regime: 243 and 1,024 elements
    rejected = 0
    for q, n, d in SAMPLED_LAWS:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        assert (law.ring.size ** len(law.exps)) ** 2 > cft_oracle.PAIR_CHECK_LIMIT
        for dropped, mutant in one_pair_dropped(law):
            got, want = proof_and_pairwise(mutant, cft_oracle.sampled_commutes)
            assert got == want, (q, n, d, dropped)
            assert (got is None) == (dropped[0] == dropped[1])
            rejected += got is not None
    assert rejected == 10


def test_sampled_kernel_and_ladder_refuse_an_index_out_of_range():
    # addition mod 3 on the indices of F_2, with 2^8 = 256 elements: the
    # proof refuses the add table, and the sampled loop and the ladder
    # loop refuse the law's products
    add3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    ring = types.SimpleNamespace(size=2, p=2, _add=add3, _mul=F2._mul, _neg=F2._neg)
    law = _DenseLaw(ring, 1, 9)
    elems = list(_coefficient_tuples(2, len(law.exps)))
    assert len(elems) == 256
    assert outcome(law.prove) == (NotClosed, "the add table leaves the ring's indices")
    got = outcome(lambda: cft_oracle.brute_force_structure(elems, law.op))
    assert got == outcome(lambda: cft_oracle.sampled_commutes(elems, law.op))
    assert got[0] is NotClosed and got[1].endswith("left the set")
    got = outcome(lambda: cft_oracle.loop_powers(elems, 2, law.op, set(elems)))
    assert got == (NotClosed, f"powers of {elems[1]!r} left the set")


def test_ladder_kernel_gives_the_loop_images_on_pi1_grid():
    for n, q, d in PI1_GRID:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        elems = list(_coefficient_tuples(law.ring.size, len(law.exps)))
        members = set(elems)
        assert cft._prime_factors(len(elems)) == [law.ring.p]
        level = elems
        while True:
            image = law.powers(level, law.ring.p)
            assert image == cft_oracle.loop_powers(level, law.ring.p, law.op, members), (n, q, d)
            if len(image) == len(level):
                break
            level = image


def cyclic_product(*orders):
    elems = list(itertools.product(*(range(m) for m in orders)))
    return elems, lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, orders))


@pytest.mark.parametrize(
    "orders,factors",
    [
        ((6, 4), (2, 12)),
        ((2, 3, 9), (3, 18)),
        ((4, 6, 10), (2, 2, 60)),
        ((5, 25, 3), (5, 75)),
        ((7,), (7,)),
        ((2, 2, 2, 8, 3), (2, 2, 2, 24)),
    ],
)
def test_ladder_on_mixed_prime_groups(orders, factors):
    elems, op = cyclic_product(*orders)
    got = cft_oracle.brute_force_structure(elems, op)
    want = cft_oracle.greedy_structure(elems, op)
    assert got == want and got.invariant_factors == factors
    assert got.witnesses == want.witnesses


def test_ladder_matches_greedy_reference_on_pi1_grid():
    for n, q, d in PI1_GRID:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        elems = list(_coefficient_tuples(law.ring.size, len(law.exps)))
        for op in (law.op, functools.partial(cft_oracle.loop_op, law)):
            got = cft_oracle.brute_force_structure(elems, op)
            want = cft_oracle.greedy_structure(elems, op)
            assert got == want, (n, q, d)
            assert got.witnesses == want.witnesses, (n, q, d)


# (n, d) from rank 0 (d = 1) and d = 2, where no coordinate has a pair
BOX_SHAPES = [(n, d) for n in (1, 2, 3) for d in (1, 2, 3, 4)]


def small_boxes(ring, limit):
    """The shapes of BOX_SHAPES whose box over ``ring`` has at most
    ``limit`` elements, with their ranks."""
    for n, d in BOX_SHAPES:
        rank = cft._group_rank(n, d)
        if ring.size**rank <= limit:
            yield n, d, rank


def test_box_powers_match_the_level_kernel_and_the_loops(any_ring):
    # ell = 2, 3 and 5: a multiple of p, whose last coordinate the nest
    # holds at 0, and primes prime to p, which it loops over
    ranks = set()
    for n, d, rank in small_boxes(any_ring, 2048):
        law = _DenseLaw(any_ring, n, d)
        box = list(_coefficient_tuples(any_ring.size, rank))
        loop_op = functools.partial(cft_oracle.loop_op, law)
        for ell in (2, 3, 5):
            want = cft_oracle.loop_powers(box, ell, loop_op, set(box))
            assert law.box_powers(ell) == law.powers(box, ell) == want, (n, d, ell)
        ranks.add(rank)
    assert {0, 1, 2} <= ranks


def test_box_oracle_matches_witt_add_reference(any_ring):
    for n, d, _ in small_boxes(any_ring, 256):
        got = witt_group_structure_brute(any_ring, n, d)
        want = cft_oracle.witt_group_structure_brute(any_ring, n, d)
        assert got == want, (n, d)
        assert got.witnesses == want.witnesses, (n, d)


def nest_results(ring, n, d, frob):
    """What the loop nests of a fresh law of (ring, n, d) compute."""
    law = _DenseLaw(ring, n, d)
    return [law.box_powers(2), law.box_powers(3), law.lang_pass(frob)]


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_nests_past_the_depth_limit_loop_over_product_tuples(monkeypatch, depth):
    # the nest loops over the coordinates from NEST_DEPTH on as one loop
    # over their product tuples
    F4 = CoeffRing.make(4)
    frob = [F4.rfrob(c, 2) for c in F4.element_indices()]
    shapes = [(F4, 1, 5), (F4, 2, 3), (F2, 1, 9)]
    want = [nest_results(ring, n, d, frob[: ring.size]) for ring, n, d in shapes]
    monkeypatch.setattr(dense, "NEST_DEPTH", depth)
    for (ring, n, d), results in zip(shapes, want):
        assert nest_results(ring, n, d, frob[: ring.size]) == results, (ring.size, n, d)


def test_largest_admitted_shapes_compile_and_run():
    # CPython refuses more than 20 statically nested blocks: the oracle at
    # rank 18 and the census at rank 19, the largest their limits admit
    assert (cft._group_rank(1, 19), cft._group_rank(1, 20)) == (18, 19)
    assert 2**18 <= cft.BRUTE_FORCE_LIMIT < 2**19 <= cft.CENSUS_LIMIT < 2**20
    assert dense.NEST_DEPTH + 1 < 20
    s = witt_group_structure_brute(F2, 1, 19)
    assert s.order == 2**18
    assert s.invariant_factors == pi1_truncated(1, 2, 19).invariant_factors
    census = lang_kernel_census(1, 2, 1, 20)
    assert census.total == census.kernel == 2**19 and census.matches
    # past the limits, rank 23 nests compile, where 23 nested loops would not
    law = _DenseLaw(F2, 1, 24)
    assert len(law.pairs) == 23
    for box in (False, True):
        dense._compile_powers(law.pairs, F2, 2, box)
    dense._compile_lang_pass(law.pairs, F2)


# 16 and 256 elements over F_4, 1,024 over F_4 in two variables and
# 4,096 over F_8: the reference checks every pair of the 16-element
# groups and draws pairs from the rest
CENSUS_REGIMES = [(1, 2, 2, 3), (2, 2, 2, 2), (1, 2, 2, 5), (2, 2, 2, 3), (1, 2, 3, 5)]


def assert_census_matches_reference(got, want):
    """The census agrees with the reference on everything it counts, and
    reports every pair of its group as covered by the endomorphism proof,
    where the reference checks only its own pairs."""
    fields = ("total", "kernel", "expected_kernel", "kernel_is_rational", "matches")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert got.endomorphism_pairs_checked == got.total**2


@pytest.mark.parametrize("n,q,s,d", CENSUS_REGIMES)
def test_census_matches_witt_add_reference_in_every_regime(n, q, s, d):
    for seed in range(5):
        got, want = lang_kernel_census(n, q, s, d, seed), cft_oracle.lang_kernel_census(n, q, s, d, seed)
        assert_census_matches_reference(got, want)
        # the seed changes no output of the census
        assert got == lang_kernel_census(n, q, s, d), seed


def test_witnesses_are_peeled_only_when_read(monkeypatch):
    peeled = []
    peel = cft._peel_witnesses

    def counting(*args):
        peeled.append(args)
        return peel(*args)

    monkeypatch.setattr(cft, "_peel_witnesses", counting)
    s = witt_group_structure_brute(CoeffRing.make(3), 1, 5)
    assert s.invariant_factors == (3, 3, 9) and peeled == []
    assert len(s.witnesses) == 3 and len(peeled) == 1


def test_formula_matches_ladder_past_ten_thousand():
    # 2^14 = 16,384 elements, beyond the acceptance grid's 10^4
    s = witt_group_structure_brute(F2, 2, 5)
    assert s.order == 2**14
    assert s.invariant_factors == pi1_truncated(2, 2, 5).invariant_factors


def test_census_enumeration_order_is_the_witt_enumeration_order():
    # the library's tuples list the group in the order the reference
    # census enumerates it
    law = _DenseLaw(CoeffRing.make(4), 1, 4)
    tuples = _coefficient_tuples(4, len(law.exps))
    assert [law.to_witt(x) for x in tuples] == list(
        enumerate_witt_elements(CoeffRing.make(4), 1, 4)
    )


def faulty_ring(ring, **tables):
    """The tables of ``ring`` with ``tables`` in place of its own."""
    faulty = types.SimpleNamespace(**{k: getattr(ring, k) for k in ("size", "p", "_add", "_mul", "_neg")})
    vars(faulty).update(tables)
    return faulty


def patch_law(monkeypatch, **tables):
    """Census laws over F_4 compiled from its tables with ``tables`` in
    place of the ring's own."""

    def patched(ring, n, d):
        assert ring.size == 4
        return _DenseLaw(faulty_ring(ring, **tables), n, d)

    monkeypatch.setattr(dense, "_dense_law", patched)


def test_census_product_outside_the_group_is_not_closed(monkeypatch):
    # every sum is 5, so every product is (5, 5), outside the box of F_4
    patch_law(monkeypatch, _add=[[5] * 6] * 6, _neg=[0] * 6)
    with pytest.raises(NotClosed):
        lang_kernel_census(1, 2, 2, 3)


# 16, 256 and 4,096 elements
@pytest.mark.parametrize("d", [3, 5, 7])
def test_census_rejects_a_lang_map_that_is_no_endomorphism(monkeypatch, d):
    # an all-ones negation table makes every inverse (1, .., 1) = c, so
    # the Lang map is x -> Frob(x) * c with a constant c != 1
    patch_law(monkeypatch, _neg=[1] * 4)
    with pytest.raises(NotAbelian):
        lang_kernel_census(1, 2, 2, d)


@pytest.mark.parametrize("d", [4, 5])
def test_census_refuses_a_law_whose_pairs_do_not_commute(monkeypatch, d):
    # the law of F_4 itself with the pair (0, d - 3) dropped from its last
    # coordinate: the table proof names that coordinate before any pass
    def patched(ring, n, d):
        law = _DenseLaw(ring, n, d)
        k = len(law.pairs) - 1
        law.pairs[k] = law.pairs[k][1:]
        return law

    monkeypatch.setattr(dense, "_dense_law", patched)
    monkeypatch.setattr(_DenseLaw, "lang_pass", None)
    refusal = rf"^coordinate {d - 2} of the law takes x_{d - 3} y_0 1 times and x_0 y_{d - 3} 0 times"
    with pytest.raises(NotAbelian, match=refusal):
        lang_kernel_census(1, 2, 2, d)


# 16 elements, and 4,096, where the pass must look past pruned prefixes
@pytest.mark.parametrize("d", [3, 7])
def test_census_reports_a_kernel_that_is_not_rational(monkeypatch, d):
    # a zero mul table makes the law coordinatewise addition, and a
    # negation table that takes c to -F(c) at c = 0, 2 and to 1 - F(c) at
    # c = 1, 3 makes the Lang value F(x) + neg(x) vanish exactly on
    # {0, 2}^rank: a kernel of q^rank elements, only one fixed by F, that
    # a pass must find past the values at 1 of each coordinate.  The
    # census refuses that negation table, which is no additive inverse.
    F4 = CoeffRing.make(4)
    frob = [F4.rfrob(c, 2) for c in range(4)]
    neg = [F4._neg[c] for c in frob]
    neg[1], neg[3] = F4._add[neg[1]][1], F4._add[neg[3]][1]
    tables = {"_mul": [[0] * 4] * 4, "_neg": neg}
    assert _DenseLaw(faulty_ring(F4, **tables), 1, d).lang_pass(frob) == (2 ** (d - 1), False)
    patch_law(monkeypatch, **tables)
    with pytest.raises(NotAbelian, match="^the negation table is not the additive inverse$"):
        lang_kernel_census(1, 2, 2, d)


def test_exact_log():
    assert cft._exact_log(2, 8, 2) == 2 and cft._exact_log(3, 5, 5) == 0
    assert cft._exact_log(2, 6, 1) is None and cft._exact_log(3, 9, 2) is None


def test_oracle_matches_witt_add_reference_on_pi1_grid():
    for n, q, d in PI1_GRID:
        ring = CoeffRing.make(q)
        got = witt_group_structure_brute(ring, n, d)
        want = cft_oracle.witt_group_structure_brute(ring, n, d)
        assert got == want, (n, q, d)
        assert got.witnesses == want.witnesses, (n, q, d)


def test_census_matches_witt_add_reference_on_lang_grid():
    # the reference draws its pairs from the seed only past 200 elements,
    # on shapes that CENSUS_REGIMES runs at seeds 0-4
    for n, q, s, d in [(1, 2, 2, 3)] + LANG_GRID:
        want = cft_oracle.lang_kernel_census(n, q, s, d)
        assert_census_matches_reference(lang_kernel_census(n, q, s, d), want)

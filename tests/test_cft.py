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
    brute_force_structure,
    cft,
    lang_kernel_census,
    modulus_group,
    pi1_truncated,
    transition_surjective,
    witt_add,
    witt_group_structure_brute,
    witt_neg,
)
from multiwitt.cli import main
from multiwitt.errors import SchemaError
from multiwitt.cft import _coefficient_tuples, _DenseLaw, generator_order_exponent
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
        # the span, on the raw tuples of the dense law
        law = cft._dense_law(ring, n, d)
        raw = brute_force_structure(_coefficient_tuples(q, len(law.exps)), law.op, law)
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
    s = brute_force_structure(elems, lambda a, b: (a[0] * b[0], a[1] * b[1]))
    assert s.invariant_factors == (2, 2) and s.order == 4


def test_trivial_group():
    s = brute_force_structure([0], lambda a, b: 0)
    assert s.invariant_factors == () and s.order == 1


def test_cyclic_group_with_witness():
    elems = list(range(8))
    s = brute_force_structure(elems, lambda a, b: (a + b) % 8)
    assert s.invariant_factors == (8,)
    assert s.witnesses[0] % 2 == 1  # a generator of Z/8 is odd


def test_mixed_cyclic():
    elems = list(itertools.product(range(2), range(4)))
    s = brute_force_structure(elems, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 4))
    assert s.invariant_factors == (2, 4)


def test_not_abelian_detected():
    perms = list(itertools.permutations(range(3)))
    with pytest.raises(NotAbelian):
        brute_force_structure(perms, lambda a, b: tuple(a[b[i]] for i in range(3)))


def test_not_closed_detected():
    with pytest.raises(NotClosed):
        brute_force_structure([1, 2], lambda a, b: a * b)


def test_duplicates_refused_where_the_loops_run(monkeypatch):
    """The loops over op refuse an element listed twice.  The law's proof
    path reads only the count, of its own box listed once, and builds no
    set of members; a list one longer than the box goes to the loops."""
    with pytest.raises(NotClosed, match="duplicate elements"):
        brute_force_structure([0, 1, 1, 0], lambda a, b: (a + b) % 2)
    law = _DenseLaw(CoeffRing.make(2), 1, 4)
    elems = list(_coefficient_tuples(2, len(law.exps)))
    with pytest.raises(NotClosed, match="duplicate elements"):
        brute_force_structure(elems + elems[:1], law.op, law)
    monkeypatch.setattr(cft, "set", lambda *_: pytest.fail("a member set was built"), raising=False)
    assert brute_force_structure(elems, law.op, law).invariant_factors == (2, 4)


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
        brute_force_structure(elems, op)


def test_brute_force_size_limit():
    assert cft.BRUTE_FORCE_LIMIT == 2**18
    with pytest.raises(TooLarge):
        brute_force_structure(range(2**18 + 1), lambda a, b: 0)


def test_brute_force_takes_one_element_past_the_limit():
    def op(a, b):
        raise AssertionError("a group operation ran")

    elements = itertools.count()
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"at least 262145 elements, beyond limit 262144$"):
        brute_force_structure(elements, op)
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

    monkeypatch.setattr(cft, "exponents_below", no_box)
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
            x, y = law.random(rng), law.random(rng)
            a, b = law.to_witt(x), law.to_witt(y)
            assert law.to_witt(law.op(x, y)) == witt_add(a, b)
            assert law.to_witt(law.inv(x)) == witt_neg(a)


def test_dense_draw_matches_random_witt_element(any_ring):
    law = _DenseLaw(any_ring, 2, 4)
    dense_rng, witt_rng = random.Random(3), random.Random(3)
    for _ in range(20):
        x = law.random(dense_rng)
        assert law.to_witt(x) == random_witt_element(any_ring, 2, 4, witt_rng)


def check_against_loop_law(law, rng, count):
    for _ in range(count):
        x, y = law.random(rng), law.random(rng)
        assert law.op(x, y) == cft_oracle.loop_op(law, x, y)
        assert law.inv(x) == cft_oracle.loop_inv(law, x)


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
        assert law.exps == [] and law.op((), ()) == () and law.inv(()) == ()
    assert witt_group_structure_brute(F2, 1, 1) == cft.AbelianGroupStructure((), 1)


def test_law_is_built_once_per_shape():
    assert cft._dense_law(F2, 2, 3) is cft._dense_law(CoeffRing.make(2), 2, 3)
    assert cft._dense_law(F2, 2, 3) is not cft._dense_law(F2, 2, 4)


def test_brute_force_same_on_loop_and_compiled_law():
    for n, q, d in PI1_GRID:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        size, rank = law.ring.size, len(law.exps)
        got = brute_force_structure(_coefficient_tuples(size, rank), law.op)
        want = brute_force_structure(
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


def proof_and_pairwise(pairs, ring, reference=cft_oracle.pairwise_commutes):
    """The outcomes of the table proof and of the loop ``reference`` on the
    law of ``pairs`` over the whole set range(size)^rank."""
    op, _ = cft._compile_law(pairs, ring)
    elems = list(_coefficient_tuples(ring.size, len(pairs)))
    proof = commute_outcome(lambda: cft._proves_group(pairs, ring))
    return proof, commute_outcome(lambda: reference(elems, op))


def test_commutes_kernel_accepts_where_pairwise_does_on_pi1_grid():
    # the table proof in place of the compiled kernel, on the laws whose
    # pairs the exhaustive loop can afford
    exhaustive = [
        (n, q, d)
        for n, q, d in PI1_GRID
        if (q ** cft._group_rank(n, d)) ** 2 <= cft.PAIR_CHECK_LIMIT
    ]
    assert (1, 2, 8) in exhaustive and len(exhaustive) == 26
    for n, q, d in exhaustive:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        assert cft._proves_group(law.pairs, law.ring) is True, (n, q, d)
        assert proof_and_pairwise(law.pairs, law.ring) == (None, None), (n, q, d)


def test_proof_accepts_every_law_on_pi1_and_lang_grids():
    laws = {(q, n, d) for n, q, d in PI1_GRID}
    laws |= {(q**s, n, d) for n, q, s, d in LANG_GRID}
    for q, n, d in sorted(laws):
        law = cft._dense_law(CoeffRing.make(q), n, d)
        count = law.ring.size ** len(law.exps)
        assert law.group_identity(count) == (0,) * len(law.exps), (q, n, d)
        assert law.group_identity(count - 1) is None


# (q, n, d): the laws whose one-pair-dropped mutants the proof and the
# exhaustive loop must judge alike
MUTATED_LAWS = [(2, 1, 8), (3, 1, 4), (4, 1, 4), (2, 2, 3), (2, 1, 5)]
# past the exhaustive regime (243 and 1,024 elements): the sampled loop
SAMPLED_LAWS = [(3, 1, 6), (4, 2, 3)]


def one_pair_dropped(law):
    """Every law made from ``law`` by dropping one pair of one coordinate."""
    for k, ks in enumerate(law.pairs):
        for drop in range(len(ks)):
            pairs = [list(p) for p in law.pairs]
            del pairs[k][drop]
            yield ks[drop], pairs


def test_commutes_kernel_rejects_the_mutants_pairwise_rejects():
    rejected = 0
    for q, n, d in MUTATED_LAWS:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        for dropped, pairs in one_pair_dropped(law):
            proof, pairwise = proof_and_pairwise(pairs, law.ring)
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
        for dropped, pairs in one_pair_dropped(_DenseLaw(ring, n, d)):
            try:
                cft._proves_group(pairs, ring)
            except NotAbelian as exc:
                found = re.fullmatch(
                    r"coordinate (\d+) of the law takes x_(\d+) y_(\d+) \d+ times"
                    r" and x_\3 y_\2 \d+ times, apart modulo \d+",
                    str(exc),
                )
                k, i, j = map(int, found.groups())
                op, _ = cft._compile_law(pairs, ring)
                e_i, e_j = (tuple(ring.one * (t == v) for t in range(len(pairs))) for v in (i, j))
                assert op(e_i, e_j)[k] != op(e_j, e_i)[k], (q, n, d, dropped)
                named += 1
    assert named == 38


def test_commutes_kernel_refuses_an_index_out_of_range():
    # addition mod 3 on the indices of F_2: 1 + 1 leaves range(2); the
    # proof does not apply to such a table, and the loops over op refuse
    add3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    ring = types.SimpleNamespace(size=2, p=2, _add=add3, _mul=F2._mul, _neg=F2._neg)
    law = _DenseLaw(ring, 1, 5)
    elems = list(_coefficient_tuples(2, len(law.exps)))
    assert cft._proves_group(law.pairs, ring) is False
    assert law.group_identity(len(elems)) is None
    assert commute_outcome(lambda: cft_oracle.pairwise_commutes(elems, law.op)) is NotClosed
    with pytest.raises(NotClosed, match=r"left the set$"):
        brute_force_structure(elems, law.op, law)
    with pytest.raises(NotClosed, match=r"left the set$"):
        brute_force_structure(elems, law.op)


def test_proof_applies_only_to_a_closed_coeff_ring(monkeypatch):
    law = _DenseLaw(F2, 1, 5)
    table = types.SimpleNamespace(size=2, p=2, _add=F2._add, _mul=F2._mul, _neg=F2._neg)
    assert cft._proves_group(law.pairs, F2) is True
    assert cft._proves_group(law.pairs, table) is False
    monkeypatch.setattr(cft, "_closed", lambda ring: False)
    assert cft._proves_group(law.pairs, F2) is False


def test_proof_needs_zero_to_be_the_identity(monkeypatch):
    # F_2 with its two indices swapped: a closed table whose index 0 is the
    # ring's one, so the zero tuple is no identity and the loops run
    swapped = types.SimpleNamespace(
        size=2, p=2, _add=[[1, 0], [0, 1]], _mul=[[0, 1], [1, 1]], _neg=[0, 1]
    )
    monkeypatch.setattr(cft, "CoeffRing", types.SimpleNamespace)
    law = _DenseLaw(swapped, 1, 5)
    elems = list(_coefficient_tuples(2, len(law.exps)))
    assert cft._proves_group(law.pairs, swapped) is False
    got = brute_force_structure(elems, law.op, law)
    assert got.invariant_factors == witt_group_structure_brute(F2, 1, 5).invariant_factors
    assert got.witnesses == brute_force_structure(elems, law.op).witnesses


def test_commutes_kernel_is_compiled_only_by_the_exhaustive_check(monkeypatch, capsys):
    # no commutativity kernel is compiled any more: the oracle runs the
    # table proof once per law and compiles only the ladder
    compiled = []
    compile_powers, proves_group = cft._compile_powers, cft._proves_group

    def powers_counted(pairs, ring, ell):
        compiled.append(("powers", ring.size, len(pairs)))
        return compile_powers(pairs, ring, ell)

    def proof_counted(pairs, ring):
        compiled.append(("proof", ring.size, len(pairs)))
        return proves_group(pairs, ring)

    monkeypatch.setattr(cft, "_compile_powers", powers_counted)
    monkeypatch.setattr(cft, "_proves_group", proof_counted)
    cft._dense_law.cache_clear()
    lang_kernel_census(1, 2, 2, 3)
    lang_kernel_census(1, 2, 2, 5)
    pi1_truncated(1, 2, 8)
    pi1_truncated(2, 4, 3)
    for n, q, d in ((1, 2, 8), (2, 4, 3)):
        assert main(["pi1", "--n", str(n), "--q", str(q), "--d", str(d)]) == 0
    capsys.readouterr()
    assert compiled == []
    # 1,024 elements, past the exhaustive regime of the loops
    for _ in range(2):
        assert witt_group_structure_brute(CoeffRing.make(4), 2, 3).order == 1024
    assert compiled == [("proof", 4, 5), ("powers", 4, 5)]
    compiled.clear()
    # 128 elements
    for _ in range(2):
        assert witt_group_structure_brute(F2, 1, 8).invariant_factors == (2, 2, 4, 8)
    assert compiled == [("proof", 2, 7), ("powers", 2, 7)]
    cft._dense_law.cache_clear()
    witt_group_structure_brute(F2, 1, 8)
    assert compiled == [("proof", 2, 7), ("powers", 2, 7)] * 2


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
    brute_force_structure(elems, op)
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
        assert (law.ring.size ** len(law.exps)) ** 2 > cft.PAIR_CHECK_LIMIT
        for dropped, pairs in one_pair_dropped(law):
            got, want = proof_and_pairwise(pairs, law.ring, cft_oracle.sampled_commutes)
            assert got == want, (q, n, d, dropped)
            assert (got is None) == (dropped[0] == dropped[1])
            rejected += got is not None
    assert rejected == 10


def test_sampled_kernel_and_ladder_refuse_an_index_out_of_range():
    # addition mod 3 on the indices of F_2, with 2^8 = 256 elements: the
    # proof does not apply, and the sampled loop and the ladder loop refuse
    add3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    ring = types.SimpleNamespace(size=2, p=2, _add=add3, _mul=F2._mul, _neg=F2._neg)
    law = _DenseLaw(ring, 1, 9)
    elems = list(_coefficient_tuples(2, len(law.exps)))
    assert len(elems) == 256 and law.group_identity(len(elems)) is None
    got = outcome(lambda: brute_force_structure(elems, law.op, law))
    assert got == outcome(lambda: brute_force_structure(elems, law.op))
    assert got == outcome(lambda: cft_oracle.sampled_commutes(elems, law.op))
    assert got[0] is NotClosed and got[1].endswith("left the set")
    got = outcome(lambda: cft._powers(elems, 2, law.op, set(elems)))
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
            assert image == cft._powers(level, law.ring.p, law.op, members), (n, q, d)
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
    got = brute_force_structure(elems, op)
    want = cft_oracle.greedy_structure(elems, op)
    assert got == want and got.invariant_factors == factors
    assert got.witnesses == want.witnesses


def test_ladder_matches_greedy_reference_on_pi1_grid():
    for n, q, d in PI1_GRID:
        law = _DenseLaw(CoeffRing.make(q), n, d)
        elems = list(_coefficient_tuples(law.ring.size, len(law.exps)))
        for op in (law.op, functools.partial(cft_oracle.loop_op, law)):
            got = brute_force_structure(elems, op)
            want = cft_oracle.greedy_structure(elems, op)
            assert got == want, (n, q, d)
            assert got.witnesses == want.witnesses, (n, q, d)


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
    # a seed draws the same members from both censuses' lists
    law = _DenseLaw(CoeffRing.make(4), 1, 4)
    tuples = _coefficient_tuples(4, len(law.exps))
    assert [law.to_witt(x) for x in tuples] == list(
        enumerate_witt_elements(CoeffRing.make(4), 1, 4)
    )


def patch_law(monkeypatch, op=None, inv=None):
    make = cft._dense_law

    def patched(ring, n, d):
        law = make(ring, n, d)
        return types.SimpleNamespace(op=op or law.op, inv=inv or law.inv, random=law.random)

    monkeypatch.setattr(cft, "_dense_law", patched)


def test_census_product_outside_the_group_is_not_closed(monkeypatch):
    patch_law(monkeypatch, op=lambda x, y: (5,) * len(x))
    with pytest.raises(NotClosed):
        lang_kernel_census(1, 2, 2, 3)


# 16 elements, every pair; 256, sampled members; 4096, drawn coefficients
@pytest.mark.parametrize("d", [3, 5, 7])
def test_census_rejects_a_lang_map_that_is_no_endomorphism(monkeypatch, d):
    # x -> Frob(x) * c with a constant c != 1
    patch_law(monkeypatch, inv=lambda x: (1,) * len(x))
    with pytest.raises(NotAbelian):
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
    for n, q, s, d in [(1, 2, 2, 3)] + LANG_GRID:
        want = cft_oracle.lang_kernel_census(n, q, s, d)
        assert lang_kernel_census(n, q, s, d) == want, (n, q, s, d)

"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output).  Random cases use fixed seeds so failures replay.
"""

import random
from contextlib import contextmanager
from itertools import product

import pytest
from series_oracle import copy_with

from multiwitt import (
    CoeffRing,
    FormalWittElement,
    NotAUnit,
    TruncatedSeries,
    WittCoordinates,
    WittElement,
    artin_hasse_coefficients,
    cartier_pair,
    decompose,
    from_coordinates,
    geometric_pair,
    is_polynomial_unit,
    lang_kernel_census,
    pairing_via_components,
    pi1_truncated,
    pi_epsilon,
    pi_epsilon_inverse,
    separates,
    unit_class,
    witt_add,
    witt_coordinates,
    witt_group_structure_brute,
    witt_mul,
)
from multiwitt.duality import random_formal_element
from multiwitt.series import exponents_below
from multiwitt.witt import enumerate_witt_elements, random_witt_element


@contextmanager
def criterion(k, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {k} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {k} ({name}): PASS")


def test_criterion_1_witt_ring_axioms():
    with criterion(1, "one-variable ring axioms, 1000 random triples per field"):
        for q in (2, 3, 4, 5):
            ring = CoeffRing.make(q)
            rng = random.Random(1000 + q)
            for _ in range(1000):
                d = rng.randrange(2, 11)
                a = random_witt_element(ring, 1, d, rng)
                b = random_witt_element(ring, 1, d, rng)
                c = random_witt_element(ring, 1, d, rng)
                ab = witt_mul(a, b)
                assert ab == witt_mul(b, a)
                assert witt_mul(ab, c) == witt_mul(a, witt_mul(b, c))
                lhs = witt_mul(a, witt_add(b, c))
                assert lhs == witt_add(witt_mul(a, b), witt_mul(a, c))
                one = WittElement.binomial(ring, 1, d, (1,), ring.one)
                assert witt_mul(one, a) == a


def test_criterion_2_unique_decomposition():
    with criterion(2, "coordinate factorization round-trips"):
        for q, d in ((2, 3), (2, 4), (3, 3)):
            ring = CoeffRing.make(q)
            for lam in enumerate_witt_elements(ring, 1, d):
                assert from_coordinates(witt_coordinates(lam)) == lam
        rng = random.Random(2)
        configs = [
            (CoeffRing.make(2), 1, 8),
            (CoeffRing.make(3), 2, 5),
            (CoeffRing.make(4), 1, 6),
            (CoeffRing.make(5), 3, 3),
            (CoeffRing.make(2, nil=2), 2, 4),
            (CoeffRing.make(3, nil=3), 1, 5),
            (CoeffRing.make(4, nil=2), 2, 3),
            (CoeffRing.make(9), 1, 4),
            (CoeffRing.make(5, nil=2), 1, 5),
            (CoeffRing.make(2, nil=3), 3, 3),
        ]
        for i in range(1000):
            ring, n, d = configs[i % len(configs)]
            lam = random_witt_element(ring, n, d, rng)
            assert from_coordinates(witt_coordinates(lam)) == lam


def test_criterion_3_decomposition_isomorphism():
    with criterion(3, "one-variable component splitting, 500 random pairs"):
        rng = random.Random(3)
        rings = [
            CoeffRing.make(2),
            CoeffRing.make(3),
            CoeffRing.make(4),
            CoeffRing.make(5),
            CoeffRing.make(2, nil=2),
            CoeffRing.make(3, nil=2),
        ]
        shapes = [(2, d) for d in range(2, 7)] + [(3, d) for d in range(2, 7)]
        for i in range(500):
            ring = rings[i % len(rings)]
            n, d = shapes[i % len(shapes)]
            a = random_witt_element(ring, n, d, rng)
            b = random_witt_element(ring, n, d, rng)
            fam_a = decompose(a)
            assert fam_a.recompose() == a
            fam_b = decompose(b)
            fam_sum = decompose(witt_add(a, b))
            assert set(fam_sum.components) == set(fam_a.components)
            for nu in fam_sum.components:
                assert fam_sum.components[nu] == witt_add(
                    fam_a.components[nu], fam_b.components[nu]
                )


def test_criterion_4_pairing_route_agreement():
    with criterion(4, "algebraic = geometric pairing, 500 pairs per ring"):
        rng = random.Random(4)
        for q in (2, 3, 4, 5):
            for e in (2, 3):
                ring = CoeffRing.make(q, nil=e)
                base = CoeffRing.make(q)
                max_deg = 3 if e == 2 else 2
                dg = max_deg * (e - 1) + 2
                run_components = ring.p in (2, 3)
                for _ in range(500):
                    f = random_formal_element(ring, 1, max_deg, rng)
                    g = random_witt_element(base, 1, dg, rng)
                    va = cartier_pair(f, g)
                    assert geometric_pair(f, g, dg - 1) == va
                    if run_components:
                        assert pairing_via_components(f, g) == va
                    assert ring.is_unit_raw(va.raw)
                    assert ring.is_nilpotent_raw(ring.rsub(va.raw, ring.one))


def test_criterion_5_artin_hasse_integrality_and_factor_solver():
    with criterion(5, "Artin-Hasse integrality and factor-solver bijection"):
        for p in (2, 3, 5):
            coeffs = artin_hasse_coefficients(p, 16)
            assert len(coeffs) == 16
            assert all(c.denominator % p != 0 for c in coeffs)
        ring = CoeffRing.make(2)
        for d in range(2, 9):
            seen = set()
            for lam in enumerate_witt_elements(ring, 1, d):
                fam = pi_epsilon_inverse(lam)
                key = tuple((j, fam[j].entries) for j in sorted(fam))
                assert key not in seen
                seen.add(key)
                assert pi_epsilon(fam, ring, d) == lam
            assert len(seen) == 2 ** (d - 1)


PI1_GRID = sorted(
    {
        (n, q, d)
        for n in (1, 2, 3)
        for q in (2, 3, 4, 5)
        for d in range(2, 9)
        if q ** len([e for e in exponents_below(n, d) if sum(e) > 0]) <= 10**4
    }
)


def test_criterion_6_fundamental_group_structure():
    with criterion(6, f"invariant factors match the oracle on {len(PI1_GRID)} configs"):
        anchors = {
            (1, 2, 3): (4,),
            (1, 3, 3): (3, 3),
            (2, 2, 2): (2, 2),
        }
        for (n, q, d), expect in anchors.items():
            assert pi1_truncated(n, q, d).invariant_factors == expect
        for n, q, d in PI1_GRID:
            formula = pi1_truncated(n, q, d)
            oracle = witt_group_structure_brute(CoeffRing.make(q), n, d)
            assert formula.invariant_factors == oracle.invariant_factors, (n, q, d)
            assert formula.order == oracle.order


LANG_GRID = [
    (1, 2, 2, 4),
    (1, 2, 2, 5),
    (1, 2, 3, 3),
    (1, 3, 2, 3),
    (1, 4, 2, 2),
    (1, 5, 2, 2),
    (2, 2, 2, 2),
    (2, 2, 2, 3),
    (3, 2, 2, 2),
    (1, 2, 1, 4),
]


def test_criterion_7_lang_kernel_census():
    with criterion(7, "Lang kernel sizes across censuses"):
        c = lang_kernel_census(1, 2, 2, 3)
        assert c.total == 16 and c.kernel == 4 and c.matches
        for n, q, s, d in LANG_GRID:
            census = lang_kernel_census(n, q, s, d)
            assert census.matches, (n, q, s, d, census)
            m = len([e for e in exponents_below(n, d) if sum(e) > 0])
            assert census.kernel == q**m


def test_criterion_8_unit_criterion_exhaustive():
    with criterion(8, "polynomial unit criterion, exhaustive small scan"):
        ring = CoeffRing.make(2, nil=2)
        rng = random.Random(8)
        rejected = []
        for n in (1, 2):
            exps = list(exponents_below(n, 3))
            for combo in product(range(ring.size), repeat=len(exps)):
                terms = {e: c for e, c in zip(exps, combo) if c}
                poly = TruncatedSeries(ring, n, 3, terms, exact=True)
                expected = is_polynomial_unit(poly)
                try:
                    uc = unit_class(poly)
                    accepted = True
                except NotAUnit:
                    accepted = False
                assert accepted == expected
                if accepted:
                    # constructive witness: the representative inverts
                    rep = uc.representative
                    inv = rep.series.extend(5).inv()
                    assert inv.exact
                    assert rep.series.extend(5).mul(inv) == TruncatedSeries.one(
                        ring, n, 5, exact=True
                    )
                elif n == 2:
                    rejected.append(poly)
        # sampled rejected polynomials really have no inverse of degree <= 2
        exps2 = list(exponents_below(2, 3))
        sample = rng.sample(rejected, 12)
        for poly in sample:
            big = copy_with(poly, d=5)
            for combo in product(range(ring.size), repeat=len(exps2)):
                cand = TruncatedSeries(
                    ring, 2, 5, {e: c for e, c in zip(exps2, combo) if c}
                )
                prod = big.mul(cand)
                assert prod.terms != {(0, 0): 1}, (poly, cand)


def test_criterion_9_nondegeneracy_probe():
    with criterion(9, "pairing separates the small one-variable groups"):
        base = CoeffRing.make(2)
        probe_ring = CoeffRing.make(2, nil=3)
        eps = probe_ring.eps_raw
        eps2 = probe_ring.rmul(eps, eps)

        def probe(terms):
            deg = max(sum(e) for e in terms) + 1
            full = {(0,): 1}
            full.update(terms)
            return FormalWittElement(
                TruncatedSeries(probe_ring, 1, deg, full, exact=True)
            )

        probe_sets = {3: [probe({(1,): eps})], 4: [probe({(1,): eps}), probe({(3,): eps2})]}
        for d, fs in probe_sets.items():
            # probes must be functionals on the level-d quotient
            for f in fs:
                for j in range(d, 2 * d + 2):
                    g = WittElement.binomial(base, 1, 2 * d + 4, (j,), 1)
                    assert cartier_pair(f, g).raw == probe_ring.one
            # canonical lifts of the quotient, then exhaustive separation
            lifts = []
            for combo in product(range(2), repeat=d - 1):
                coords = {(k,): c for k, c in enumerate(combo, start=1) if c}
                lifts.append(from_coordinates(WittCoordinates(base, 1, d + 2, coords)))
            assert len(lifts) == 2 ** (d - 1)
            assert separates(fs, lifts, d=d)

"""Named property suites runnable from the CLI with a fixed seed.

Each suite covers one module's invariants at counts suitable for a quick
check; the pytest acceptance suite runs the heavyweight versions.  Checks
raise AssertionError (or any package error) on failure; the runner turns
that into a machine-readable summary.
"""

from __future__ import annotations

import random

from . import cft, duality, ptypical, witt
from .errors import NotAUnit, SchemaError
from .ring import CoeffRing
from .series import TruncatedSeries, exponents_below
from .witt import WittElement, random_witt_element


def _rings():
    return [
        CoeffRing.make(2),
        CoeffRing.make(3),
        CoeffRing.make(4),
        CoeffRing.make(5),
        CoeffRing.make(2, nil=2),
        CoeffRing.make(3, nil=3),
        CoeffRing.make(4, nil=2),
    ]


def check_ring_axioms(rng):
    for ring in _rings():
        for _ in range(120):
            a, b, c = (ring.random_raw(rng) for _ in range(3))
            assert ring.radd(ring.radd(a, b), c) == ring.radd(a, ring.radd(b, c))
            assert ring.rmul(ring.rmul(a, b), c) == ring.rmul(a, ring.rmul(b, c))
            assert ring.rmul(a, b) == ring.rmul(b, a)
            assert ring.radd(a, b) == ring.radd(b, a)
            assert ring.rmul(a, ring.radd(b, c)) == ring.radd(ring.rmul(a, b), ring.rmul(a, c))


def check_units_invert(rng):
    for ring in _rings():
        for a in ring.element_indices():
            if ring.is_unit_raw(a):
                assert ring.rmul(a, ring.rinv(a)) == ring.one


def check_frobenius_hom(rng):
    for ring in _rings():
        q = ring.q
        for _ in range(100):
            a, b = ring.random_raw(rng), ring.random_raw(rng)
            fa, fb = ring.rfrob(a, q), ring.rfrob(b, q)
            assert ring.rfrob(ring.radd(a, b), q) == ring.radd(fa, fb)
            assert ring.rfrob(ring.rmul(a, b), q) == ring.rmul(fa, fb)


def check_resultant_vs_roots(rng):
    # a = prod (x - r) is monic with known roots, so Res(a, b), the product
    # of b over them, is the norm of b on R[x]/(a): the geometric value of
    # f = rev a = prod (1 - r x) against g = b at the level that reads all of b
    for q in (2, 3, 5):
        ring = CoeffRing.make(q)
        for _ in range(25):
            roots = [rng.randrange(q) for _ in range(rng.randrange(1, 4))]
            b = [rng.randrange(q) for _ in range(3)]
            while b and b[-1] == 0:
                b.pop()
            if len(b) < 2:
                continue
            f, prod = [ring.one], ring.one
            for r in roots:
                f = [ring.rsub(c, ring.rmul(r, low)) for c, low in zip(f + [0], [0] + f)]
                value = 0
                for c in reversed(b):
                    value = ring.radd(ring.rmul(value, r), c)
                prod = ring.rmul(prod, value)
            f, g = dict(enumerate(f)), dict(enumerate(b))
            assert duality._geometric_values(ring, f, len(roots), g, len(b) - 1)[1] == prod


def check_series_ring_laws(rng):
    for ring in _rings()[:5]:
        for _ in range(60):
            n = rng.choice((1, 2))
            d = rng.randrange(2, 6)
            xs = [random_witt_element(ring, n, d, rng).series for _ in range(3)]
            a, b, c = xs
            assert a.mul(b) == b.mul(a)
            assert a.mul(b.mul(c)) == a.mul(b).mul(c)
            inv = a.inv()
            one = TruncatedSeries.one(ring, n, d)
            assert a.mul(inv) == one and inv.mul(a) == one
            dd = rng.randrange(1, d + 1)
            assert a.mul(b).truncate(dd) == a.truncate(dd).mul(b.truncate(dd))


def check_coordinate_roundtrip(rng):
    for ring in _rings():
        for _ in range(40):
            n = rng.choice((1, 2))
            d = rng.randrange(2, 6)
            a = random_witt_element(ring, n, d, rng)
            assert witt.from_coordinates(witt.witt_coordinates(a)) == a


def check_decomposition(rng):
    for ring in _rings()[:4]:
        for _ in range(50):
            n, d = rng.choice(((2, 4), (3, 3), (2, 5)))
            a = random_witt_element(ring, n, d, rng)
            b = random_witt_element(ring, n, d, rng)
            fam_a = witt.decompose(a)
            assert fam_a.recompose() == a
            fam_ab = witt.decompose(witt.witt_add(a, b))
            fam_b = witt.decompose(b)
            for nu in fam_ab.components:
                assert fam_ab.components[nu] == witt.witt_add(
                    fam_a.components[nu], fam_b.components[nu]
                )


def check_witt_ring_laws(rng):
    for q in (2, 3, 5):
        ring = CoeffRing.make(q)
        # one shape with several primitive parts, at a few triples per field
        for n, d, count in ((1, 6, 60), (2, 4, 10)):
            one = witt.ring_one(ring, n, d)
            for _ in range(count):
                a = random_witt_element(ring, n, d, rng)
                b = random_witt_element(ring, n, d, rng)
                c = random_witt_element(ring, n, d, rng)
                assert witt.witt_mul(a, b) == witt.witt_mul(b, a)
                assert witt.witt_mul(witt.witt_mul(a, b), c) == witt.witt_mul(
                    a, witt.witt_mul(b, c)
                )
                lhs = witt.witt_mul(a, witt.witt_add(b, c))
                rhs = witt.witt_add(witt.witt_mul(a, b), witt.witt_mul(a, c))
                assert lhs == rhs
                assert witt.witt_mul(one, a) == a


def check_unipotence(rng):
    for q in (2, 3):
        ring = CoeffRing.make(q)
        p = ring.p
        for _ in range(40):
            d = rng.randrange(2, 7)
            s = 0
            while p**s < d:
                s += 1
            a = random_witt_element(ring, 1, d, rng)
            assert a.group_pow(p**s) == WittElement.one(ring, 1, d)


def check_lang_kernel(rng):
    c = cft.lang_kernel_census(1, 2, 2, 3)
    assert c.matches and c.kernel == 4
    c = cft.lang_kernel_census(1, 3, 1, 3)
    assert c.kernel == c.total


def check_ghost_roundtrip(rng):
    from fractions import Fraction

    for p in (2, 3, 5):
        for _ in range(60):
            v = ptypical.PWittVector(
                p, [Fraction(rng.randrange(-12, 12), rng.randrange(1, 6)) for _ in range(4)]
            )
            assert ptypical.from_ghost(ptypical.ghost(v)) == v


def check_ghost_ring_hom(rng):
    from fractions import Fraction

    for p in (2, 3):
        for _ in range(60):
            v = ptypical.PWittVector(p, [Fraction(rng.randrange(-9, 9)) for _ in range(3)])
            w = ptypical.PWittVector(p, [Fraction(rng.randrange(-9, 9)) for _ in range(3)])
            gs = ptypical.ghost(ptypical.pwitt_add(v, w)).entries
            gp = ptypical.ghost(ptypical.pwitt_mul(v, w)).entries
            gv, gw = ptypical.ghost(v).entries, ptypical.ghost(w).entries
            assert gs == tuple(a + b for a, b in zip(gv, gw))
            assert gp == tuple(a * b for a, b in zip(gv, gw))


def check_lifted_ring_laws(rng):
    add, mul = ptypical.pwitt_add, ptypical.pwitt_mul
    for q, nil in ((4, 2), (3, 2)):
        ring = CoeffRing.make(q, nil=nil)
        p, m = ring.p, 5
        zero, one = ptypical.PWittVector.zero(p, m, ring), ptypical.PWittVector.one(p, m, ring)
        for _ in range(20):
            v, w, u = (
                ptypical.PWittVector(p, [ring.random_raw(rng) for _ in range(m)], ring)
                for _ in range(3)
            )
            assert add(v, w) == add(w, v) and mul(v, w) == mul(w, v)
            assert add(add(v, w), u) == add(v, add(w, u))
            assert mul(mul(v, w), u) == mul(v, mul(w, u))
            assert mul(v, add(w, u)) == add(mul(v, w), mul(v, u))
            assert add(v, zero) == v and mul(v, one) == v


def check_artin_hasse_integrality(rng):
    for p in (2, 3, 5):
        coeffs = ptypical.artin_hasse_coefficients(p, 16)
        assert all(c.denominator % p != 0 for c in coeffs)


def check_pi_epsilon_roundtrip(rng):
    ring = CoeffRing.make(2)
    for d in range(2, 8):
        for el in witt.enumerate_witt_elements(ring, 1, d):
            fam = ptypical.pi_epsilon_inverse(el)
            assert ptypical.pi_epsilon(fam, ring, d) == el


def check_pi_epsilon_hom(rng):
    for p in (2, 3):
        ring = CoeffRing.make(p)
        d = 7
        lengths = ptypical.component_lengths(p, d)
        for _ in range(60):
            fa = {
                j: ptypical.PWittVector(p, [rng.randrange(p) for _ in range(m)], ring)
                for j, m in lengths.items()
            }
            fb = {
                j: ptypical.PWittVector(p, [rng.randrange(p) for _ in range(m)], ring)
                for j, m in lengths.items()
            }
            fs = {j: ptypical.pwitt_add(fa[j], fb[j]) for j in fa}
            lhs = ptypical.pi_epsilon(fs, ring, d)
            rhs = witt.witt_add(
                ptypical.pi_epsilon(fa, ring, d), ptypical.pi_epsilon(fb, ring, d)
            )
            assert lhs == rhs


def check_pairing_routes(rng):
    # (q, e, n, degree of f, g.d, m): in two variables f's parts lie below
    # degree 3, so at g.d = 7 each carries at least m + 1 = 4 terms of g
    rings = ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3))
    shapes = [(q, e, 1, 3, 3 * e - 1, 3 * e - 2) for q, e in rings] + [(3, 2, 2, 2, 7, 3)]
    for q, e, n, degree, dg, m in shapes:
        ring = CoeffRing.make(q, nil=e)
        base = CoeffRing.make(q)
        for _ in range(40):
            f = duality.random_formal_element(ring, n, degree, rng)
            g = random_witt_element(base, n, dg, rng)
            va = duality.cartier_pair(f, g)
            assert va == duality.geometric_pair(f, g, m) == duality.pairing_via_components(f, g)
            assert ring.is_unit_raw(va.raw)
            assert ring.is_nilpotent_raw(ring.rsub(va.raw, ring.one))


def check_pairing_bilinear(rng):
    ring = CoeffRing.make(3, nil=2)
    base = CoeffRing.make(3)
    for _ in range(40):
        f1 = duality.random_formal_element(ring, 1, 2, rng)
        f2 = duality.random_formal_element(ring, 1, 2, rng)
        g1 = random_witt_element(base, 1, 5, rng)
        g2 = random_witt_element(base, 1, 5, rng)
        lhs = duality.cartier_pair(f1.mul(f2), g1)
        assert lhs == duality.cartier_pair(f1, g1) * duality.cartier_pair(f2, g1)
        lhs = duality.cartier_pair(f1, witt.witt_add(g1, g2))
        assert lhs == duality.cartier_pair(f1, g1) * duality.cartier_pair(f1, g2)


def check_slot_bilinear(rng):
    # the component route's slot value by bilinearity against pwitt_pair,
    # the ghost-lift product in W_m, on the families of random f and g
    for q, e, n in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)):
        ring = CoeffRing.make(q, nil=e)
        for _ in range(8):
            f = duality.random_formal_element(ring, n, 3 // n + 1, rng)
            g = random_witt_element(rng.choice((ring, CoeffRing.make(q))), n, 7, rng)
            for _, _, fp, gp in duality._shared_parts(f, g, elements=True):
                fp = WittElement(fp.series.extend(fp.coordinate_bound()))
                fam_f, fam_g = ptypical.pi_epsilon_inverse(fp), ptypical.pi_epsilon_inverse(gp)
                for j, v in fam_f.items():
                    if j in fam_g:
                        w = ptypical.PWittVector._make(ring.p, fam_g[j].entries, ring)
                        m = max(len(v), len(w))
                        want = ptypical.pwitt_pair(v.pad(m), w.pad(m)).raw
                        assert duality._slot_value(ring, v.entries, w.entries) == want


def check_unit_criterion(rng):
    ring = CoeffRing.make(2, nil=2)
    for d in range(1, 3):
        exps = [e for e in exponents_below(1, d + 1)]
        size = ring.size ** len(exps)
        for idx in range(size):
            terms = {}
            v = idx
            for e in exps:
                c = v % ring.size
                v //= ring.size
                if c:
                    terms[e] = c
            poly = TruncatedSeries(ring, 1, d + 1, terms, exact=True)
            expected = duality.is_polynomial_unit(poly)
            try:
                duality.unit_class(poly)
                got = True
            except NotAUnit:
                got = False
            assert got == expected


def check_pi1_oracle(rng):
    for n, q, d in ((1, 2, 3), (1, 2, 5), (1, 3, 3), (1, 3, 4), (2, 2, 2), (2, 2, 3), (1, 4, 3)):
        ring = CoeffRing.make(q)
        f = cft.pi1_truncated(n, q, d)
        b = cft.witt_group_structure_brute(ring, n, d)
        assert f.invariant_factors == b.invariant_factors
        assert f.order == b.order == q ** (
            len([e for e in exponents_below(n, d) if sum(e) > 0])
        )
        # each oracle witness has exactly its factor's order, a power of p
        one = WittElement.one(ring, n, d)
        for order, w in zip(b.invariant_factors, b.witnesses):
            assert w.group_pow(order) == one and w.group_pow(order // ring.p) != one


def check_modulus_group(rng):
    for q, m in ((2, 1), (2, 3), (2, 4), (3, 3), (4, 2), (5, 2)):
        g = cft.modulus_group(q, m)
        assert g.order == q ** (m - 1)
        if m >= 2:
            assert g.structure.invariant_factors == cft.pi1_truncated(1, q, m).invariant_factors


def check_transition_maps(rng):
    assert cft.transition_surjective(CoeffRing.make(2), 1, 5, 3)
    assert cft.transition_surjective(CoeffRing.make(3), 1, 4, 2)
    assert cft.transition_surjective(CoeffRing.make(2), 2, 3, 2)


SUITES = {
    "ring": [
        ("ring_axioms", check_ring_axioms),
        ("units_invert", check_units_invert),
        ("frobenius_hom", check_frobenius_hom),
        ("resultant_vs_roots", check_resultant_vs_roots),
    ],
    "series": [
        ("series_ring_laws", check_series_ring_laws),
    ],
    "witt": [
        ("coordinate_roundtrip", check_coordinate_roundtrip),
        ("decomposition", check_decomposition),
        ("witt_ring_laws", check_witt_ring_laws),
        ("unipotence", check_unipotence),
        ("lang_kernel", check_lang_kernel),
    ],
    "ptypical": [
        ("ghost_roundtrip", check_ghost_roundtrip),
        ("ghost_ring_hom", check_ghost_ring_hom),
        ("lifted_ring_laws", check_lifted_ring_laws),
        ("artin_hasse_integrality", check_artin_hasse_integrality),
        ("pi_epsilon_roundtrip", check_pi_epsilon_roundtrip),
        ("pi_epsilon_hom", check_pi_epsilon_hom),
    ],
    "duality": [
        ("pairing_routes", check_pairing_routes),
        ("pairing_bilinear", check_pairing_bilinear),
        ("slot_bilinear", check_slot_bilinear),
        ("unit_criterion", check_unit_criterion),
    ],
    "cft": [
        ("pi1_oracle", check_pi1_oracle),
        ("modulus_group", check_modulus_group),
        ("transition_maps", check_transition_maps),
    ],
}


def run_suite(name: str, seed: int = 0) -> dict:
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise SchemaError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    checks = []
    passed = failed = 0
    for suite in names:
        for check_name, fn in SUITES[suite]:
            rng = random.Random((seed, suite, check_name).__repr__())
            try:
                fn(rng)
                checks.append({"suite": suite, "name": check_name, "ok": True})
                passed += 1
            except Exception as exc:  # report, never crash the runner
                checks.append(
                    {
                        "suite": suite,
                        "name": check_name,
                        "ok": False,
                        "detail": f"{type(exc).__name__}: {exc}",
                    }
                )
                failed += 1
    return {"seed": seed, "passed": passed, "failed": failed, "checks": checks}

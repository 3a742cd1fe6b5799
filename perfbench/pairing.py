"""Workload ``pairing``: one-variable polynomial units over F_q[eps]/(eps^e)
paired with elements over the base field by every route.

Each job pairs a dense unit f (every coefficient above the constant a
nonzero nilpotent) of fixed degree D with a dense element g known to
degree D(e - 1) + 2, far enough that every route is stable.  The routes
are the algebraic one (``cartier_pair``), the geometric one
(``geometric_pair``, a Sylvester resultant of size up to 16) and, for
p in {2, 3}, the route through p-typical slots
(``pairing_via_components``).  The seed draws the coefficients; the
shapes, and with them the Sylvester sizes, are fixed.
"""

from __future__ import annotations

import random

from common import use_checkout_library
from gen import FIELDS, element_doc, one_matrix, stable_length, unit_doc

mw = use_checkout_library()

# (q, e, degree of f, jobs per pass)
SHAPES = (
    (2, 3, 3, 2), (3, 2, 3, 2), (4, 2, 3, 2), (5, 3, 3, 2), (3, 3, 3, 2), (2, 4, 2, 2),
    (2, 4, 3, 2), (5, 3, 4, 2), (4, 2, 6, 2), (3, 3, 4, 2),
    (3, 2, 7, 2), (3, 3, 5, 2),
)
BIMUL_RINGS = ((2, 3), (3, 2), (4, 2), (5, 3), (3, 3), (2, 4))
BIMUL_CASES_PER_RING = 2


def make_inputs(seed: int) -> dict:
    rng = random.Random(f"pairing/{seed}")
    jobs = []
    for q, e, degree, count in SHAPES:
        for _ in range(count):
            dg = stable_length(degree, e)
            jobs.append(
                {"q": q, "e": e, "f": unit_doc(rng, q, e, degree),
                 "g": element_doc(rng, q, dg), "m": dg - 1}
            )
    rng.shuffle(jobs)
    bimul = []
    for q, e in BIMUL_RINGS:
        for _ in range(BIMUL_CASES_PER_RING):
            dg = stable_length(4, e) + 1
            bimul.append(
                {"q": q, "e": e, "f1": unit_doc(rng, q, e, 2), "f2": unit_doc(rng, q, e, 2),
                 "g1": element_doc(rng, q, dg), "g2": element_doc(rng, q, dg)}
            )
    return {"jobs": jobs, "bimul": bimul}


def _rings(job):
    return mw.CoeffRing.make(job["q"], nil=job["e"]), mw.CoeffRing.make(job["q"])


def _unit(ring, doc):
    return mw.FormalWittElement(mw.TruncatedSeries.from_json_dict(ring, doc))


def executor(inputs):
    return execute


def execute(job, clock):
    ring, base = _rings(job)
    f = _unit(ring, job["f"])
    g = mw.WittElement.from_json_dict(base, job["g"])
    with clock.timing():
        values = {
            "algebraic": mw.cartier_pair(f, g),
            "geometric": mw.geometric_pair(f, g, job["m"]),
        }
        if ring.p in (2, 3):
            values["components"] = mw.pairing_via_components(f, g)
    return {route: ring.raw_to_coords(v.raw) for route, v in values.items()}


def check(inputs, outputs) -> list:
    errors = []
    for i, (job, out) in enumerate(zip(inputs["jobs"], outputs)):
        if out is None:
            continue
        errors += [f"pairing job {i}: {e}" for e in check_job(job, out)]
    for i, case in enumerate(inputs["bimul"]):
        errors += [f"pairing bimultiplicativity case {i}: {e}" for e in check_bimultiplicative(case)]
    return errors


def check_job(job, out) -> list:
    errors = []
    routes = {"algebraic", "geometric"} | ({"components"} if FIELDS[job["q"]][0] in (2, 3) else set())
    if set(out) != routes:
        errors.append(f"routes {sorted(out)} reported, expected {sorted(routes)}")
    values = list(out.values())
    if any(v != values[0] for v in values):
        errors.append(f"routes disagree: {out}")
    one = one_matrix(job["q"], job["e"])
    for route, v in out.items():
        if len(v) != len(one) or any(len(row) != len(one[0]) for row in v):
            errors.append(f"{route} value {v} has the wrong shape")
        elif v[0] != one[0]:
            errors.append(f"{route} value {v} is not congruent to 1 modulo nilpotents")
    return errors


def check_bimultiplicative(case) -> list:
    """<f1 f2, g> = <f1, g><f2, g> and <f, g1 + g2> = <f, g1><f, g2>."""
    ring, base = _rings(case)
    f1, f2 = _unit(ring, case["f1"]), _unit(ring, case["f2"])
    g1 = mw.WittElement.from_json_dict(base, case["g1"])
    g2 = mw.WittElement.from_json_dict(base, case["g2"])
    pair = mw.cartier_pair
    errors = []
    lhs = pair(f1.mul(f2), g1).raw
    rhs = ring.rmul(pair(f1, g1).raw, pair(f2, g1).raw)
    if lhs != rhs:
        errors.append("not multiplicative in the first argument")
    lhs = pair(f1, mw.witt_add(g1, g2)).raw
    rhs = ring.rmul(pair(f1, g1).raw, pair(f1, g2).raw)
    if lhs != rhs:
        errors.append("not multiplicative in the second argument")
    return errors

"""Workload ``structure``: invariant factors of the truncated groups over F_q
by the generator-order formula and by the brute-force oracle, plus Lang
kernel censuses over small extensions.

The grid of (n, q, d) is fixed, with group orders from 128 to 1024; the
seed orders the jobs and draws the census sampling seeds.  The cost is
dense, small-box series multiplication over fields and the oracle's
group operations; no resultant or p-typical work happens here.
"""

from __future__ import annotations

import random

from common import use_checkout_library
from gen import group_rank

mw = use_checkout_library()

# (n, q, d) for formula + oracle
GRID = ((1, 2, 8), (1, 3, 6), (1, 4, 5), (2, 3, 3), (2, 4, 3))
# (n, q, s, d) for the Lang census over F_(q^s)
CENSUS = ((1, 2, 2, 3), (1, 2, 2, 5))


def make_inputs(seed: int) -> dict:
    rng = random.Random(f"structure/{seed}")
    jobs = [{"kind": "pi1", "n": n, "q": q, "d": d} for n, q, d in GRID]
    jobs += [
        {"kind": "census", "n": n, "q": q, "s": s, "d": d, "seed": rng.randrange(2**31)}
        for n, q, s, d in CENSUS
    ]
    rng.shuffle(jobs)
    return {"jobs": jobs}


def executor(inputs):
    return execute


def execute(job, clock):
    n, q, d = job["n"], job["q"], job["d"]
    if job["kind"] == "pi1":
        ring = mw.CoeffRing.make(q)
        with clock.timing():
            formula = mw.pi1_truncated(n, q, d)
            oracle = mw.witt_group_structure_brute(ring, n, d)
        return {
            "factors": list(formula.invariant_factors),
            "order": formula.order,
            "oracle_factors": list(oracle.invariant_factors),
            "oracle_order": oracle.order,
        }
    with clock.timing():
        census = mw.lang_kernel_census(n, q, job["s"], d, seed=job["seed"])
    return census.to_json_dict()


def check(inputs, outputs) -> list:
    errors = []
    for i, (job, out) in enumerate(zip(inputs["jobs"], outputs)):
        if out is not None:
            errors += [f"structure job {i} {job}: {e}" for e in check_job(job, out)]
    return errors


def check_job(job, out) -> list:
    n, q, d = job["n"], job["q"], job["d"]
    expected = q ** group_rank(n, d)
    errors = []
    if job["kind"] == "pi1":
        prod = 1
        for f in out["factors"]:
            prod *= f
        if out["factors"] != out["oracle_factors"]:
            errors.append(f"formula {out['factors']} differs from oracle {out['oracle_factors']}")
        if prod != expected or out["order"] != expected or out["oracle_order"] != expected:
            errors.append(f"factor product {prod} / order {out['order']} is not q^m = {expected}")
        if out["factors"] != sorted(out["factors"]):
            errors.append("factors are not ascending")
        return errors
    if out["kernel"] != expected:
        errors.append(f"census kernel {out['kernel']} is not q^m = {expected}")
    if out["total"] != (q ** job["s"]) ** group_rank(n, d):
        errors.append(f"census enumerated {out['total']} elements")
    if not (out["matches"] and out["kernel_is_rational"]):
        errors.append("census reports a mismatch")
    return errors

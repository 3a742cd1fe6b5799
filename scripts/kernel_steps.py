#!/usr/bin/env python3
"""Measure what one kernel step costs on this machine.

Usage:
    python scripts/kernel_steps.py

For each kernel budgeted by ``errors.WORK_LIMIT`` (the series division
and product, the binomial product, the coordinate peel, the Artin-Hasse
product ``pi_epsilon`` and the geometric pairing's norms) it runs one
dense input over F_3 in one variable of about 10^6 estimated steps, and
prints the estimate (the largest one checked against the limit while the
job runs), the best of 3 wall times and the nanoseconds per estimated
step.  The limit admits about WORK_LIMIT times that many nanoseconds of
any one kernel.
"""

import random
import time

from multiwitt import duality, ptypical, series, witt
from multiwitt.errors import WORK_LIMIT, check_budget
from multiwitt.ring import CoeffRing

F3 = CoeffRing.make(3)
BUDGETED = (series, witt, ptypical, duality)  # the modules that check WORK_LIMIT


def dense(d: int, rng, low: int = 0) -> dict:
    """Random F_3 coefficients at every degree low..d - 1, about a third 0."""
    return {(k,): rng.randrange(3) for k in range(low, d)}


def element(d: int, rng) -> witt.WittElement:
    return witt.WittElement(series.TruncatedSeries(F3, 1, d, dense(d, rng, 1) | {(0,): 1}))


def jobs(rng):
    """(kernel, job) pairs; each job builds what it must not find cached."""
    a = series.TruncatedSeries(F3, 1, 1200, dense(1200, rng) | {(0,): 1})
    b = series.TruncatedSeries(F3, 1, 1500, dense(1500, rng))
    c = series.TruncatedSeries(F3, 1, 1500, dense(1500, rng))
    coords = witt.WittCoordinates(F3, 1, 1200, dense(1200, rng, 1))
    peeled = element(1700, rng).series
    family = ptypical.pi_epsilon_inverse(element(500, rng))
    # f = 1 + .. of degree 4 and g' below m = 124,999: 1,000,088 steps
    f = {0: 1} | {k: rng.randrange(1, 3) for k in range(1, 5)}
    g = {k: c for (k,), c in dense(125000, rng).items()}
    return (
        ("division", a.inv),
        ("series product", lambda: b.mul(c)),
        ("binomial product", lambda: witt.from_coordinates(coords)),
        ("coordinate peel", lambda: witt.witt_coordinates(witt.WittElement(peeled))),
        ("Artin-Hasse product", lambda: ptypical.pi_epsilon(family, F3, 500)),
        ("geometric norm", lambda: duality._geometric_values(F3, f, 4, g, 124999)),
    )


def measure(job, runs: int = 3) -> tuple:
    """The largest estimate checked against WORK_LIMIT, and the best wall
    time of ``runs`` runs."""
    estimates = []

    def recording(estimate, limit, what, *fields):
        if limit == WORK_LIMIT:
            estimates.append(estimate)
        check_budget(estimate, limit, what, *fields)

    best = float("inf")
    try:
        for module in BUDGETED:
            module.check_budget = recording
        for _ in range(runs):
            start = time.perf_counter()
            job()
            best = min(best, time.perf_counter() - start)
    finally:
        for module in BUDGETED:
            module.check_budget = check_budget
    return max(estimates), best


def main():
    print(f"WORK_LIMIT = {WORK_LIMIT} steps")
    print(f"{'kernel':<20} {'steps':>9} {'best s':>7} {'ns/step':>7}")
    for kernel, job in jobs(random.Random(0)):
        steps, best = measure(job)
        print(f"{kernel:<20} {steps:>9} {best:>7.3f} {best / steps * 1e9:>7.0f}")


if __name__ == "__main__":
    main()

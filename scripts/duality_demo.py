#!/usr/bin/env python3
"""Compare the three pairing routes on random inputs and print a transcript.

Usage:
    python scripts/duality_demo.py [--q 3] [--e 2] [--cases 10] [--seed 0]

For each case a random polynomial unit with nilpotent coefficients is
paired against a random series over the base field three ways: by
multiplying and evaluating at t = 1, by the resultant over the zeros of
the truncated inverse-variable polynomial, and through the p-typical
slot decomposition.  All three values must coincide.
"""

import argparse
import random
import sys

from multiwitt import CoeffRing, cartier_pair, geometric_pair, pairing_via_components
from multiwitt.duality import random_formal_element
from multiwitt.witt import random_witt_element


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--e", type=int, default=2)
    parser.add_argument("--cases", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ring = CoeffRing.make(args.q, nil=args.e)
    base = CoeffRing.make(args.q)
    rng = random.Random(args.seed)
    dg = 3 * (args.e - 1) + 2

    failures = 0
    for k in range(args.cases):
        f = random_formal_element(ring, 1, 3, rng)
        g = random_witt_element(base, 1, dg, rng)
        values = [
            ("algebraic", cartier_pair(f, g)),
            ("geometric", geometric_pair(f, g, dg - 1)),
            ("components", pairing_via_components(f, g)),
        ]
        agree = len({v.raw for _, v in values}) == 1
        failures += 0 if agree else 1
        print(f"case {k}: f = {f!r}")
        print(f"        g = {g!r}")
        for name, v in values:
            print(f"        {name:>10}: {v!r}")
        print(f"        agree: {agree}")
    if failures:
        print(f"{failures} disagreement(s)")
        return 2
    print("all routes agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

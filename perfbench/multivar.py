"""Workload ``multivar``: sparse elements in large exponent boxes.

Each input has two or three terms placed on multiples of two shared
primitive directions, so products are not trivially 1, in boxes of
n = 3, d = 20 (1,540 exponents), n = 4, d = 16 (3,876) and n = 6, d = 12
(12,376).  Per input triple (a, b, c) a pass runs ``witt_mul(a, b)``,
``decompose(a)`` followed by ``recompose``, and the coordinate round trip
``from_coordinates(witt_coordinates(a))``.  The Witt layer walks the
whole box whatever the support; the series layer is used sparsely.
The seed picks the variables of the directions and the coefficients; the
term pattern is fixed, so the work per pass hardly depends on the seed.
"""

from __future__ import annotations

import random

from common import use_checkout_library
from gen import field_digits, one_matrix, same_series

mw = use_checkout_library()

# (q, n, d, input triples per pass)
SHAPES = ((2, 3, 20, 2), (3, 4, 16, 2), (2, 6, 12, 1))
OPS = ("mul", "decompose", "coords")
DISTRIBUTIVITY_MAX_N = 4


# (direction, multiple) of each input's terms besides the constant; the
# directions are a variable t_i (weight 1) and a product t_j t_k (weight 2)
PATTERNS = {
    "a": ((0, 1), (1, 2), (0, 4)),
    "b": ((0, 2), (1, 1), (1, 3)),
    "c": ((0, 3), (1, 2)),
}


def sparse_doc(rng, q, n, d, directions, pattern):
    terms = [{"exp": [0] * n, "c": one_matrix(q, 1)}]
    for which, mult in pattern:
        exp = [mult * v for v in directions[which]]
        terms.append({"exp": exp, "c": [field_digits(rng, q, True)]})
    return {"n": n, "d": d, "exact": False, "terms": terms}


def make_inputs(seed: int) -> dict:
    rng = random.Random(f"multivar/{seed}")
    triples = []
    for q, n, d, count in SHAPES:
        for _ in range(count):
            i, j, k = rng.sample(range(n), 3)
            dirs = ([int(v == i) for v in range(n)], [int(v in (j, k)) for v in range(n)])
            triple = {"q": q, "n": n, "d": d}
            triple.update({key: sparse_doc(rng, q, n, d, dirs, pat) for key, pat in PATTERNS.items()})
            triples.append(triple)
    jobs = [{"op": op, "triple": i} for i in range(len(triples)) for op in OPS]
    rng.shuffle(jobs)
    return {"triples": triples, "jobs": jobs}


def _element(triple, key):
    ring = mw.CoeffRing.make(triple["q"])
    return mw.WittElement.from_json_dict(ring, triple[key])


def executor(inputs):
    """The job executor for these inputs (jobs refer to triples by index)."""
    triples = inputs["triples"]

    def run(job, clock):
        t = triples[job["triple"]]
        a = _element(t, "a")
        if job["op"] == "mul":
            b = _element(t, "b")
            with clock.timing():
                out = mw.witt_mul(a, b)
        elif job["op"] == "decompose":
            with clock.timing():
                out = mw.decompose(a).recompose()
        else:
            with clock.timing():
                out = mw.from_coordinates(mw.witt_coordinates(a))
        return out.to_json_dict()

    return run


def check(inputs, outputs) -> list:
    errors = []
    triples = inputs["triples"]
    for i, (job, out) in enumerate(zip(inputs["jobs"], outputs)):
        if out is not None:
            errors += [f"multivar job {i} {job}: {e}" for e in check_job(triples[job["triple"]], job["op"], out)]
    checked = set()
    for t in triples:
        if t["n"] <= DISTRIBUTIVITY_MAX_N and t["n"] not in checked:
            checked.add(t["n"])
            errors += [f"multivar n={t['n']}: {e}" for e in check_distributive(t)]
    return errors


def check_job(triple, op, out) -> list:
    if op in ("decompose", "coords"):
        if not same_series(out, triple["a"]):
            return [f"{op} round trip does not return the input"]
        return []
    other = mw.witt_mul(_element(triple, "b"), _element(triple, "a")).to_json_dict()
    if not same_series(out, other):
        return ["product is not commutative"]
    return []


def check_distributive(triple) -> list:
    """a * (b + c) = a * b + a * c, with + the group law."""
    a, b, c = (_element(triple, k) for k in "abc")
    lhs = mw.witt_mul(a, mw.witt_add(b, c))
    rhs = mw.witt_add(mw.witt_mul(a, b), mw.witt_mul(a, c))
    return [] if lhs.series.terms == rhs.series.terms else ["product is not distributive over +"]

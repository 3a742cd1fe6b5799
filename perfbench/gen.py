"""Plain-data generators shared by the workloads.

Inputs are built as the library's JSON documents (ring elements as
``nil x e`` digit matrices, eps-degree major), so a pass can rebuild its
objects from them and the CLI workload can send them as payloads.
"""

from __future__ import annotations

from math import comb

# q -> (p, field degree)
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def field_digits(rng, q, nonzero):
    p, k = FIELDS[q]
    while True:
        v = [rng.randrange(p) for _ in range(k)]
        if any(v) or not nonzero:
            return v


def one_matrix(q, e):
    p, k = FIELDS[q]
    return [[1] + [0] * (k - 1)] + [[0] * k for _ in range(e - 1)]


def nilpotent_matrix(rng, q, e):
    """A nilpotent ring element with a nonzero eps coefficient."""
    p, k = FIELDS[q]
    return [[0] * k, field_digits(rng, q, True)] + [
        field_digits(rng, q, False) for _ in range(e - 2)
    ]


def unit_doc(rng, q, e, degree):
    """Dense polynomial unit: constant 1, every other coefficient a nonzero
    nilpotent, exact of the given degree."""
    terms = [{"exp": [0], "c": one_matrix(q, e)}]
    terms += [{"exp": [k], "c": nilpotent_matrix(rng, q, e)} for k in range(1, degree + 1)]
    return {"n": 1, "d": degree + 1, "exact": True, "terms": terms}


def element_doc(rng, q, length):
    """Dense one-variable element over F_q truncated at ``length``."""
    terms = [{"exp": [0], "c": one_matrix(q, 1)}]
    terms += [{"exp": [k], "c": [field_digits(rng, q, True)]} for k in range(1, length)]
    return {"n": 1, "d": length, "exact": False, "terms": terms}


def stable_length(degree, e):
    """Truncation of g at which a unit of this degree pairs stably: its
    coordinates vanish beyond degree * (e - 1)."""
    return degree * (e - 1) + 2


def prime_ring_desc(p, nil=1):
    """CLI ring descriptor of F_p[eps]/(eps^nil)."""
    return {"p": p, "e": 1, "modulus": [0, 1], "nil": nil}


def group_rank(n: int, d: int) -> int:
    """Number of exponents with 0 < |nu| < d in n variables, so the
    truncated group over F_q has order q ** group_rank(n, d)."""
    return comb(n + d - 1, n) - 1


def same_series(doc_a, doc_b) -> bool:
    """Series documents with the same shape and terms, whatever the order
    of the terms and the exact flag."""
    def key(doc):
        return doc["n"], doc["d"], sorted((tuple(t["exp"]), str(t["c"])) for t in doc["terms"])

    return key(doc_a) == key(doc_b)

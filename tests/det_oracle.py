"""Reference determinants over a CoeffRing, and a root scan over F_(q^s).

``_det_memo`` is the Laplace expansion along the rows, memoizing each minor
on the set of columns already used; it takes time and memory exponential
in the matrix size.  ``_det_bird`` is Bird's division-free recurrence
(R. S. Bird, "A simple division-free algorithm for computing
determinants", IPL 111, 2011), O(N^4) ring operations.  Both check the
library's valuation-pivoted elimination against constructions that never
pick a pivot.

``roots_with_multiplicity`` checks the resultant from the other side: it
finds the roots of a polynomial over a field by exhaustive evaluation
over F_(q^s), the same table-driven CoeffRing as every other field
(``CoeffRing.make(q**s)``, so q^s is bounded by the table size).  Base
coefficients enter through the embedding that sends the generator of F_q
to the smallest-index root of its modulus in F_(q^s); a root belongs to
degree s when its orbit under y -> y^q has length s.  Multiplicities come
from repeated synthetic division.  This is deliberately desk-scale.
"""

from __future__ import annotations

from multiwitt.errors import EmptyInput, ShapeMismatch, WittError
from multiwitt.ring import CoeffRing, RingElement
from multiwitt.unipoly import UnivariatePolynomial


class ExtensionBoundExceeded(WittError):
    """Root search needs a field extension beyond the allowed degree."""


def _det_memo(rows, ring) -> int:
    """Determinant by Laplace expansion memoized on column subsets."""
    n = len(rows)
    full = (1 << n) - 1
    memo = {full: ring.one}

    def det(row, mask):
        if row == n:
            return ring.one
        cached = memo.get((row, mask))
        if cached is not None:
            return cached
        acc = ring.zero
        sign = 0
        r = rows[row]
        for col in range(n):
            bit = 1 << col
            if mask & bit:
                continue
            a = r[col]
            if a != 0:
                sub = det(row + 1, mask | bit)
                if sub != 0:
                    term = ring.rmul(a, sub)
                    acc = ring.radd(acc, term if sign % 2 == 0 else ring.rneg(term))
            sign += 1
        memo[(row, mask)] = acc
        return acc

    return det(0, 0)


def _det_bird(rows, ring) -> int:
    """Determinant by Bird's division-free recurrence.

    X_1 = A and X_(k+1) = mu(X_k) A, where mu(X) keeps the strict upper
    triangle of X and puts -(X[i+1][i+1] + ... + X[n-1][n-1]) on the
    diagonal; then det A = (-1)^(n-1) X_n[0][0].  Rows of mu(X) A are
    sums of scaled rows of A, so zero entries of A are skipped.
    """
    radd, rneg, rmul = ring.radd, ring.rneg, ring.rmul
    n = len(rows)
    sparse = [[(j, a) for j, a in enumerate(r) if a] for r in rows]
    x = rows
    for step in range(1, n):
        diag = [0] * n
        trace = 0
        for i in range(n - 1, -1, -1):
            diag[i] = rneg(trace)
            trace = radd(trace, x[i][i])
        # only X_n[0][0] is read, so the last product needs row 0 alone
        nxt = []
        for i in range(1 if step == n - 1 else n):
            out = [0] * n
            xi = x[i]
            for k in range(i, n):
                c = diag[i] if k == i else xi[k]
                if c:
                    for j, a in sparse[k]:
                        out[j] = radd(out[j], rmul(c, a))
            nxt.append(out)
        x = nxt
    det = x[0][0]
    return rneg(det) if n % 2 == 0 else det


def roots_with_multiplicity(f: UnivariatePolynomial, max_ext: int):
    """All roots of f in F_(q^s) for s <= max_ext, with multiplicities.

    Each root is a RingElement of the smallest F_(q^s) that contains it:
    f's own ring for s = 1, ``CoeffRing.make(q**s)`` beyond.  Raises
    ExtensionBoundExceeded when f does not split completely within the
    allowed extensions, and TooLarge once the scan reaches a q^s beyond
    the table bound.
    """
    ring = f.ring
    if not ring.is_field:
        raise ShapeMismatch("root scan needs field coefficients")
    if f.is_zero:
        raise EmptyInput("zero polynomial has no root divisor")
    q = ring.q
    found = []
    accounted = 0
    for s in range(1, max_ext + 1):
        field = ring if s == 1 else CoeffRing.make(q**s)
        emb = base_embedding(ring, field)
        g = UnivariatePolynomial(field, [emb[c] for c in f.coeffs])
        for x in field.elements():
            # a root of degree below s was already found in a smaller field
            if g.evaluate(x).raw or frobenius_orbit_length(x, q) != s:
                continue
            mult = _multiplicity(g, x.raw)
            found.append((x, mult))
            accounted += mult
        if accounted == f.degree:
            return found
    raise ExtensionBoundExceeded(
        f"{f.degree - accounted} roots need extensions beyond degree {max_ext}"
    )


def base_embedding(base: CoeffRing, field: CoeffRing) -> list:
    """Raw images in ``field`` of the raw elements of the field ``base``.

    The generator x of base = F_p[x]/(m) goes to the smallest-index root
    of m in ``field``; F_p digits embed as themselves, since both rings
    share the characteristic p.
    """
    m = UnivariatePolynomial(field, base.modulus)
    root = next(r for r in field.elements() if m.evaluate(r).raw == 0)
    powers = [field.rpow(root.raw, i) for i in range(base.e)]
    table = []
    for b in base.element_indices():
        acc = 0
        for c, w in zip(base._coords[b][0], powers):
            acc = field.radd(acc, field.rmul(c, w))
        table.append(acc)
    return table


def frobenius_orbit_length(x: RingElement, q: int) -> int:
    """Length of the orbit of x under y -> y^q: the degree of x over F_q."""
    k, y = 1, x.ring.rfrob(x.raw, q)
    while y != x.raw:
        k, y = k + 1, x.ring.rfrob(y, q)
    return k


def _multiplicity(f: UnivariatePolynomial, x: int) -> int:
    radd, rmul = f.ring.radd, f.ring.rmul
    coeffs = f.coeffs
    mult = 0
    while len(coeffs) > 1:
        # synthetic division by (X - x)
        quot = [0] * (len(coeffs) - 1)
        carry = 0
        for k in range(len(coeffs) - 1, 0, -1):
            carry = radd(coeffs[k], rmul(carry, x))
            quot[k - 1] = carry
        if radd(coeffs[0], rmul(carry, x)):
            break
        mult += 1
        coeffs = quot
    return mult

"""Univariate polynomials over a CoeffRing and their resultants.

The resultant is the determinant of the Sylvester matrix, by Gaussian
elimination pivoted on eps-valuation: O(N^3) ring operations for size N.
R = F_q[eps]/(eps^e) is a chain ring: a nonzero raw element is eps^v * u
with u a unit, v its count of trailing zero base-q digits, so a column's
entry of least valuation divides the others and clearing it never divides
by a zero divisor.  ``SYLVESTER_LIMIT`` bounds only ``resultant``, before
its matrix is built; the geometric pairing's norms call ``_det_chain`` at
size deg f.  The test oracles in ``tests/det_oracle.py`` are the Laplace
expansion and Bird's division-free O(N^4) recurrence, which it replaced,
and root scans over F_(q^s) that check the resultant against the roots.
"""

from __future__ import annotations

from .errors import EmptyInput, ShapeMismatch, check_budget
from .ring import CoeffRing, Record, RingElement


class UnivariatePolynomial(Record):
    """Raw coefficients ascending; trailing coefficient nonzero (zero poly = ())."""

    __slots__ = _fields = ("ring", "coeffs")

    def __init__(self, ring: CoeffRing, coeffs):
        """Each coefficient read by ``CoeffRing.checked_raw``; trailing zeros dropped."""
        c = [ring.checked_raw(x, "polynomial coefficient") for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        Record.__init__(self, ring, tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "<poly 0>"
        bits = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            s = self.ring.pretty(c)
            if k == 0:
                bits.append(s)
            else:
                var = "X" if k == 1 else f"X^{k}"
                bits.append(var if s == "1" else f"({s})*{var}")
        return f"<poly {' + '.join(bits)}>"

    def mul(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        if self.ring != other.ring:
            raise ShapeMismatch("polynomials over different rings")
        ring = self.ring
        if self.is_zero or other.is_zero:
            return UnivariatePolynomial(ring, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = ring.radd(out[i + j], ring.rmul(a, b))
        return UnivariatePolynomial(ring, out)

    def evaluate(self, x: RingElement) -> RingElement:
        ring = self.ring
        if x.ring != ring:
            raise ShapeMismatch("evaluation point belongs to another ring")
        acc = 0
        for c in reversed(self.coeffs):
            acc = ring.radd(ring.rmul(acc, x.raw), c)
        return ring.from_raw(acc)


# the elimination takes about 1 s at this Sylvester size
SYLVESTER_LIMIT = 512


def _det_chain(rows, ring) -> int:
    """Determinant by elimination pivoted on eps-valuation: column k's pivot
    eps^v * u is its entry of least valuation at or below row k, and an
    entry b below it is the pivot times (b // q^v) * u^-1."""
    q, add, neg, mul, inv = ring.q, ring._add, ring._neg, ring._mul, ring._inv
    n = len(rows)
    rows = [list(r) for r in rows]
    det = ring.one
    for k in range(n):
        low, best = ring.nil, -1
        for i in range(k, n):
            a, v = rows[i][k], 0
            while a and a % q == 0:
                a, v = a // q, v + 1
            if a and v < low:
                low, best = v, i
        if best < 0:
            return 0
        if best != k:
            rows[k], rows[best] = rows[best], rows[k]
            det = neg[det]
        pivot_row, shift = rows[k], q**low
        det, unit_inv = mul[det][pivot_row[k]], inv[pivot_row[k] // shift]
        tail = [(j, a) for j, a in enumerate(pivot_row[k + 1 :], k + 1) if a]
        for r in rows[k + 1 :]:
            if r[k]:
                by = mul[neg[mul[r[k] // shift][unit_inv]]]
                for j, a in tail:
                    r[j] = add[r[j]][by[a]]
    return det


def sylvester_matrix(a: UnivariatePolynomial, b: UnivariatePolynomial):
    m, n = a.degree, b.degree
    size = m + n
    rows = []
    ra = list(reversed(a.coeffs))
    rb = list(reversed(b.coeffs))
    for i in range(n):
        rows.append([0] * i + ra + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + rb + [0] * (size - n - 1 - i))
    return rows


def resultant(a: UnivariatePolynomial, b: UnivariatePolynomial) -> RingElement:
    """Sylvester determinant; Res(a, b) = lc(a)^deg(b) * prod b(roots of a)."""
    if a.ring != b.ring:
        raise ShapeMismatch("polynomials over different rings")
    ring = a.ring
    m, n = a.degree, b.degree
    if m <= 0 and n <= 0:
        raise EmptyInput("resultant needs at least one nonconstant polynomial")
    if a.is_zero or b.is_zero:
        return ring.from_raw(0)
    if m == 0:
        return ring.from_raw(ring.rpow(a.coeffs[0], n))
    if n == 0:
        return ring.from_raw(ring.rpow(b.coeffs[0], m))
    check_budget(m + n, SYLVESTER_LIMIT, "Sylvester matrix of size {}")
    return ring.from_raw(_det_chain(sylvester_matrix(a, b), ring))

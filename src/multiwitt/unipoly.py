"""Univariate polynomials over a CoeffRing: resultants and root scans.

The resultant is the determinant of the Sylvester matrix, by Gaussian
elimination pivoted on eps-valuation: O(N^3) ring operations for size N.
R = F_q[eps]/(eps^e) is a chain ring: a nonzero raw element is eps^v * u
with u a unit, v its count of trailing zero base-q digits, so a column's
entry of least valuation divides the others and clearing it never divides
by a zero divisor.  ``SYLVESTER_LIMIT`` bounds only ``resultant``, before
its matrix is built; the geometric pairing's norms call ``_det_chain`` at
size deg f.  The test oracles in ``tests/det_oracle.py`` are the Laplace
expansion and Bird's division-free O(N^4) recurrence, which it replaced.

Root finding serves as an independent cross-check for the resultant path.
Roots are located by exhaustive evaluation over F_(q^s), the same
table-driven CoeffRing as every other field (``CoeffRing.make(q**s)``, so
q^s is bounded by the table size).  Base coefficients enter through the
embedding that sends the generator of F_q to the smallest-index root of
its modulus in F_(q^s); a root belongs to degree s when its orbit under
y -> y^q has length s.  Multiplicities come from repeated synthetic
division.  This is deliberately desk-scale.
"""

from __future__ import annotations

from .errors import EmptyInput, ExtensionBoundExceeded, ShapeMismatch, check_budget
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
    m = UnivariatePolynomial(field, base.field.modulus)
    root = next(r for r in field.elements() if m.evaluate(r).raw == 0)
    powers = [field.rpow(root.raw, i) for i in range(base.field.e)]
    table = []
    for b in base.element_indices():
        acc = 0
        for c, w in zip(base.field.index_to_vector(b), powers):
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

"""Univariate polynomials over a CoeffRing: resultants and root scans.

The resultant is the determinant of the Sylvester matrix, computed by
Bird's division-free algorithm (R. S. Bird, "A simple division-free
algorithm for computing determinants", IPL 111, 2011): O(N^4) ring
operations for an N x N matrix, fewer on the sparse Sylvester rows.
Gaussian or fraction-free elimination is avoided on purpose: pivots can be
zero divisors once nilpotents are around, while Bird's recurrence only
ever multiplies, adds and negates.  The exponential Laplace expansion it
replaced lives on as the test oracle ``tests/det_oracle.py``.

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

from .errors import EmptyInput, ExtensionBoundExceeded, ShapeMismatch
from .ring import CoeffRing, RingElement


class UnivariatePolynomial:
    """Coefficients ascending; trailing coefficient nonzero (zero poly = ())."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoeffRing, coeffs):
        self.ring = ring
        c = [x.raw if isinstance(x, RingElement) else int(x) % ring.size for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def from_raw(cls, ring: CoeffRing, raw_coeffs) -> "UnivariatePolynomial":
        return cls(ring, list(raw_coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, UnivariatePolynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

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
        self._check(other)
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
        return UnivariatePolynomial.from_raw(ring, out)

    def evaluate(self, x: RingElement) -> RingElement:
        ring = self.ring
        acc = 0
        for c in reversed(self.coeffs):
            acc = ring.radd(ring.rmul(acc, x.raw), c)
        return ring.from_raw(acc)

    def _check(self, other):
        if self.ring != other.ring:
            raise ShapeMismatch("polynomials over different rings")


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
    return ring.from_raw(_det_bird(sylvester_matrix(a, b), ring))


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
        g = UnivariatePolynomial.from_raw(field, [emb[c] for c in f.coeffs])
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
    m = UnivariatePolynomial.from_raw(field, base.field.modulus)
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

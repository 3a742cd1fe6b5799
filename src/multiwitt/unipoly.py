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
Roots are located by exhaustive evaluation over F_(q^s), built as a tower
extension F_q[y]/(g) with g found by deterministic scan, so base-field
coefficients embed verbatim.  Multiplicities come from repeated synthetic
division.  This is deliberately desk-scale.
"""

from __future__ import annotations

from .errors import EmptyInput, ExtensionBoundExceeded, NonUnit, ShapeMismatch
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

    def lc_raw(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coeff(self, k: int) -> RingElement:
        raw = self.coeffs[k] if 0 <= k < len(self.coeffs) else 0
        return self.ring.from_raw(raw)

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

    def add(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        self._check(other)
        ring = self.ring
        m = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(m):
            a = self.coeffs[k] if k < len(self.coeffs) else 0
            b = other.coeffs[k] if k < len(other.coeffs) else 0
            out.append(ring.radd(a, b))
        return UnivariatePolynomial.from_raw(ring, out)

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

    def scale(self, c_raw: int) -> "UnivariatePolynomial":
        ring = self.ring
        return UnivariatePolynomial.from_raw(ring, [ring.rmul(c_raw, a) for a in self.coeffs])

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


class ExtensionField:
    """F_(q^s) as a tower F_q[y]/(g); elements are tuples of base indices."""

    def __init__(self, base: CoeffRing, s: int):
        if not base.is_field:
            raise ShapeMismatch("extension fields need a field base")
        self.base = base
        self.s = s
        self.modulus = _find_tower_modulus(base, s) if s > 1 else (0, 1)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and self.base == other.base
            and self.s == other.s
        )

    def __hash__(self):
        return hash((self.base, self.s))

    @property
    def order(self) -> int:
        return self.base.size**self.s

    def zero(self):
        return (0,) * self.s

    def one(self):
        return (self.base.one,) + (0,) * (self.s - 1)

    def embed(self, a_raw: int):
        return (a_raw,) + (0,) * (self.s - 1)

    def elements(self):
        base_size = self.base.size
        for idx in range(self.order):
            v, out = idx, []
            for _ in range(self.s):
                out.append(v % base_size)
                v //= base_size
            yield tuple(out)

    def add(self, x, y):
        radd = self.base.radd
        return tuple(radd(a, b) for a, b in zip(x, y))

    def neg(self, x):
        return tuple(self.base.rneg(a) for a in x)

    def mul(self, x, y):
        base, s = self.base, self.s
        out = [0] * (2 * s - 1)
        for i, a in enumerate(x):
            if a == 0:
                continue
            for j, b in enumerate(y):
                if b:
                    out[i + j] = base.radd(out[i + j], base.rmul(a, b))
        for k in range(2 * s - 2, s - 1, -1):
            c = out[k]
            if c == 0:
                continue
            out[k] = 0
            for t in range(s):
                out[k - s + t] = base.rsub(out[k - s + t], base.rmul(c, self.modulus[t]))
        return tuple(out[:s])

    def pow(self, x, k: int):
        out, b = self.one(), x
        while k:
            if k & 1:
                out = self.mul(out, b)
            b = self.mul(b, b)
            k >>= 1
        return out

    def inv(self, x):
        if all(a == 0 for a in x):
            raise NonUnit("zero has no inverse")
        return self.pow(x, self.order - 2)

    def frobenius_q(self, x):
        return self.pow(x, self.base.size)

    def minimal_degree(self, x) -> int:
        """Smallest s' with x fixed by the s'-fold base-field Frobenius."""
        y = x
        for k in range(1, self.s + 1):
            y = self.frobenius_q(y)
            if y == x:
                return k
        raise AssertionError("element not fixed by the full Frobenius orbit")

    def pretty(self, x) -> str:
        bits = []
        for k, a in enumerate(x):
            if a == 0:
                continue
            s = self.base.pretty(a)
            if k == 0:
                bits.append(s)
            else:
                var = "y" if k == 1 else f"y^{k}"
                bits.append(var if s == "1" else f"({s})*{var}")
        return "+".join(bits) if bits else "0"


def _tower_poly_divides(d, f, base):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    e = len(d) - 1
    inv_lead = base.rinv(d[-1])
    while len(f) - 1 >= e and f:
        c = base.rmul(f[-1], inv_lead)
        k = len(f) - 1 - e
        for t in range(len(d)):
            f[k + t] = base.rsub(f[k + t], base.rmul(c, d[t]))
        while f and f[-1] == 0:
            f.pop()
    return not f


def _find_tower_modulus(base: CoeffRing, s: int):
    """Deterministic scan for a monic irreducible of degree s over F_q."""
    size = base.size
    for idx in range(size**s):
        v, cand = idx, []
        for _ in range(s):
            cand.append(v % size)
            v //= size
        cand.append(base.one)
        if _tower_irreducible(cand, base):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {s} over field of size {size}")


def _tower_irreducible(cand, base: CoeffRing) -> bool:
    s = len(cand) - 1
    # no roots in the base field
    for a in range(base.size):
        acc = 0
        for c in reversed(cand):
            acc = base.radd(base.rmul(acc, a), c)
        if acc == 0:
            return False
    if s <= 3:
        return True
    for deg in range(2, s // 2 + 1):
        for idx in range(base.size**deg):
            v, d = idx, []
            for _ in range(deg):
                d.append(v % base.size)
                v //= base.size
            d.append(base.one)
            if _tower_poly_divides(d, cand, base):
                return False
    return True


class ExtElement:
    """Root wrapper carrying its extension field; enough arithmetic for tests."""

    __slots__ = ("field", "value")

    def __init__(self, field: ExtensionField, value):
        self.field = field
        self.value = value

    def __eq__(self, other):
        return (
            isinstance(other, ExtElement)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return f"<ext {self.field.pretty(self.value)} deg {self.field.s}>"

    def __mul__(self, other):
        return ExtElement(self.field, self.field.mul(self.value, other.value))

    def __add__(self, other):
        return ExtElement(self.field, self.field.add(self.value, other.value))

    @property
    def in_base(self) -> bool:
        return all(a == 0 for a in self.value[1:])

    def base_element(self) -> RingElement:
        if not self.in_base:
            raise ShapeMismatch("element does not lie in the base field")
        return self.field.base.from_raw(self.value[0])


def evaluate_in_extension(f: UnivariatePolynomial, ext: ExtensionField, x):
    acc = ext.zero()
    for c in reversed(f.coeffs):
        acc = ext.add(ext.mul(acc, x), ext.embed(c))
    return acc


def roots_with_multiplicity(f: UnivariatePolynomial, max_ext: int):
    """All roots of f in F_(q^s) for s <= max_ext, with multiplicities.

    Raises ExtensionBoundExceeded when f does not split completely within
    the allowed extensions.
    """
    ring = f.ring
    if not ring.is_field:
        raise ShapeMismatch("root scan needs field coefficients")
    if f.is_zero:
        raise EmptyInput("zero polynomial has no root divisor")
    found = []
    accounted = 0
    for s in range(1, max_ext + 1):
        ext = ExtensionField(ring, s)
        for x in ext.elements():
            if evaluate_in_extension(f, ext, x) != ext.zero():
                continue
            if s > 1 and ext.minimal_degree(x) != s:
                continue  # already found inside a smaller field
            mult = _multiplicity(f, ext, x)
            found.append((ExtElement(ext, x), mult))
            accounted += mult
        if accounted == f.degree:
            return found
    raise ExtensionBoundExceeded(
        f"{f.degree - accounted} roots need extensions beyond degree {max_ext}"
    )


def _multiplicity(f: UnivariatePolynomial, ext: ExtensionField, x) -> int:
    coeffs = [ext.embed(c) for c in f.coeffs]
    mult = 0
    while len(coeffs) > 1:
        # synthetic division by (X - x)
        quot = [ext.zero()] * (len(coeffs) - 1)
        carry = ext.zero()
        for k in range(len(coeffs) - 1, 0, -1):
            carry = ext.add(coeffs[k], ext.mul(carry, x))
            quot[k - 1] = carry
        rem = ext.add(coeffs[0], ext.mul(carry, x))
        if rem != ext.zero():
            break
        mult += 1
        coeffs = quot
    return mult

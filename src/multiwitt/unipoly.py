"""Univariate polynomials over a CoeffRing and their Sylvester resultants.

No route calls this module: the geometric pairing takes its norms in
``duality``, by the elimination ``_det_chain`` that ``resultant`` applies
here to the Sylvester matrix.  It stays only for ``resultant``, the tests'
oracle of those norms, which the benchmark's tracer resolves by name,
until that span goes (ROADMAP item 1, Stage A).
"""

from __future__ import annotations

from .duality import _det_chain
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


# the elimination takes about 1 s at this Sylvester size
SYLVESTER_LIMIT = 512


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

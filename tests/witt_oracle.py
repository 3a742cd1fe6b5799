"""Dense reference for the Witt ring product.

In one variable the product is the convolution of the two peeled
coordinate families at the full truncation.  In several variables both
factors are split into one-variable components at every primitive
exponent of the box, each pair of components is multiplied, and the
products are substituted back and multiplied together, identity
components included.  It does work proportional to the whole exponent
box and exists to check the library's product, which touches only the
primitive parts both factors share.
"""

from __future__ import annotations

from multiwitt.series import TruncatedSeries, grlex_key
from multiwitt.witt import WittElement, decompose, mul_coordinate_families, witt_coordinates


def witt_mul_1var(a: WittElement, b: WittElement) -> WittElement:
    """Coordinatewise convolution product in one variable."""
    ca = {i: c for (i,), c in witt_coordinates(a).coords.items()}
    cb = {j: c for (j,), c in witt_coordinates(b).coords.items()}
    return WittElement(mul_coordinate_families(a.ring, a.d, ca, cb))


def witt_mul_dense(a: WittElement, b: WittElement) -> WittElement:
    """Componentwise product through the dense decomposition."""
    if a.n == 1:
        return witt_mul_1var(a, b)
    fa, fb = decompose(a), decompose(b)
    acc = TruncatedSeries.one(a.ring, a.n, a.d)
    for nu in sorted(fa.components, key=grlex_key):
        comp = witt_mul_1var(fa.components[nu], fb.components[nu])
        terms = {tuple(i * v for v in nu): c for (i,), c in comp.series.terms.items()}
        acc = acc.mul(TruncatedSeries(a.ring, a.n, a.d, terms))
    return WittElement(acc)

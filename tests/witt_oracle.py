"""Dense references for the Witt ring product and the decomposition.

In one variable the product is the convolution of the two peeled
coordinate families at the full truncation.  In several variables both
factors are split into one-variable components at every primitive
exponent of the box, each pair of components is multiplied, and the
products are substituted back and multiplied together, identity
components included.  It does work proportional to the whole exponent
box and exists to check the library's product, which touches only the
primitive parts both factors share.  ``decompose_dense`` builds a
component at every primitive exponent of the box, identities included,
and checks the library's ``decompose``, which builds only the parts an
element has.
"""

from __future__ import annotations

from multiwitt.series import TruncatedSeries, grlex_key, primitive_exponents_below
from multiwitt.witt import (
    OneVarComponentFamily,
    WittCoordinates,
    WittElement,
    from_coordinates,
    group_by_primitive,
    mul_coordinate_families,
    one_var_order,
    witt_coordinates,
)


def decompose_dense(a: WittElement) -> OneVarComponentFamily:
    """Group the coordinates by primitive exponent into one-variable parts.

    No component is flagged exact: like a product from ``witt_mul``, each
    is only known below its truncation order."""
    ring, n, d = a.ring, a.n, a.d
    grouped = group_by_primitive(witt_coordinates(a).coords)
    components = {}
    for nu0 in primitive_exponents_below(n, d):
        k = one_var_order(d, sum(nu0))
        part = grouped.get(nu0)
        if part is None:
            components[nu0] = WittElement.one(ring, 1, k)
            continue
        comp = from_coordinates(WittCoordinates(ring, 1, k, {(i,): r for i, r in part.items()}))
        components[nu0] = WittElement(comp.series.copy_with(exact=False))
    # identities included, so the family's parts and components coincide
    return OneVarComponentFamily(ring, n, d, components)


def witt_mul_1var(a: WittElement, b: WittElement) -> WittElement:
    """Coordinatewise convolution product in one variable."""
    ca = {i: c for (i,), c in witt_coordinates(a).coords.items()}
    cb = {j: c for (j,), c in witt_coordinates(b).coords.items()}
    return WittElement(mul_coordinate_families(a.ring, a.d, ca, cb))


def witt_mul_dense(a: WittElement, b: WittElement) -> WittElement:
    """Componentwise product through the dense decomposition."""
    if a.n == 1:
        return witt_mul_1var(a, b)
    fa, fb = decompose_dense(a), decompose_dense(b)
    acc = TruncatedSeries.one(a.ring, a.n, a.d)
    for nu in sorted(fa.components, key=grlex_key):
        comp = witt_mul_1var(fa.components[nu], fb.components[nu])
        terms = {tuple(i * v for v in nu): c for (i,), c in comp.series.terms.items()}
        acc = acc.mul(TruncatedSeries(a.ring, a.n, a.d, terms))
    return WittElement(acc)

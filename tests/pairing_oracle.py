"""The three pairing routes read to their whole level: the reference for
the library's routes, which run at min(level, C(f)) on g cut at the degree
they read.

Each function here takes the level it is given to the end: it peels,
walks or factors g at the level asked for and at g's full truncation, and
the geometric walk goes to m in every part.  They share the library's
checks, the walk over shared parts and the per-part kernels, so a
difference from the library's route comes from the cut alone: the values
must agree at every level, and each refusal must fire on the same inputs
with the same message.
"""

from __future__ import annotations

from multiwitt.duality import (
    _certify_default_level,
    _component_pair_value,
    _geometric_values,
    _shared_parts,
    _slot_value,
)
from multiwitt.errors import InvalidTruncation, UnstableTruncation
from multiwitt.ptypical import pi_epsilon_inverse
from multiwitt.series import unpack_exponent
from multiwitt.witt import WittElement, one_var_order


def cartier_pair(f, g, d=None):
    if d is None:
        d = g.d - 1
        _certify_default_level(f, g, g.d)
    if d < 1 or d + 1 > g.d:
        raise InvalidTruncation(f"need 1 <= d and d + 1 <= {g.d}")
    ring = f.ring
    acc = step = ring.one
    for _, w, fa, gb in _shared_parts(f, g):
        below = {j: c for j, c in gb.items() if j * w < d}
        at = {j: c for j, c in gb.items() if j * w == d}
        acc = ring.rmul(acc, _component_pair_value(ring, fa, below))
        step = ring.rmul(step, _component_pair_value(ring, fa, at))
    if step != ring.one:
        raise UnstableTruncation("pairing value changed between d and d + 1")
    return ring.from_raw(acc)


def geometric_pair(f, g, m=None):
    if m is None:
        m = g.d - 1
        _certify_default_level(f, g, g.d)
    if m < 1:
        raise InvalidTruncation("truncation level m must be >= 1")
    if m + 1 > g.d:
        raise InvalidTruncation(
            f"stability check needs the second argument known to degree {m + 1}"
        )
    ring, acc = f.ring, f.ring.one
    for key, w, fp, gp in _shared_parts(f, g, elements=True):
        k = one_var_order(g.d, w)
        if m + 1 > k:
            nu = unpack_exponent(key, g.n, g.d)
            raise InvalidTruncation(
                f"component at {nu} only carries {k} terms, need m + 1 = {m + 1}"
            )
        value, next_value = _geometric_values(ring, fp.series.keys, fp.degree, gp.series.keys, m)
        if value != next_value:
            raise UnstableTruncation("pairing value changed between m and m + 1")
        acc = ring.rmul(acc, value)
    return ring.from_raw(acc)


def pairing_via_components(f, g, d=None):
    if d is None:
        d = g.d - 1
        _certify_default_level(f, g, d)
    if d < 1 or d > g.d:
        raise InvalidTruncation(f"need 1 <= d <= {g.d}")
    ring = f.ring
    acc = ring.one
    for _, w, fp, gp in _shared_parts(f, g, elements=True):
        fam_f = pi_epsilon_inverse(WittElement(fp.series.extend(fp.coordinate_bound())))
        fam_g = pi_epsilon_inverse(gp.truncate(one_var_order(d, w)))
        for j, vf in fam_f.items():
            vg = fam_g.get(j)
            if vg is None or not any(vg.entries) or not any(vf.entries):
                continue
            value = _slot_value(ring, vf.entries, vg.entries)
            if value != ring.one:
                acc = ring.rmul(acc, ring.rpow(value, -j))
    return ring.from_raw(acc)

"""The tuple kernel of the series layer, the reference for its packed keys.

Each kernel function takes ``TruncatedSeries`` values, reads them only
through the tuple-keyed ``terms`` view, and returns ``(terms, exact)``: a
dict from exponent tuples to nonzero raw coefficients and the exactness
flag the library's method must produce.  Exponents are added entry by
entry and the truncation test sums them, so nothing here shares the
integer keys of ``multiwitt.series``.

``copy_with``, ``shifted`` and ``eval_all_ones`` are series helpers the
tests and the other oracles build on, and ``grlex_key`` is the graded
order on exponent tuples that packed keys follow; the library has no use
for them.
"""

from __future__ import annotations

from multiwitt.errors import NotExact
from multiwitt.series import TruncatedSeries


def grlex_key(exp: tuple):
    """Total degree first, then tuple comparison: the order of the keys."""
    return (sum(exp), exp)


def _accumulate(ring, out: dict, exp: tuple, c: int) -> None:
    s = ring.radd(out.get(exp, 0), c)
    if s:
        out[exp] = s
    else:
        out.pop(exp, None)


def _mul(ring, d: int, ta: dict, tb: dict):
    """Truncated product of two term dicts, and whether a nonzero term fell
    at or past degree d."""
    out, discarded = {}, False
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            prod = ring.rmul(ca, cb)
            if sum(ea) + sum(eb) >= d:
                discarded = discarded or prod != 0
            elif prod:
                _accumulate(ring, out, tuple(x + y for x, y in zip(ea, eb)), prod)
    return out, discarded


def mul(a, b):
    out, discarded = _mul(a.ring, a.d, a.terms, b.terms)
    return out, a.exact and b.exact and not discarded


def scale_shift(a, raw_coef: int, shift: tuple):
    out, discarded = _mul(a.ring, a.d, a.terms, {tuple(shift): raw_coef})
    return out, a.exact and not discarded


def add_series(a, b):
    out = dict(a.terms)
    for e, c in b.terms.items():
        _accumulate(a.ring, out, e, c)
    return out, a.exact and b.exact


def inv(a):
    """1/a = u * sum_(k<d) (-u (a - c0))^k with u = 1/c0; exact when a is,
    the powers of -u (a - c0) die out below k = d, and no power dropped a
    nonzero term at degree d or above."""
    ring, d = a.ring, a.d
    zero = (0,) * a.n
    u = ring.rinv(a.terms[zero])
    x = {e: ring.rneg(ring.rmul(u, c)) for e, c in a.terms.items() if e != zero}
    acc, pw, dropped = {zero: ring.one}, x, False
    for _ in range(1, d):
        if not pw:
            break
        for e, c in pw.items():
            _accumulate(ring, acc, e, c)
        pw, discarded = _mul(ring, d, pw, x)
        dropped = dropped or discarded
    out, _ = _mul(ring, d, acc, {zero: u})
    return out, a.exact and not pw and not dropped


def truncate(a, d_new: int):
    out = {e: c for e, c in a.terms.items() if sum(e) < d_new}
    return out, a.exact and len(out) == len(a.terms)


def extend(a, d_new: int):
    """An exact polynomial at order d_new: the same terms when d_new grows."""
    assert a.exact
    return truncate(a, d_new) if d_new < a.d else (dict(a.terms), True)


def copy_with(a, terms=None, d=None, exact=None):
    """``a`` with its terms, order or exactness flag replaced, through the
    public constructor."""
    exact = a.exact if exact is None else exact
    d = a.d if d is None else d
    return TruncatedSeries(a.ring, a.n, d, a.terms if terms is None else terms, exact)


def shifted(a, raw_coef: int, shift: tuple):
    """``a`` times coef * t^shift as a series, terms at or past d dropped."""
    terms, exact = scale_shift(a, raw_coef, shift)
    return copy_with(a, terms, exact=exact)


def eval_all_ones(a):
    """The value of an exact series at t = 1: the sum of its coefficients."""
    if not a.exact:
        raise NotExact("evaluation at t = 1 is only defined for exact series")
    acc = 0
    for c in a.terms.values():
        acc = a.ring.radd(acc, c)
    return a.ring.from_raw(acc)

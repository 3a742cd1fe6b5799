"""Symbolic reference for the p-typical laws and the Artin-Hasse coefficients.

The laws are built once per (p, m) as polynomials with exact rational
coefficients and evaluated in the target ring; the Artin-Hasse series is
built as exp(sum_i (x s)^(p^i) / p^i) with the argument kept as an
indeterminate.  Both are slow and exist to check the library's ghost-lift
laws and Artin-Hasse recurrence against an independent construction.

``lift_op`` is the former ghost-lift law of ``multiwitt.ptypical`` in list
form: each element of A_m = (Z/p^m)[x]/(f~)[eps]/(eps^nil) is a nil x e
matrix of integers, and a product is a triple loop over its digits, where
the library packs the matrix into one integer.

``pi_epsilon_per_factor`` and ``pi_epsilon_inverse_per_factor`` are the
former factor maps of ``multiwitt.ptypical``: each builds one series per
Artin-Hasse factor with ``artin_hasse_exp`` and multiplies it in by
``TruncatedSeries.mul``, or divides it out by ``/``, where the library
works on one key dict in place.

``reduce_fraction`` is the former per-call reduction of an Artin-Hasse
coefficient into a ring, through the ring's own operations, where the
library reads one table of residues per p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from multiwitt import NonIntegral, PWittVector, WittElement, artin_hasse_exp, component_lengths


class QPoly:
    """Map from exponent tuples to nonzero Fractions; fixed variable count."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {e: Fraction(c) for e, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, nvars: int, c) -> "QPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def var(cls, nvars: int, i: int, power: int = 1) -> "QPoly":
        e = [0] * nvars
        e[i] = power
        return cls(nvars, {tuple(e): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "QPoly") -> "QPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return QPoly(self.nvars, out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "QPoly") -> "QPoly":
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return QPoly(self.nvars, out)

    def scale(self, c) -> "QPoly":
        c = Fraction(c)
        return QPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def pow(self, k: int) -> "QPoly":
        out = QPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval_raw(self, ring, values) -> int:
        """Evaluate at raw ring elements; coefficients must be p-integral."""
        p = ring.p
        acc = ring.zero
        for e, c in self.terms.items():
            if c.denominator % p == 0:
                raise NonIntegral(f"coefficient {c} not {p}-integral")
            term = ring.rmul(ring.rint(c.numerator), ring.rinv(ring.rint(c.denominator)))
            for value, k in zip(values, e):
                if k:
                    term = ring.rmul(term, ring.rpow(value, k))
            acc = ring.radd(acc, term)
        return acc


@lru_cache(maxsize=None)
def law_polynomials(p: int, m: int, kind: str) -> tuple:
    """Sum/product laws in variables x_0..x_{m-1}, y_0..y_{m-1}."""
    nv = 2 * m

    def ghost_poly(vals, i):
        acc = QPoly(nv)
        for k in range(i + 1):
            acc = acc + vals[k].pow(p ** (i - k)).scale(Fraction(p) ** k)
        return acc

    xs = [QPoly.var(nv, i) for i in range(m)]
    ys = [QPoly.var(nv, m + i) for i in range(m)]
    laws = []
    for i in range(m):
        gx, gy = ghost_poly(xs, i), ghost_poly(ys, i)
        target = gx + gy if kind == "sum" else gx * gy
        for k in range(i):
            target = target - laws[k].pow(p ** (i - k)).scale(Fraction(p) ** k)
        law = target.scale(Fraction(1, p**i))
        if any(c.denominator != 1 for c in law.terms.values()):
            raise NonIntegral(f"{kind} law entry {i} has a fractional coefficient")
        laws.append(law)
    return tuple(laws)


def law_op(v: PWittVector, w: PWittVector, kind: str) -> PWittVector:
    """Sum ("sum") or product ("prod") of ring-mode vectors by the laws."""
    laws = law_polynomials(v.p, len(v), kind)
    values = list(v.entries) + list(w.entries)
    return PWittVector(v.p, [law.eval_raw(v.ring, values) for law in laws], v.ring)


def _lift_mul(a: list, b: list, ring, mod: int) -> list:
    e, f = ring.e, ring.modulus
    rows = [[0] * (2 * e - 1) for _ in a]
    for i, ra in enumerate(a):
        for j in range(len(a) - i):
            rb, row = b[j], rows[i + j]
            for s, c in enumerate(ra):
                if c:
                    for t, y in enumerate(rb):
                        row[s + t] += c * y
    for row in rows:
        # x^k = -x^(k-e) (f_0 + .. + f_(e-1) x^(e-1)) for k >= e
        for k in range(2 * e - 2, e - 1, -1):
            c = row[k]
            if c:
                for t in range(e):
                    row[k - e + t] -= c * f[t]
    return [[c % mod for c in row[:e]] for row in rows]


def _lift_pow(a: list, k: int, ring, mod: int) -> list:
    out = None
    while k:
        if k & 1:
            out = a if out is None else _lift_mul(out, a, ring, mod)
        k >>= 1
        if k:
            a = _lift_mul(a, a, ring, mod)
    return out


def _add_ghost_terms(ghosts: list, k: int, x: list, ring, mod: int) -> None:
    """Add p^k x^(p^(i-k)) to ghosts[i] for every i >= k."""
    p, scale = ring.p, ring.p**k
    for i in range(k, len(ghosts)):
        ghosts[i] = [
            [(g + scale * c) % mod for g, c in zip(grow, xrow)]
            for grow, xrow in zip(ghosts[i], x)
        ]
        if i + 1 < len(ghosts):
            x = _lift_pow(x, p, ring, mod)


def _lift_ghosts(v: PWittVector, mod: int) -> list:
    ring = v.ring
    ghosts = [[[0] * ring.e for _ in range(ring.nil)] for _ in v.entries]
    for k, raw in enumerate(v.entries):
        if raw:
            _add_ghost_terms(ghosts, k, ring.raw_to_coords(raw), ring, mod)
    return ghosts


def lift_op(v: PWittVector, w: PWittVector, kind: str) -> PWittVector:
    """Sum ("sum") or product ("prod") of ring-mode vectors by the
    ghost-lift method on digit matrices."""
    ring, p, m = v.ring, v.p, len(v)
    mod = p**m
    gv, gw = _lift_ghosts(v, mod), _lift_ghosts(w, mod)
    if kind == "sum":
        target = [
            [[(a + b) % mod for a, b in zip(ra, rb)] for ra, rb in zip(x, y)]
            for x, y in zip(gv, gw)
        ]
    else:
        target = [_lift_mul(x, y, ring, mod) for x, y in zip(gv, gw)]
    # solved[i] accumulates sum_{k<i} p^k z_k^(p^(i-k)) as entries are found
    solved = [[[0] * ring.e for _ in range(ring.nil)] for _ in range(m)]
    entries = []
    for i in range(m):
        scale = p**i
        digits = []
        for trow, srow in zip(target[i], solved[i]):
            row = []
            for t, s in zip(trow, srow):
                c = (t - s) % mod
                if c % scale:
                    raise NonIntegral(f"{kind} law entry {i} is not divisible by {p}^{i}")
                row.append(c // scale % p)
            digits.append(row)
        entries.append(ring.coords_to_raw(digits))
        if entries[-1]:
            _add_ghost_terms(solved, i, digits, ring, mod)
    return PWittVector(p, entries, ring)


def artin_hasse_by_exp_log(p: int, count: int) -> tuple:
    """First ``count`` coefficients of AH(s) as exp of the truncated log
    sum_i (x s)^(p^i) / p^i, checking that coefficient k is a p-integral
    scalar times x^k."""
    K = count
    series = [QPoly(1) for _ in range(K)]
    if K:
        series[0] = QPoly.const(1, 1)
    log_term = [QPoly(1) for _ in range(K)]
    i = 0
    while p**i < K:
        log_term[p**i] = QPoly.var(1, 0, p**i).scale(Fraction(1, p**i))
        i += 1
    # E = sum_k L^k / k!
    power = [QPoly.const(1, 1)] + [QPoly(1) for _ in range(K - 1)]
    fact = 1
    for k in range(1, K):
        fact *= k
        nxt = [QPoly(1) for _ in range(K)]
        for da in range(K):
            if not power[da]:
                continue
            for db in range(1, K - da):
                if log_term[db]:
                    nxt[da + db] = nxt[da + db] + power[da] * log_term[db]
        power = nxt
        if not any(power):
            break
        for deg in range(K):
            if power[deg]:
                series[deg] = series[deg] + power[deg].scale(Fraction(1, fact))
    out = []
    for k in range(K):
        terms = series[k].terms
        if set(terms) - {(k,)}:
            raise NonIntegral(f"unexpected monomial at degree {k}")
        c = terms.get((k,), Fraction(0))
        if c.denominator % p == 0:
            raise NonIntegral(f"Artin-Hasse coefficient {k} is {c}, not {p}-integral")
        out.append(c)
    return tuple(out)


def pi_epsilon_per_factor(family: dict, ring, d: int) -> WittElement:
    """The product of the factors E(v_(j,i), t^(j p^i)), one series each."""
    p = ring.p
    acc = WittElement.one(ring, 1, d)
    for j in sorted(family):
        for i, entry in enumerate(family[j].entries):
            k = j * p**i
            if entry and k < d:
                factor = artin_hasse_exp(ring.from_raw(entry), k, d)
                acc = WittElement(acc.series.mul(factor.series))
    return acc


def pi_epsilon_inverse_per_factor(a: WittElement) -> dict:
    """The family of ``a``: the coefficient at t^k, k = j p^i, is entry i
    of v_j, and dividing the running series by E(that entry, t^k) exposes
    the next one."""
    ring, d = a.ring, a.d
    p = ring.p
    entries = {j: [0] * m for j, m in component_lengths(p, d).items()}
    running = a.series
    for k in range(1, d):
        c = running.keys.get(k, 0)
        if c:
            j, i = k, 0
            while j % p == 0:
                j, i = j // p, i + 1
            entries[j][i] = c
            running = running / artin_hasse_exp(ring.from_raw(c), k, d).series
    if running.support_degree():
        raise NonIntegral("factor peeling left a nonunit remainder")
    return {j: PWittVector(p, e, ring) for j, e in entries.items()}


def reduce_fraction(ring, c: Fraction) -> int:
    """The raw of the p-integral rational c in ring: numerator times the
    inverse of the denominator, each the image of an integer."""
    if c.denominator % ring.p == 0:
        raise NonIntegral(f"{c} is not {ring.p}-integral")
    return ring.rmul(ring.rint(c.numerator), ring.rinv(ring.rint(c.denominator)))

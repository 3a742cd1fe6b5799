"""p-typical Witt vectors, ghost components, and the Artin-Hasse exponential.

A length-m vector (v_0, .., v_{m-1}) has ghost components

    w_i = v_0^(p^i) + p v_1^(p^(i-1)) + .. + p^i v_i,

and the ring laws are the unique polynomial laws that are ghost-wise
addition and multiplication.  Rational-mode vectors apply the definition
over exact rationals.  Ring-mode vectors over R = F_q[eps]/(eps^nil) use
the ghost-lift method: each entry's nil x e digit matrix is read as an
element of A_m = (Z/p^m)[x]/(f~)[eps]/(eps^nil), with f~ the field
modulus read over the integers; the ghosts are formed in A_m, combined
slot by slot and solved back one entry at a time,

    z_i = (W_i - sum_{k<i} p^k z_k^(p^(i-k))) / p^i  reduced mod p.

Only the residues of earlier entries matter, because x = y (mod p)
implies x^(p^j) = y^(p^j) (mod p^(j+1)).  Every division is exact; a
violation raises NonIntegral as a bug signal.  A vector of length 1 is
its ring element, so its laws are one ring table lookup.

An element of A_m is one packed integer (Kronecker substitution): digit
(eps^i, x^s) sits in slot i*(2e-1) + s, W bits a slot, with W the bit
length of max(nil*e*(p^m-1)^2, 3 p^(2m) - 1).  Stored digits lie in
[0, p^m), so a product slot below eps^nil sums at most nil*e terms below
p^(2m) and a product is one integer multiply, then folding x^k, k >= e,
by the monic f~ and each digit mod p^m.  A ghost sum stays below p^(2m),
and the solve-back adds a bias of p^(2m) per digit before it subtracts,
so no slot borrows or overflows.  The lifted p-power ladders of the raw
elements met are kept per (ring, m), so ghosts cost additions only.

The Artin-Hasse series AH(s) = exp(sum_i s^(p^i)/p^i) has p-integral
coefficients a_n, built from s AH'(s) = AH(s) sum_i s^(p^i), that is
n a_n = sum_{p^i <= n} a_{n - p^i}; reduced into F_p, they are kept in one
table per p, extended on demand.  E(x, t^j) denotes AH(x t^j).
Multiplying factors E(v_i, t^(j p^i)) over i embeds a vector into the
one-variable truncated group, and doing so over all j coprime to p, on
the series layer's product driver (``series.multiply_keys``), is a
bijection onto it; the inverse solves one entry per exponent in
ascending order, on the driver of the coordinate peel (``series.peel_keys``):
E(c, t^k) pushes -a_m c^m to k m, read off the table up to c^m = 0, and
a factor of a nilpotent c counts only the coefficients it reads.
Pairing a nilpotent vector v against w evaluates E at
t = 1 on the product v*w, which is a finite sum by nilpotency.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NonIntegral, NotNilpotent, SchemaError, ShapeMismatch
from .errors import check_budget
from .ring import CoeffRing, Record, RingElement, _is_prime
from .series import TruncatedSeries, check_shape, multiply_keys, peel_keys
from .witt import FAMILY_LIMIT, WittElement


class GhostVector(Record):
    __slots__ = _fields = ("p", "entries")


class PWittVector(Record):
    """Entries are raw ring integers (ring mode) or Fractions (rational mode,
    ``ring`` None); ``_make`` takes them as a tuple of checked values."""

    __slots__ = _fields = ("p", "entries", "ring")

    def __init__(self, p: int, entries, ring: CoeffRing | None = None):
        """Entries read as Fractions, or by ``CoeffRing.checked_raw``."""
        if ring is None:
            entries = tuple(Fraction(v) for v in entries)
        else:
            if ring.p != p:
                raise ShapeMismatch("ring characteristic differs from p")
            entries = tuple(ring.checked_raw(v, "vector entry") for v in entries)
        Record.__init__(self, p, entries, ring)

    @classmethod
    def zero(cls, p: int, m: int, ring: CoeffRing | None = None) -> "PWittVector":
        return cls(p, [0] * m, ring)

    @classmethod
    def one(cls, p: int, m: int, ring: CoeffRing | None = None) -> "PWittVector":
        one = 1 if ring is None else ring.one
        return cls(p, [one] + [0] * (m - 1), ring)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        if self.ring is None:
            inner = ", ".join(str(v) for v in self.entries)
        else:
            inner = ", ".join(self.ring.pretty(v) for v in self.entries)
        return f"W_{self.p}({inner})"

    @property
    def rational(self) -> bool:
        return self.ring is None

    def is_nilpotent(self) -> bool:
        if self.ring is None:
            return all(v == 0 for v in self.entries)
        return all(self.ring.is_nilpotent_raw(v) for v in self.entries)

    def pad(self, m: int) -> "PWittVector":
        """The vector with zeros appended up to length m; itself at length m."""
        short = m - len(self.entries)
        if short < 0:
            raise ShapeMismatch("cannot shorten a vector")
        if not short:
            return self
        return PWittVector._make(self.p, self.entries + (0,) * short, self.ring)

    def to_json_dict(self):
        if self.ring is None:
            return {"p": self.p, "entries": [str(v) for v in self.entries]}
        return {"p": self.p, "entries": [self.ring.raw_to_coords(v) for v in self.entries]}


def ghost(v: PWittVector) -> GhostVector:
    """Ghost components of a rational-mode vector."""
    if not v.rational:
        raise ShapeMismatch("ghost components are computed in rational mode")
    p = v.p
    out = []
    for i in range(len(v)):
        acc = Fraction(0)
        for k in range(i + 1):
            acc += Fraction(p) ** k * v.entries[k] ** (p ** (i - k))
        out.append(acc)
    return GhostVector(p, tuple(out))


def from_ghost(w: GhostVector) -> PWittVector:
    """Solve the triangular ghost system over exact rationals."""
    p = w.p
    entries = []
    for i in range(len(w.entries)):
        acc = w.entries[i]
        for k in range(i):
            acc -= Fraction(p) ** k * entries[k] ** (p ** (i - k))
        entries.append(acc / Fraction(p) ** i)
    return PWittVector(p, entries)


def _op_rational(v: PWittVector, w: PWittVector, kind: str) -> PWittVector:
    gv, gw = ghost(v).entries, ghost(w).entries
    if kind == "sum":
        gz = [a + b for a, b in zip(gv, gw)]
    else:
        gz = [a * b for a, b in zip(gv, gw)]
    return from_ghost(GhostVector(v.p, tuple(gz)))


# ghost-lift laws ------------------------------------------------------------


class _LiftLaw:
    """The ghost-lift laws of length m over one ring, on packed elements of
    A_m: ring digit k = i*e + s sits at bit ``shifts[k]``, slot i*(2e-1) + s.
    ``ladders`` keeps the lifts x^(p^j), j < m, of each raw x met so far."""

    __slots__ = ("ring", "m", "e", "mod", "mask", "stride", "fold", "slot_shifts",
                 "stored", "shifts", "weights", "bias", "ladders")

    def __init__(self, ring: CoeffRing, m: int):
        p, e, nil, f = ring.p, ring.e, ring.nil, ring.modulus
        mod = p**m
        width = max(nil * e * (mod - 1) ** 2, 3 * mod * mod - 1).bit_length()
        stride = 2 * e - 1
        self.ring, self.m, self.e, self.mod, self.stride = ring, m, e, mod, stride
        self.mask = (1 << width) - 1
        self.fold = tuple((t, f[t]) for t in range(e) if f[t])
        self.slot_shifts = tuple(k * width for k in range(nil * stride))
        self.stored = tuple(i * stride + s for i in range(nil) for s in range(e))
        self.shifts = tuple(k * width for k in self.stored)
        self.weights = tuple(p**k for k in range(nil * e))
        self.bias = sum(mod * mod << shift for shift in self.shifts)
        self.ladders = {}

    def _mul(self, a: int, b: int) -> int:
        """a * b for stored a and b: one multiply, then each row's x^k with
        k >= e folded down by the monic f~ and every digit taken mod p^m."""
        c, mask, e, stride = a * b, self.mask, self.e, self.stride
        slots = [c >> shift & mask for shift in self.slot_shifts]
        for row in range(0, len(slots), stride):
            # x^k = -x^(k-e) (f_0 + .. + f_(e-1) x^(e-1)) for k >= e
            for k in range(row + stride - 1, row + e - 1, -1):
                top = slots[k]
                if top:
                    for t, ft in self.fold:
                        slots[k - e + t] -= top * ft
        mod, out = self.mod, 0
        for k, shift in zip(self.stored, self.shifts):
            out |= slots[k] % mod << shift
        return out

    def _reduce(self, a: int) -> int:
        mask, mod, out = self.mask, self.mod, 0
        for shift in self.shifts:
            out |= (a >> shift & mask) % mod << shift
        return out

    def _pow(self, x: int, k: int) -> int:
        out = None
        while k:
            if k & 1:
                out = x if out is None else self._mul(out, x)
            k >>= 1
            if k:
                x = self._mul(x, x)
        return out

    def _ladder(self, raw: int) -> list:
        ladder = self.ladders.get(raw)
        if ladder is None:
            digits = (c for row in self.ring._coords[raw] for c in row)
            ladder = [sum(c << shift for c, shift in zip(digits, self.shifts))]
            for _ in range(1, self.m):
                ladder.append(self._pow(ladder[-1], self.ring.p))
            self.ladders[raw] = ladder
        return ladder

    def _ghosts(self, entries: tuple) -> list:
        """Ghost components sum_{k<=i} p^k x_k^(p^(i-k)), digits not reduced."""
        m, p = self.m, self.ring.p
        ghosts = [0] * m
        for k, raw in enumerate(entries):
            if raw:
                ladder, scale = self._ladder(raw), p**k
                for i in range(k, m):
                    ghosts[i] += scale * ladder[i - k]
        return ghosts

    def op(self, v: tuple, w: tuple, kind: str) -> tuple:
        """The entries of v + w ("sum") or v * w ("prod")."""
        m, p, mod, mask = self.m, self.ring.p, self.mod, self.mask
        gv, gw = self._ghosts(v), self._ghosts(w)
        if kind == "sum":
            target = [a + b for a, b in zip(gv, gw)]
        else:
            target = [self._mul(self._reduce(a), self._reduce(b)) for a, b in zip(gv, gw)]
        # solved[i] accumulates sum_{k<i} p^k z_k^(p^(i-k)) as entries are found
        solved = [0] * m
        entries = []
        for i in range(m):
            scale = p**i
            diff = target[i] + self.bias - solved[i]
            raw = 0
            for shift, weight in zip(self.shifts, self.weights):
                c = (diff >> shift & mask) % mod
                if c % scale:
                    raise NonIntegral(f"{kind} law entry {i} is not divisible by {p}^{i}")
                raw += c // scale % p * weight
            entries.append(raw)
            if raw:
                ladder = self._ladder(raw)
                for j in range(i + 1, m):
                    solved[j] += scale * ladder[j - i]
        return tuple(entries)


@lru_cache(maxsize=32)
def _lift_law(ring: CoeffRing, m: int) -> _LiftLaw:
    """One packed law per (ring, length), its ladders kept between calls."""
    return _LiftLaw(ring, m)


def _op_lifted(v: PWittVector, w: PWittVector, kind: str) -> PWittVector:
    ring = v.ring
    if len(v) == 1:
        # a vector of length 1 is its ring element
        op = ring.radd if kind == "sum" else ring.rmul
        return PWittVector._make(v.p, (op(v.entries[0], w.entries[0]),), ring)
    return PWittVector._make(v.p, _lift_law(ring, len(v)).op(v.entries, w.entries, kind), ring)


def _binop(v: PWittVector, w: PWittVector, kind: str) -> PWittVector:
    if v.p != w.p or len(v) != len(w) or v.ring != w.ring:
        raise ShapeMismatch("vectors have different shape")
    if v.rational:
        return _op_rational(v, w, kind)
    return _op_lifted(v, w, kind)


def pwitt_add(v: PWittVector, w: PWittVector) -> PWittVector:
    return _binop(v, w, "sum")


def pwitt_mul(v: PWittVector, w: PWittVector) -> PWittVector:
    return _binop(v, w, "prod")


def integer_pwitt(c: int, p: int, m: int, ring: CoeffRing | None = None) -> PWittVector:
    """Image of the integer c, the vector with constant ghost (c, c, ..)."""
    sol = from_ghost(GhostVector(p, tuple(Fraction(c) for _ in range(m))))
    if ring is None:
        return sol
    entries = []
    for e in sol.entries:
        if e.denominator != 1:
            raise NonIntegral(f"integer vector entry {e} is fractional")
        entries.append(ring.rint(e.numerator))
    return PWittVector(p, entries, ring)


# Artin-Hasse machinery ------------------------------------------------------

# the rational recurrence is superlinear: at p = 2, 1,000 coefficients take
# about 0.7 s and 3,000 about 16 s
AH_COEFFICIENT_LIMIT = 1000


_AH_COEFFICIENTS = {}  # p -> the coefficients built so far, extended on demand


def artin_hasse_coefficients(p: int, count: int) -> tuple:
    """First ``count`` coefficients of AH(s) by n a_n = sum_{p^i <= n} a_{n - p^i},
    each checked to be p-integral.  Where a table is started or extended,
    SchemaError unless p is prime and count >= 0, and TooLarge past
    ``AH_COEFFICIENT_LIMIT``; a count the table holds is read off it."""
    out = _AH_COEFFICIENTS.get(p)
    if out is None or not 0 <= count <= len(out):
        if not _is_prime(p):
            raise SchemaError(f"Artin-Hasse coefficients need a prime p, got {p}")
        if count < 0:
            raise SchemaError(f"Artin-Hasse coefficient count {count} is negative")
        what = "{} Artin-Hasse coefficients for p = {}"
        check_budget(count, AH_COEFFICIENT_LIMIT, what, p)
        out = _AH_COEFFICIENTS.setdefault(p, [])
    for n in range(len(out), count):
        if n == 0:
            a = Fraction(1)
        else:
            acc, pk = 0, 1
            while pk <= n:
                acc += out[n - pk]
                pk *= p
            a = acc / n
        if a.denominator % p == 0:
            raise NonIntegral(f"Artin-Hasse coefficient {n} is {a}, not {p}-integral")
        out.append(a)
    return tuple(out[:count])


_AH_RESIDUES = {}  # p -> the coefficients reduced into F_p, extended on demand


def _ah_residues(p: int, count: int) -> list:
    """The table of at least ``count`` coefficients of AH(s) reduced mod p,
    as raws: an element of F_p has the same raw in every ring of
    characteristic p, so one table serves them all.  Where it must grow it
    is read off ``artin_hasse_coefficients``, with its checks, before the
    table is touched."""
    out = _AH_RESIDUES.get(p, ())
    if count > len(out):
        coeffs = artin_hasse_coefficients(p, count)
        out = _AH_RESIDUES.setdefault(p, [])
        out.extend(c.numerator * pow(c.denominator, -1, p) % p for c in coeffs[len(out):])
    return out


def artin_hasse_exp(x: RingElement, j: int, d: int) -> WittElement:
    """E(x, t^j) = AH(x t^j) as a one-variable element truncated at d."""
    if j < 1:
        raise SchemaError("exponent j must be >= 1")
    check_shape(1, d)
    keys = dict([(0, x.ring.one), *_ah_terms(x.ring, x.raw, j, d)])
    return WittElement(TruncatedSeries._make(x.ring, 1, d, keys, False))


def _ah_terms(ring: CoeffRing, x_raw: int, j: int, d: int) -> list:
    """The terms (j k, a_k x^k), 0 < j k < d, of E(x, t^j), up to the first
    x^k = 0.  The coefficients are counted before any is read: (d - 1) // j
    + 1 for a unit x, and for a nilpotent x those below its first zero
    power only, at most its nilpotency order."""
    kmax = (d - 1) // j
    if ring.is_unit_raw(x_raw):
        need = "E(x, t^{1}) at d = {2} needs {0} Artin-Hasse coefficients"
        check_budget(kmax + 1, AH_COEFFICIENT_LIMIT, need, j, d)
    mul, powers, xp = ring._mul, [], x_raw
    while xp and len(powers) < kmax:
        powers.append(xp)
        xp = mul[xp][x_raw]
    coeffs = _ah_residues(ring.p, len(powers) + 1)
    return [(j * k, c) for k, xp in enumerate(powers, 1) if (c := mul[coeffs[k]][xp])]


def ah_value(ring: CoeffRing, x_raw: int) -> int:
    """AH(x) for nilpotent x: the finite sum of a_k x^k."""
    if not ring.is_nilpotent_raw(x_raw):
        raise NotNilpotent("Artin-Hasse evaluation at 1 needs a nilpotent argument")
    # x^k = 0 from k = nil on, so the coefficients a_k with k < nil suffice
    coeffs = _ah_residues(ring.p, ring.nil)
    add, mul = ring._add, ring._mul
    acc, xp, k = ring.one, x_raw, 1
    while xp:
        acc = add[acc][mul[coeffs[k]][xp]]
        xp = mul[xp][x_raw]
        k += 1
    return acc


def component_lengths(p: int, d: int) -> dict:
    """For each j coprime to p below d, the number of visible entries:
    exponents j p^i < d."""
    return {j: _component_length(p, j, d) for j in range(1, d) if j % p}


def _component_length(p: int, j: int, d: int) -> int:
    m, k = 1, j * p
    while k < d:
        m += 1
        k *= p
    return m


def pi_epsilon(family: dict, ring: CoeffRing, d: int) -> WittElement:
    """The product of the factors E(v_{j,i}, t^(j p^i)) of the given
    family, in ascending j and then i, through ``series.multiply_keys``,
    which bounds its steps before any term is formed: a factor at t^k has
    at most (d - 1) // k terms past its constant 1 (``_ah_terms``).  The
    product is never flagged exact, so no product past d is formed."""
    check_shape(1, d)
    p = ring.p
    factors = []
    for j in sorted(family):
        if j % p == 0 or j < 1:
            raise ShapeMismatch(f"index {j} is not coprime to p = {p}")
        for i, entry in enumerate(family[j].entries):
            k = j * p**i
            if entry and k < d:
                factors.append((k, entry, (d - 1) // k))
    what = "a product of {3} Artin-Hasse factors at d = {2} may make {0} steps"
    keys, _ = multiply_keys(
        ring, 1, d, factors, lambda k, v, m: (_ah_terms(ring, v, k, d), False), what
    )
    return WittElement(TruncatedSeries._make(ring, 1, d, keys, False))


def pi_epsilon_inverse(a: WittElement) -> dict:
    """Solve for the family through ``series.peel_keys``: the coefficient c
    at the lowest key k = j p^i is the next unknown v_(j,i), and the
    factor E(c, t^k) pushes -a_m c^m to the key k m above each key, so
    dividing one dict in place by each factor exposes the one after
    (``_component_entries``); every other component is 0.  A family with
    more than ``witt.FAMILY_LIMIT`` components is refused before any is
    built.  The component pairing reads the entries alone."""
    if a.n != 1:
        raise ShapeMismatch("component solving works in one variable")
    d, p = a.d, a.ring.p
    what = "at d = {1} a p-typical family for p = {2} has {0} components"
    check_budget(d - 1 - (d - 1) // p, FAMILY_LIMIT, what, d, p)
    entries = _component_entries(a)
    family, zeros = {}, {}  # the zero components of one length share one vector
    for j, m in component_lengths(p, d).items():
        if j in entries:
            family[j] = PWittVector._make(p, tuple(entries[j]), a.ring)
        else:
            if m not in zeros:
                zeros[m] = PWittVector._make(p, (0,) * m, a.ring)
            family[j] = zeros[m]
    return family


def _component_entries(a: WittElement) -> dict:
    """{j: [v_(j,0), .., v_(j,m-1)]} for the components of ``pi_epsilon_inverse``
    that are not 0, each with its m visible entries, j p^i < d, in the
    order the peel finds them, for ``a`` in one variable; no vector is
    formed."""
    ring, d = a.ring, a.d
    p, neg = ring.p, ring._neg
    rem = {k: c for k, c in a.series.keys.items() if k}
    meter = "the Artin-Hasse peel at n = {1}, d = {2} reaches {0} steps"
    peeled = peel_keys(
        ring, 1, d, rem, lambda k, c: [(key, neg[v]) for key, v in _ah_terms(ring, c, k, d)], meter
    )
    entries = {}
    for j, c in peeled.items():
        i = 0
        while j % p == 0:
            j //= p
            i += 1
        row = entries.get(j)
        if row is None:
            row = entries[j] = [0] * _component_length(p, j, d)
        row[i] = c
    return entries


def pwitt_pair(v: PWittVector, w: PWittVector) -> RingElement:
    """E(v*w, 1) for the product v*w in W_m, m = len(v): the product of
    AH(u_n) over its entries u_n.  It needs nilpotent entries on the left,
    so each sum is finite.

    The truncation drops the part of the product in V^m W, so this can
    differ from the product in W(R) that the component route takes by
    bilinearity (``duality._slot_value``): over F_2[eps]/(eps^3),
    v = (0, eps) and w = (0, 1) pair to 1 here, while in W(R)
    V[eps] V[1] = V^2[eps^2] and the value is AH(eps^2) = 1 + eps^2, as it
    is here at length 3.  The two agree on the route's families."""
    if v.rational or w.rational:
        raise ShapeMismatch("pairing needs ring-mode vectors")
    if not v.is_nilpotent():
        raise NotNilpotent("left pairing argument must have nilpotent entries")
    u = pwitt_mul(v, w)
    ring = v.ring
    acc = ring.one
    for entry in u.entries:
        acc = ring.rmul(acc, ah_value(ring, entry))
    return ring.from_raw(acc)

"""Sparse truncated power series in n variables over a CoeffRing.

A series maps exponents nu = (nu_1, .., nu_n) with |nu| < d, the
truncation order, to nonzero coefficients.  This module owns the one
exponent encoding the library computes with, the integer key of
``pack_exponent``: key order is the graded order (total degree, then
tuple comparison), keys add when monomials multiply, an exponent is below
d exactly when its key is below d^n, the constant term is key 0, and in
one variable the key is the degree.  A series and a Witt coordinate
family (witt.py) are both a ``KeyedTerms``: ``keys``, a dict from key to
raw coefficient.  Exponent tuples appear only at its public edge: one
checked constructor, one JSON row writer and reader, and one tuple-keyed
view built on first read (``terms``, also named ``coords``).

The ``exact`` flag marks a series that represents a genuine polynomial:
no nonzero term was ever discarded while producing it.  Multiplication
keeps the flag only when both inputs carry it and the product lost
nothing to the truncation bound.

Every product and quotient in the library runs through two in-place
kernels on key dicts.  ``add_products`` adds the products of two lists of
(key, coefficient) pairs into a dict: ``mul`` and ``add_series`` call it
once, and the product driver ``multiply_keys``, which bounds the whole
product first, once per factor of witt.py's binomial runs or
ptypical.py's Artin-Hasse factors.  ``divide_keys`` divides a dict in
place by a divisor with unit constant term, as a forward recurrence over
the keys in graded order whose cost is the quotient's size times the
divisor's support.  It walks a binomial along chains of keys and any
other divisor from a heap, so no key the remainder does not hold is
visited.  ``inv`` is the kernel with numerator 1 and the series quotient
``a / b`` the kernel itself.  Both peels run on one driver,
``peel_keys``, which calls the two walks directly: ``witt_coordinates``
divides one dict by each binomial (1 - r t^nu), and the p-typical factor
solver divides one dict by each Artin-Hasse factor.  A quotient is exact
when both inputs are and no nonzero push fell at or past degree d: then
q * b = a holds with nothing truncated.

Coefficients are the raw integer encoding of ring.py throughout;
``CoeffRing.from_raw`` reads one as a RingElement.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb, gcd

from .errors import WORK_LIMIT, NonUnitConstantTerm, NotExact, SchemaError, ShapeMismatch
from .errors import check_budget
from .ring import CoeffRing, json_int, json_list, json_object

# an exponent in n variables below d has n entries and a key below d^n, an
# n * log2(d)-bit integer: n * d.bit_length() bounds both
EXPONENT_BITS_LIMIT = 1 << 16
# keys of one quotient or product: a division's output grows with its
# budget from a few-term input, a product's with the square of its inputs
KEYS_LIMIT = 10**6


def check_shape(n: int, d: int) -> None:
    """SchemaError unless n, d >= 1; TooLarge, before anything is built, when
    exponents at (n, d) are past ``EXPONENT_BITS_LIMIT``."""
    if n < 1 or d < 1:
        raise SchemaError("need n >= 1 and d >= 1")
    what = "at n = {1}, d = {2} an exponent has {1} entries and a key below d^n of up to {0} bits"
    check_budget(n * d.bit_length(), EXPONENT_BITS_LIMIT, what, n, d)


def exponent_count(n: int, d: int) -> int:
    """The number comb(n + d - 1, n) of exponents in n variables with |nu| < d."""
    return comb(n + d - 1, n)


def check_division(n: int, d: int, generators: int, den_terms: int, num_terms: int = 1) -> None:
    """TooLarge, before any key is built, when a division at (n, d) may make
    more than ``WORK_LIMIT`` steps or hold more than ``KEYS_LIMIT``
    keys.  A quotient key lies below d, and it is one of ``num_terms``
    numerator keys plus a sum of m = ``generators`` non-constant keys, so
    there are at most K = min(exponent_count(n, d), num_terms *
    exponent_count(m, d)) of them.  Making the divisor monic, pushing each
    read key to the other divisor terms and scaling the quotient once make
    at most (K + 1) * ``den_terms`` table products.  (n, d) is the shape
    of a series a checked constructor built, so it is not checked again."""
    # exponent_count grows with its first argument, so past n generators
    # the first term is the least, and no larger binomial is formed
    keys = min(exponent_count(n, d), num_terms * exponent_count(min(generators, n), d))
    what = "at n = {1}, d = {2} a division by {3} divisor terms may make {0} steps"
    check_budget((keys + 1) * den_terms, WORK_LIMIT, what, n, d, den_terms)
    what = "at n = {1}, d = {2} a quotient may hold {0} keys"
    check_budget(keys, KEYS_LIMIT, what, n, d)


def is_primitive(exp: tuple) -> bool:
    return content(exp) == 1


def content(exp: tuple) -> int:
    g = 0
    for v in exp:
        g = gcd(g, v)
    return g


def pack_exponent(exp: tuple, d: int) -> int:
    """The key |nu| * d^(n-1) + sum_(i<n-1) nu_i * d^(n-2-i) of an exponent.

    The last entry is fixed by |nu| and the others, so it takes no digit.
    Every digit is below d while |nu| < d, so integer order is the graded
    order, key // d^(n-1) is the degree, and key(a) + key(b) is key(a + b)
    when |a + b| < d; any exponent of degree d or more has a key of at
    least d^n."""
    key = sum(exp)
    for v in exp[:-1]:
        key = key * d + v
    return key


def unpack_exponent(key: int, n: int, d: int) -> tuple:
    """The exponent tuple in n variables that ``pack_exponent`` maps to key."""
    digits = [0] * n
    for i in range(n - 2, -1, -1):
        key, digits[i] = divmod(key, d)
    digits[-1] = key - sum(digits)  # key is now |nu|
    return tuple(digits)


def add_products(ring: CoeffRing, limit: int, out: dict, xs, ys, lost: bool = False) -> bool:
    """Add each product x * y of the (key, coefficient) pairs of ``xs`` and
    ``ys`` whose key is below ``limit`` into ``out``, in place, dropping
    the keys that cancel.  Returns whether ``lost`` was set or a nonzero
    product fell at or past ``limit``; once it is set, no product past
    ``limit`` is formed.  ``xs`` and ``ys`` must not be views of ``out``."""
    add, get = ring._add, out.get
    for ea, ca in xs:
        row = ring._mul[ca]  # ca times cb is row[cb]
        for eb, cb in ys:
            e = ea + eb
            if e >= limit:
                # only a nonzero cross term counts as lost
                if not lost and row[cb]:
                    lost = True
                continue
            prod = row[cb]
            if not prod:
                continue
            cur = get(e)
            if cur is None:
                out[e] = prod
            else:
                s = add[cur][prod]
                if s:
                    out[e] = s
                else:
                    del out[e]
    return lost


def divide_keys(ring: CoeffRing, n: int, d: int, rem: dict, den: dict, track: bool = False) -> bool:
    """Divide ``rem`` by ``den`` in place below degree d.

    Both map keys at (n, d) to raw coefficients and ``den[0]`` is a unit
    b_0.  The division is by the monic 1 + b_0^-1 (den - b_0), and the
    quotient is scaled by b_0^-1 once, at the end.  Once every lower key
    has been read, a key e holds its quotient term c, and c times
    -b_0^-1 b_j goes to the higher key e + j.  A divisor with one
    non-constant key is walked along chains (``_divide_one_push``), any
    other from a heap (``_divide_heap``).  Without ``track``, a key that
    can push nothing below d is not read; with it, returns whether a
    nonzero push fell at or past degree d."""
    rmul, rneg, one = ring.rmul, ring.rneg, ring.one
    u = one if den[0] == one else ring.rinv(den[0])
    pushes = sorted((j, rneg(c) if u == one else rmul(u, rneg(c))) for j, c in den.items() if j)
    dropped = False
    if pushes and rem:
        limit = d**n
        stop = limit if track else limit - pushes[0][0]
        walk = _divide_one_push if len(pushes) == 1 else _divide_heap
        dropped = walk(ring, limit, stop, rem, pushes, track)
    if u != one:
        for e, c in rem.items():
            rem[e] = rmul(u, c)  # a unit times a nonzero term is nonzero
    return dropped


def _divide_heap(
    ring: CoeffRing, limit: int, stop: int, rem: dict, pushes: list, track: bool
) -> bool:
    """``divide_keys`` by a monic divisor with several non-constant keys.

    A heap holds the keys below ``stop`` that the remainder holds, and a
    key a push creates joins it.  Every push lands above the key it comes
    from, so a key popped in ascending order has its final remainder.  A
    key whose remainder cancels keeps the value 0 until the walk ends, so a
    later push to it finds it held and it stays in the heap once: each key
    is read once, and a 0 is skipped.  ``pushes`` are in ascending key
    order, so without ``track`` a key's pushes end at the first past d."""
    mul, add, get = ring._mul, ring._add, rem.get
    heap = [e for e in rem if e < stop]
    heapify(heap)
    dropped = False
    while heap:
        e = heappop(heap)
        c = rem[e]
        if not c:
            continue
        row = mul[c]
        for j, b in pushes:
            t = e + j
            if t >= limit:
                if not track:
                    break
                if not dropped and row[b]:
                    dropped = True
                continue
            p = row[b]
            if not p:
                continue
            cur = get(t)
            if cur is None:
                rem[t] = p
                if t < stop:
                    heappush(heap, t)
            else:
                rem[t] = add[cur][p]
    for e in [e for e, c in rem.items() if not c]:
        del rem[e]
    return dropped


def _divide_one_push(
    ring: CoeffRing, limit: int, stop: int, rem: dict, pushes: list, track: bool
) -> bool:
    """``divide_keys`` by a monic divisor 1 - b t^K, whose only push from a
    key e goes to e + K, so every key takes at most one push, from key - K.

    The keys are walked in ascending order as chains e, e + K, ..: a key's
    remainder is final once the chain before it has passed, so each link
    reads its quotient term and pushes it to the next.  A chain ends at a
    push that vanishes, at a key whose remainder cancels, or past the last
    key that can push below d; a key an earlier chain walked on is
    skipped, and no degree that holds no key is walked."""
    ((k, b),) = pushes
    row, add = ring._mul[b], ring._add  # c times b is row[c]
    get, reached = rem.get, set()  # reached: the keys an earlier chain walked on to
    walked = reached.add
    dropped = False
    for e in sorted(rem):
        if e >= stop:
            break
        if e in reached:
            continue
        c = rem[e]
        e += k
        while e < limit:
            p = row[c]
            if not p:
                break
            cur = get(e)
            if cur is None:
                rem[e] = c = p
            else:
                walked(e)
                c = add[cur][p]
                if not c:
                    del rem[e]
                    break
                rem[e] = c
            e += k
        else:
            if track and not dropped and row[c]:
                dropped = True
    return dropped


def peel_keys(ring: CoeffRing, n: int, d: int, rem: dict, pushes_of, what: str) -> dict:
    """Peel 1 + ``rem``, its non-constant keys at (n, d), into monic
    factors F = 1 + c t^e + .., lowest key e first, in place; returns
    {e: c} in ascending key order.  ``pushes_of(e, c)`` gives F's nonzero
    pushes (m e, -f_m), m >= 1, ascending and below d^n, the first (e, -c):
    one for a binomial.  As (1 + Q) / F = 1 + (Q - (F - 1)) / F, a step pops e,
    adds the constant term's other pushes and divides the rest by F along
    chains or from a heap; every key left is above e and moves up.  Once
    2 deg(e) >= d, each key left is its own factor 1 + c t^e.

    Before each step the running total is checked against ``WORK_LIMIT``,
    ``what`` naming it at {0} and n, d at {1}, {2}: the scan, and P pushes
    from each key read, one per landing key of degree 2 deg to d - 1 and
    push, and at most (d - 1 - deg) // deg reads along each key's chain."""
    limit, dn, box = d**n, d ** (n - 1), exponent_count(n, d)
    add, peeled, work = ring._add, {}, 0
    while rem:
        e = min(rem)
        deg = e // dn
        if 2 * deg >= d:  # a shift by any key left lands past d
            peeled.update((k, rem[k]) for k in sorted(rem))
            break
        c = peeled[e] = rem.pop(e)
        pushes = pushes_of(e, c)
        if len(pushes) == 1:
            walk = _divide_one_push
        else:
            walk = _divide_heap
            for j, b in pushes[1:]:
                cur = rem.get(j)
                rem[j] = b if cur is None else add[cur][b]
        keys, reach = len(rem), box - exponent_count(n, 2 * deg)
        work += keys + len(pushes) * min(reach, keys * ((d - 1 - deg) // deg))
        check_budget(work, WORK_LIMIT, what, n, d)
        walk(ring, limit, limit - e, rem, pushes, False)
    return peeled


def multiply_keys(ring: CoeffRing, n: int, d: int, factors, terms_of, what: str) -> tuple:
    """The product of monic factors F = 1 + v t^key + .., given in order
    as (key, v, m), as a dict from keys at (n, d) to raw coefficients, and
    whether it is exact.  ``terms_of(key, v, m)`` gives F's at most m terms
    below d^n past its constant 1, as (key, coefficient) pairs, and whether
    every term past d^n is 0.  F is 1 when v is 0 and is taken as
    1 + v t^key when m = 1; one past the window only clears ``exact``.
    Each F is multiplied in place by ``add_products``, which forms no
    product past d^n once ``exact`` is cleared.

    Before any term is formed the product is bounded: F updates every key
    held, at most exponent_count(n, d), once per term.  Past ``WORK_LIMIT``
    steps, or with more than ``KEYS_LIMIT`` keys in the window, the closer
    bounds of ``_product_bound`` are checked.  ``what`` names the steps at
    {0}, and n, d and the number of factors at {1}, {2}, {3}."""
    factors = list(factors)
    limit, window = d**n, exponent_count(n, d)
    work, held = sum(m for _, _, m in factors) * window, window
    if work > WORK_LIMIT or held > KEYS_LIMIT:
        work, held = _product_bound(n, d, factors)
    check_budget(work, WORK_LIMIT, what, n, d, len(factors))
    if held > KEYS_LIMIT:
        what = "at n = {1}, d = {2} a product of {3} factors may hold {0} keys"
        check_budget(held, KEYS_LIMIT, what, n, d, len(factors))
    acc, lost = {0: ring.one}, False
    for key, v, m in factors:
        if not v:
            continue
        if key >= limit:
            lost = True
            continue
        if m == 1:
            terms = ((key, v),)
        else:
            terms, inside = terms_of(key, v, m)
            lost = lost or not inside
        lost = add_products(ring, limit, acc, terms, list(acc.items()), lost)
    return acc, not lost


def _product_bound(n: int, d: int, factors: list) -> tuple:
    """Upper bounds on the key updates of ``multiply_keys`` and on the keys
    it holds: F updates every key held once for each of its T = min(m,
    (d^n - 1) // key) terms, and after it at most T + 1 times as many keys
    are held, at most exponent_count(n, d), and at most those whose every
    entry lies within its variable's reach, the sum of T times F's entry.
    It unpacks every key, so it costs about as much as a sparse product."""
    limit, window = d**n, exponent_count(n, d)
    reach = [0] * n
    work, held = 0, 1
    for key, v, m in factors:
        if v and key < limit:
            terms = min(m, (limit - 1) // key)
            work += held * terms
            if held < window:
                box = 1
                for i, e in enumerate(unpack_exponent(key, n, d)):
                    reach[i] = min(reach[i] + terms * e, d - 1)
                    box *= reach[i] + 1
                held = min(held * (terms + 1), box, window)
    return work, held


# bounded like the ring tables: a box at n = 6, d = 20 holds 230,230 tuples.
# The whole-group enumerations in cft, enumerate_witt_elements, the random
# elements of witt and duality, and the full component family (through
# primitive_exponents_below, in more than one variable) build boxes; the
# coordinate conversions do not.
@lru_cache(maxsize=32)
def exponents_below(n: int, d: int) -> tuple:
    """All exponent tuples with 0 <= |nu| < d, in graded order."""
    check_shape(n, d)

    def compositions(m, total):
        if m == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(m - 1, total - first):
                yield (first,) + rest

    out = []
    for deg in range(d):
        out.extend(sorted(compositions(n, deg)))
    return tuple(out)


@lru_cache(maxsize=32)
def primitive_exponents_below(n: int, d: int) -> tuple:
    if n == 1:  # in one variable only (1,) is primitive: no box is built
        check_shape(n, d)
        return ((1,),) if d > 1 else ()
    return tuple(e for e in exponents_below(n, d) if sum(e) > 0 and is_primitive(e))


class KeyedTerms:
    """Nonzero raw coefficients at the exponents nu in n variables with
    ``LOW`` <= |nu| < d; immutable once constructed.  ``keys`` maps each
    packed exponent key to its coefficient.  A truncated series is one with
    ``LOW`` = 0, a Witt coordinate family (witt.py) one with ``LOW`` = 1.
    Two are equal when their type, ring, n, d and keys are, and the hash,
    over the same, is kept after its first use.

    At the public edge exponent tuples appear only here: in the checked
    constructor, the JSON rows ``{"exp": nu, COEF: coefficient rows}`` in
    graded order, and the tuple-keyed view, ``terms`` or ``coords``, built
    on first read."""

    __slots__ = ("ring", "n", "d", "keys", "_view", "_hash")
    LOW = 0  # the least |nu| admitted
    COEF = "c"  # the coefficient's key in a JSON row

    def __init__(self, ring: CoeffRing, n: int, d: int, terms: dict):
        """From a dict of exponent tuples to raw coefficients.  Every
        exponent is checked, zero coefficient or not: ShapeMismatch unless
        it has n entries, none negative, and ``LOW`` <= |nu| < d.
        SchemaError for a raw that is not an int in range(ring.size)."""
        check_shape(n, d)
        low, size, keys = self.LOW, ring.size, {}
        for exp, raw in terms.items():
            if len(exp) != n or min(exp) < 0 or not low <= sum(exp) < d:
                window = f"{'0 < ' if low else ''}|nu| < {d}"
                raise ShapeMismatch(
                    f"exponent {list(exp)} is not in {n} variables with entries >= 0 and {window}"
                )
            if type(raw) is not int or not 0 <= raw < size:
                raise SchemaError(f"raw coefficient {raw!r} at {list(exp)} is not in range({size})")
            if raw:
                keys[pack_exponent(exp, d)] = raw
        self.ring, self.n, self.d, self.keys, self._view, self._hash = ring, n, d, keys, None, None

    @classmethod
    def _make(cls, ring: CoeffRing, n: int, d: int, keys: dict) -> "KeyedTerms":
        """From nonzero raw coefficients at keys of (n, d) in the window:
        no re-check."""
        self = object.__new__(cls)
        self.ring, self.n, self.d, self.keys, self._view, self._hash = ring, n, d, keys, None, None
        return self

    @property
    def terms(self) -> dict:
        """The coefficients keyed by exponent tuple, built from ``keys`` on
        first read, in the same order."""
        if self._view is None:
            n, d = self.n, self.d
            self._view = {unpack_exponent(k, n, d): c for k, c in self.keys.items()}
        return self._view

    coords = terms

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and (self.ring, self.n, self.d) == (other.ring, other.n, other.d)
            and self.keys == other.keys
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.n, self.d, tuple(sorted(self.keys.items()))))
        return self._hash

    def _keys_below(self, d_new: int) -> dict:
        """The keys of the terms of degree below d_new, keyed for truncation
        d_new, in the same order.  In one variable a key is its exponent
        whatever d, so there they are kept as they are."""
        n, d = self.n, self.d
        if n == 1:
            return {k: c for k, c in self.keys.items() if k < d_new}
        pairs = ((unpack_exponent(k, n, d), c) for k, c in self.keys.items())
        return {pack_exponent(e, d_new): c for e, c in pairs if sum(e) < d_new}

    def _json_rows(self) -> list:
        n, d, coef, rows, keys = self.n, self.d, self.COEF, self.ring.raw_to_coords, self.keys
        return [{"exp": list(unpack_exponent(k, n, d)), coef: rows(keys[k])} for k in sorted(keys)]

    @classmethod
    def _read_json_rows(cls, ring: CoeffRing, rows, what: str) -> dict:
        """The exponent tuples and raw coefficients of a JSON list of rows,
        each a ``what``; SchemaError for a malformed row, ShapeMismatch for
        an exponent listed twice.  The constructor checks the exponents."""
        coef, terms = cls.COEF, {}
        for row in json_list(rows, f"{what}s"):
            json_object(row, what, ("exp", coef))
            exp = tuple(json_int(v, "exponent entry") for v in json_list(row["exp"], "exponent"))
            if exp in terms:
                raise ShapeMismatch(f"exponent {list(exp)} listed twice")
            terms[exp] = ring.coords_to_raw(row[coef])
        return terms


class TruncatedSeries(KeyedTerms):
    """Truncated series: a ``KeyedTerms`` from |nu| = 0, with the ``exact``
    flag and the arithmetic."""

    __slots__ = ("exact",)

    def __init__(self, ring: CoeffRing, n: int, d: int, terms: dict, exact: bool = False):
        """A series from a dict of exponent tuples to raw coefficients."""
        super().__init__(ring, n, d, terms)
        self.exact = exact

    @classmethod
    def _make(cls, ring: CoeffRing, n: int, d: int, keys: dict, exact: bool) -> "TruncatedSeries":
        """A series from keys valid for (n, d) and free of zeros: no re-check."""
        self = object.__new__(cls)
        self.ring, self.n, self.d, self.keys, self._view, self._hash = ring, n, d, keys, None, None
        self.exact = exact
        return self

    # construction helpers ------------------------------------------------

    @classmethod
    def one(cls, ring: CoeffRing, n: int, d: int, exact: bool = False) -> "TruncatedSeries":
        check_shape(n, d)
        return cls._make(ring, n, d, {0: ring.one}, exact)

    # basic queries --------------------------------------------------------

    @property
    def constant_raw(self) -> int:
        return self.keys.get(0, 0)

    def support_degree(self) -> int:
        return max(self.keys, default=0) // self.d ** (self.n - 1)

    def __repr__(self):
        if not self.keys:
            return "<series 0>"
        bits = []
        for key in sorted(self.keys):
            c = self.ring.pretty(self.keys[key])
            exp = unpack_exponent(key, self.n, self.d)
            mono = "*".join(
                f"t{i}" if v == 1 else f"t{i}^{v}" for i, v in enumerate(exp) if v
            )
            if not mono:
                bits.append(c)
            elif c == "1":
                bits.append(mono)
            else:
                bits.append(f"({c})*{mono}")
        return f"<series {' + '.join(bits)} mod deg {self.d}>"

    # arithmetic -----------------------------------------------------------

    def _check_shape(self, other: "TruncatedSeries"):
        if self.ring != other.ring or self.n != other.n or self.d != other.d:
            raise ShapeMismatch(
                f"series shapes differ: (n={self.n}, d={self.d}) vs (n={other.n}, d={other.d})"
            )

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The truncated product; TooLarge, before any pair is formed, past
        ``WORK_LIMIT`` steps, one per pair of terms, or ``KEYS_LIMIT`` keys."""
        self._check_shape(other)
        n, d = self.n, self.d
        na, nb = len(self.keys), len(other.keys)
        what = "a product of {1} by {2} terms may make {0} steps"
        check_budget(na * nb, WORK_LIMIT, what, na, nb)
        what = "at n = {1}, d = {2} a product of {3} by {4} terms may hold {0} keys"
        check_budget(min(na * nb, exponent_count(n, d)), KEYS_LIMIT, what, n, d, na, nb)
        out = {}
        lost = add_products(self.ring, d**n, out, self.keys.items(), other.keys.items())
        exact = self.exact and other.exact and not lost
        return TruncatedSeries._make(self.ring, n, d, out, exact)

    def add_series(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_shape(other)
        out = dict(self.keys)
        add_products(self.ring, self.d**self.n, out, ((0, self.ring.one),), other.keys.items())
        return TruncatedSeries._make(self.ring, self.n, self.d, out, self.exact and other.exact)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The quotient by a series with unit constant term, by ``divide_keys``;
        exact when both are and no nonzero push fell at or past degree d,
        so that the quotient times ``other`` is exactly ``self``."""
        self._check_shape(other)
        ring, n, d = self.ring, self.n, self.d
        if not ring.is_unit_raw(other.constant_raw):
            raise NonUnitConstantTerm("series division needs a unit constant term")
        check_division(n, d, len(other.keys) - 1, len(other.keys), len(self.keys))
        keys = dict(self.keys)
        track = self.exact and other.exact
        dropped = divide_keys(ring, n, d, keys, other.keys, track)
        return TruncatedSeries._make(ring, n, d, keys, track and not dropped)

    def inv(self) -> "TruncatedSeries":
        return TruncatedSeries.one(self.ring, self.n, self.d, exact=True) / self

    def truncate(self, d_new: int) -> "TruncatedSeries":
        if d_new > self.d:
            raise ShapeMismatch("cannot extend a truncated series")
        return self if d_new == self.d else self._rekeyed(d_new)

    def extend(self, d_new: int) -> "TruncatedSeries":
        """Reinterpret an exact polynomial at a larger truncation order."""
        if not self.exact:
            raise NotExact("only exact series can be carried to a larger order")
        return self.truncate(d_new) if d_new <= self.d else self._rekeyed(d_new)

    def _rekeyed(self, d_new: int) -> "TruncatedSeries":
        """The terms below degree d_new, keyed for truncation d_new; exact
        when this series is and no term was dropped."""
        check_shape(self.n, d_new)
        out = self._keys_below(d_new)
        exact = self.exact and len(out) == len(self.keys)
        return TruncatedSeries._make(self.ring, self.n, d_new, out, exact)

    def map_coefficients(self, fn) -> "TruncatedSeries":
        out = {e: v for e, c in self.keys.items() if (v := fn(c))}
        return TruncatedSeries._make(self.ring, self.n, self.d, out, self.exact)

    # serialization --------------------------------------------------------

    def to_json_dict(self):
        return {"n": self.n, "d": self.d, "exact": self.exact, "terms": self._json_rows()}

    @classmethod
    def from_json_dict(cls, ring: CoeffRing, obj) -> "TruncatedSeries":
        json_object(obj, "series", ("n", "d", "terms"), ("exact",))
        terms = cls._read_json_rows(ring, obj["terms"], "series term")
        exact = obj.get("exact", False)
        if type(exact) is not bool:
            raise SchemaError(f"series exact must be a JSON boolean, got {exact!r}")
        return cls(ring, json_int(obj["n"], "series n"), json_int(obj["d"], "series d"), terms, exact)

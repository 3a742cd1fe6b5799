"""The dense group law on raw coefficient tuples and the kernels compiled
from it, on which the whole-group enumerations of cft.py run: the proof
of the group axioms from the ring tables (``_DenseLaw.prove``), then the
brute-force oracle's power ladder or the Lang census.  A law either
proves its tables or refuses; there is no second path over an opaque
op, whose loops are the test oracle tests/cft_oracle.py.  The code
builders format with % and concatenation, as CPython compiles nested
f-strings slowly.  See ``_DenseLaw``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

from .errors import NotAbelian, NotClosed
from .ring import CoeffRing
from .series import TruncatedSeries, exponents_below, pack_exponent


class _DenseLaw:
    """The truncated group over ``ring`` on raw coefficient tuples.

    The element 1 + sum_k x_k t^exps[k] is the tuple x, with exps the
    nonzero exponents below d in graded order (``keys`` holds their series
    keys).  The group law is the series product: z_k is the sum of the
    products x_i y_j over the pairs (i, j) with exps[i] + exps[j] =
    exps[k], then x_k, then y_k.  Both i and j precede k, so the inverse
    solves y_k = -(sum x_i y_j + x_k) in index order, and coordinate k of
    a power x^ell or of the Lang value F(x) x^-1 reads x_0..x_k only.

    ``prove`` checks the ring tables and the pairs once per law, and the
    whole-box kernels run only on a proved law.  Every kernel is code
    compiled from the pairs alone, one nested table lookup per term, on
    first use and once per law: ``op`` is straight-line, the ladder
    kernel ``powers`` loops over a level, and the whole-box passes
    ``box_powers`` and ``lang_pass`` are loop nests with x_0 outermost
    that compute coordinate k of each value once per prefix x_0..x_k, so
    they build no element tuple and call nothing per element.  The loop
    forms are in tests/cft_oracle.py.
    """

    def __init__(self, ring: CoeffRing, n: int, d: int):
        self.ring, self.n, self.d = ring, n, d
        self.exps = [e for e in exponents_below(n, d) if sum(e) > 0]
        self.keys = [pack_exponent(e, d) for e in self.exps]
        # a key sum is below d^n, and so in the index, exactly when the
        # exponent sum lies below d, and it is then the sum's key
        index = {key: k for k, key in enumerate(self.keys)}
        self.pairs = [[] for _ in self.exps]
        for i, ka in enumerate(self.keys):
            for j, kb in enumerate(self.keys):
                k = index.get(ka + kb)
                if k is not None:
                    self.pairs[k].append((i, j))
        self._proved = False
        self._kernels = {}

    def prove(self) -> None:
        """Prove from the tables that the law is a commutative group on the
        box range(size)^rank with the zero tuple its identity, or raise.
        A proof runs once per law; a refusal runs again on the next call.
        In order:

        - NotClosed when the add table leaves range(size).  Each
          coordinate of a product is an entry of it, so otherwise no
          product leaves the box.
        - NotAbelian when the negation table is not the additive inverse,
          add[a][neg[a]] != 0 for some a, as the Lang pass forms x^-1
          from it.
        - NotClosed when the ring is not a CoeffRing whose zero is the
          identity, add[0][a] == a and mul[0][a] == 0 for every a.
        - NotAbelian when the pairs are not symmetric modulo p.  Over a
          CoeffRing, a commutative ring, op(x, y) - op(y, x) at k is the
          sum of (c_ij - c_ji) x_i y_j, with c_ij the count of (i, j) in
          pairs[k].  It vanishes for all x and y exactly when every c_ij =
          c_ji modulo p, as x = e_i and y = e_j show, and the refusal
          names the first coordinate k and pair (i, j) where it does not.
        """
        if self._proved:
            return
        ring, size = self.ring, self.ring.size
        add, neg = ring._add, ring._neg
        if min(map(min, add)) < 0 or max(map(max, add)) >= size:
            raise NotClosed("the add table leaves the ring's indices")
        if any(neg[a] not in range(size) or add[a][neg[a]] for a in range(size)):
            raise NotAbelian("the negation table is not the additive inverse")
        if not isinstance(ring, CoeffRing) or tuple(add[0]) != tuple(range(size)) or any(ring._mul[0]):
            raise NotClosed("the ring is not a CoeffRing whose zero is the identity")
        for k, ks in enumerate(self.pairs):
            count = Counter(ks)
            for (i, j), c in count.items():
                if (c - count[j, i]) % ring.p:
                    raise NotAbelian(
                        f"coordinate {k} of the law takes x_{i} y_{j} {c} times and"
                        f" x_{j} y_{i} {count[j, i]} times, apart modulo {ring.p}"
                    )
        self._proved = True

    def _kernel(self, key, build):
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = build(self.pairs, self.ring, *key[1:])
        return kernel

    @property
    def op(self):
        """The group law op(x, y), compiled on first use."""
        return self._kernel(("law",), _compile_law)

    def box_powers(self, ell: int) -> set:
        """The set of x^ell over the whole box, on a proved law."""
        return self._kernel(("powers", ell, True), _compile_powers)()

    def powers(self, level, ell: int) -> set:
        """The set of x^ell over x in level, on a proved law."""
        return self._kernel(("powers", ell, False), _compile_powers)(level)

    def lang_pass(self, frob: list) -> tuple:
        """The Lang values y = F(x) x^-1 over the box, for F the table
        ``frob``: (kernel, rational), with kernel the count of the x with
        y = 1 and rational whether each of them is fixed by F."""
        return self._kernel(("lang",), _compile_lang_pass)(frob)

    def to_witt(self, x: tuple):
        """The WittElement of the tuple x."""
        from .witt import WittElement

        keys = {0: self.ring.one}
        keys.update((k, c) for k, c in zip(self.keys, x) if c)
        return WittElement(TruncatedSeries._make(self.ring, self.n, self.d, keys, False))


def _fold(terms: list) -> str:
    """The sum of the expressions ``terms``, left to right, as nested
    lookups in the add table A."""
    out = terms[0]
    for t in terms[1:]:
        out = "A[%s][%s]" % (out, t)
    return out


def _products(ks, rows: str, right: str) -> list:
    """The pair products rows_i[right_j] over the pairs (i, j) of ks."""
    return ["%s%d[%s%d]" % (rows, i, right, j) for i, j in ks]


def _coordinate(k: int, ks, left: str, right: str, rows: str) -> str:
    """Coordinate k of the product left * right, where rows_i is the mul
    table row of left_i: its pair products, then left_k, then right_k."""
    return _fold(_products(ks, rows, right) + [left + str(k), right + str(k)])


def _names(c: str, count: int) -> str:
    return "".join("%s%d, " % (c, k) for k in range(count))


def _compile(ring: CoeffRing, signature: str, body: list):
    """Define ``signature`` over the ring tables: A is the add table (a
    local reads faster than a global), M the mul table, N the negation
    table and R the range of element indices."""
    lines = ["def %s:" % signature, "    A, M, N = add, mul, neg", *body]
    namespace = {
        "add": ring._add, "mul": ring._mul, "neg": ring._neg, "R": range(ring.size), "product": product
    }
    exec("\n".join(lines), namespace)
    return namespace[signature.split("(")[0]]


def _compile_law(pairs: list, ring: CoeffRing):
    """Straight-line ``op(x, y)`` for the pairs of a _DenseLaw: each
    coordinate z_k by ``_coordinate``, with m_i the mul table row of x_i."""
    rank = len(pairs)
    body = ["    (%s) = x" % _names("x", rank), "    (%s) = y" % _names("y", rank)]
    body += ["    m%d = M[x%d]" % (i, i) for i in sorted(_leaders(pairs))]
    body += ["    z%d = %s" % (k, _coordinate(k, ks, "x", "y", "m")) for k, ks in enumerate(pairs)]
    body.append("    return (%s)" % _names("z", rank))
    return _compile(ring, "op(x, y)", body)


# CPython refuses more than 20 statically nested blocks in one function;
# a nest loops over the first NEST_DEPTH coordinates one by one and over
# the product tuples of the rest in one more loop
NEST_DEPTH = 16


def _nest(rank: int, coordinate, leaf: list, looped: int, level: str = "") -> list:
    """The lines of a loop nest over the box range(size)^rank, x_0
    outermost, or with ``level`` of a loop over the tuples of level.
    coordinate(k) gives the lines that run before the loop over x_k, which
    may read x_0..x_(k-1) only, and the lines inside it; ``leaf`` runs
    once per prefix of every coordinate.  Coordinates from ``looped`` on
    are held at 0 instead of looped over."""
    depth = 0 if level else NEST_DEPTH
    lines, pad = [], "    "
    for k in range(rank):
        before, inside = coordinate(k)
        lines += [pad + line for line in before]
        if k >= looped:
            lines.append("%sx%d = 0" % (pad, k))
        elif k < depth:
            lines.append("%sfor x%d in R:" % (pad, k))
            pad += "    "
        elif k == depth:
            tail = "".join("x%d, " % t for t in range(k, looped))
            source = level or "product(R, repeat=%d)" % (looped - k)
            lines.append("%sfor (%s) in %s:" % (pad, tail, source))
            pad += "    "
        lines += [pad + line for line in inside]
    return lines + [pad + line for line in leaf]


def _leaders(pairs: list) -> set:
    """The indices i that lead a pair (i, j), whose mul table rows the
    products read."""
    return {i for ks in pairs for i, _ in ks}


def _compile_powers(pairs: list, ring: CoeffRing, ell: int, box: bool):
    """``powers(level)`` for the pairs of a _DenseLaw, the set of x^ell over
    x in level, or with ``box`` ``box_powers()``, the same over the whole
    box: each x^ell by the ell - 1 products v_(s+1) = v_s x from v_1 = x,
    by the expressions of op, coordinate by coordinate (``_nest``).  The
    pair products of coordinate k of step s are summed into p_s_k before
    the loop over x_k, so inside it v_(s+1)_k is p_s_k + v_s_k + x_k, and
    r_s_k binds the mul table row of v_s_k where k leads a pair.
    Coordinate k of x^ell is thus the sum of the p_s_k plus ell x_k, and
    over a CoeffRing (which ``prove`` requires before the box), a
    commutative ring of characteristic p, ell x_k = 0 when p divides ell:
    the box's last coordinate, which leads no pair, is then held at 0
    instead of looped over."""
    rank, leads = len(pairs), _leaders(pairs)
    steps = range(1, ell)

    def power(s):
        return "x" if s == 1 else "v%d_" % s

    def coordinate(k):
        ks = pairs[k]
        before = ["p%d_%d = %s" % (s, k, _fold(_products(ks, "r%d_" % s, "x"))) for s in steps if ks]
        sums = [["p%d_%d" % (s, k)] * bool(ks) + [power(s) + str(k), "x%d" % k] for s in steps]
        inside = ["v%d_%d = %s" % (s + 1, k, _fold(terms)) for s, terms in zip(steps, sums)]
        inside += ["r%d_%d = M[%s%d]" % (s, k, power(s), k) for s in steps if k in leads]
        return before, inside

    looped = rank - (box and rank > 0 and ell % ring.p == 0)
    body = ["    image = set()", "    put = image.add"]
    body += _nest(rank, coordinate, ["put((%s))" % _names(power(ell), rank)], looped, "" if box else "level")
    return _compile(ring, "box_powers()" if box else "powers(level)", body + ["    return image"])


def _compile_lang_pass(pairs: list, ring: CoeffRing):
    """``lang_pass(F)`` for the pairs of a _DenseLaw (see
    _DenseLaw.lang_pass): a loop nest whose coordinate k gives coordinate
    k of the Lang value l_k of F(x) u, where u = x^-1.  s_k and t_k sum
    the pair products of u_k = -(sum x_i u_j + x_k) and of l_k = sum
    F(x)_i u_j + F(x)_k + u_k before the loop over x_k, which binds m_k
    and g_k to the mul table rows of x_k and F(x)_k when k leads a pair.
    The loop moves on at an l_k != 0, as no x below that prefix is in the
    kernel, and w_k says whether F fixes x_0..x_k."""
    rank, leads = len(pairs), _leaders(pairs)

    def coordinate(k):
        ks = pairs[k]
        before = ["%s%d = %s" % (c, k, _fold(_products(ks, row, "u"))) for c, row in ("sm", "tg") if ks]
        inside = [
            "u%d = N[%s]" % (k, _fold(["s%d" % k] * bool(ks) + ["x%d" % k])),
            "f%d = F[x%d]" % (k, k),
            "l%d = %s" % (k, _fold(["t%d" % k] * bool(ks) + ["f%d" % k, "u%d" % k])),
            "if l%d: continue" % k,
            "w%d = %sf%d == x%d" % (k, "w%d and " % (k - 1) if k else "", k, k),
        ]
        if k in leads:
            inside += ["m%d = M[x%d]" % (k, k), "g%d = M[f%d]" % (k, k)]
        return before, inside

    body = ["    kernel, rational = 0, True"]
    body += _nest(rank, coordinate, ["kernel += 1", "rational = rational and w%d" % (rank - 1)], rank)
    return _compile(ring, "lang_pass(F)", body + ["    return kernel, rational"])


@lru_cache(maxsize=32)
def _dense_law(ring: CoeffRing, n: int, d: int) -> _DenseLaw:
    """The law of (ring, n, d), built and compiled once while cached."""
    return _DenseLaw(ring, n, d)

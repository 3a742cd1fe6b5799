"""The dense group law on raw coefficient tuples and the kernels compiled
from it, on which the whole-group enumerations of cft.py run: the
brute-force oracle's power ladder, the proof of its group axioms from the
ring tables (``_proves_group``) and the Lang census.  See ``_DenseLaw``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

from .errors import NotAbelian
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

    Every kernel is code compiled from the pairs alone, one nested table
    lookup per term, on first use and once per law: ``op`` is
    straight-line, the ladder kernel ``powers`` loops over a level, and the
    whole-box passes ``box_powers`` and ``lang_pass`` are loop nests with
    x_0 outermost that compute coordinate k of each value once per prefix
    x_0..x_k, so they build no element tuple and call nothing per element.
    The census proves its Lang map an endomorphism from the tables (see
    cft.lang_kernel_census) and checks no pair.  The loop forms are in
    tests/cft_oracle.py and cft.brute_force_structure.
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
        self.order = ring.size ** len(self.pairs)
        self._proved = None
        self._kernels = {}

    def _kernel(self, key, build):
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = build(self.pairs, self.ring, *key[1:])
        return kernel

    @property
    def op(self):
        """The group law op(x, y), compiled on first use."""
        return self._kernel(("law",), _compile_law)

    def group_identity(self, count: int):
        """The zero tuple, once the tables prove the box range(size)^rank,
        enumerated as ``count`` distinct tuples, a commutative group under
        op; None when the proof does not apply: to a count other than
        size^rank, a ring that is not a CoeffRing or an add table that
        leaves range(size).  The proof runs once per law
        (``_proves_group``)."""
        if count != self.order:
            return None
        if self._proved is None:
            self._proved = _proves_group(self.pairs, self.ring)
        return (0,) * len(self.pairs) if self._proved else None

    def box_powers(self, ell: int) -> set:
        """The set of x^ell over the whole box, on a law that
        ``group_identity`` has proved a group."""
        return self._kernel(("powers", ell, True), _compile_powers)()

    def powers(self, level, ell: int) -> set:
        """The set of x^ell over x in level, on a law that ``_closed``
        keeps inside the box."""
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
        out = f"A[{out}][{t}]"
    return out


def _products(ks, rows: str, right: str) -> list:
    """The pair products rows_i[right_j] over the pairs (i, j) of ks."""
    return [f"{rows}{i}[{right}{j}]" for i, j in ks]


def _coordinate(k: int, ks, left: str, right: str, rows: str) -> str:
    """Coordinate k of the product left * right, where rows_i is the mul
    table row of left_i: its pair products, then left_k, then right_k."""
    return _fold(_products(ks, rows, right) + [f"{left}{k}", f"{right}{k}"])


def _names(c: str, count: int) -> str:
    return "".join(f"{c}{k}, " for k in range(count))


def _closed(ring: CoeffRing) -> bool:
    """Whether every entry of the add table lies in range(size).  Each
    coordinate of a product is an entry of that table, so then no product
    of tuples in range(size)^rank leaves the set."""
    return min(map(min, ring._add)) >= 0 and max(map(max, ring._add)) < ring.size


def _proves_group(pairs: list, ring) -> bool:
    """Whether the law of ``pairs`` over ``ring`` is provably a commutative
    group on the box range(size)^rank, with the zero tuple its identity;
    False when the proof does not apply, NotAbelian when it fails.

    Over a CoeffRing, a commutative ring, coordinate k of op(x, y) is x_k
    + y_k + sum x_i y_j over the pairs (i, j) of pairs[k], so op(x, y) -
    op(y, x) at k is the sum of (c_ij - c_ji) x_i y_j, with c_ij the count
    of (i, j) in pairs[k].  It vanishes for all x and y exactly when every
    c_ij = c_ji modulo p, as x = e_i and y = e_j show, and NotAbelian
    names the first coordinate k and pair (i, j) where it does not.  Zero
    is the identity exactly when add[0][a] == a and mul[0][a] == 0 for
    every a, and ``_closed`` keeps every product in the box."""
    if not (isinstance(ring, CoeffRing) and _closed(ring)):
        return False
    if tuple(ring._add[0]) != tuple(range(ring.size)) or any(ring._mul[0]):
        return False
    for k, ks in enumerate(pairs):
        count = Counter(ks)
        for (i, j), c in count.items():
            if (c - count[j, i]) % ring.p:
                raise NotAbelian(
                    f"coordinate {k} of the law takes x_{i} y_{j} {c} times and"
                    f" x_{j} y_{i} {count[j, i]} times, apart modulo {ring.p}"
                )
    return True


def _compile(ring: CoeffRing, signature: str, body: list):
    """Define ``signature`` over the ring tables: A is the add table (a
    local reads faster than a global), M the mul table, N the negation
    table and R the range of element indices."""
    lines = [f"def {signature}:", "    A, M, N = add, mul, neg", *body]
    namespace = {
        "add": ring._add, "mul": ring._mul, "neg": ring._neg, "R": range(ring.size), "product": product
    }
    exec("\n".join(lines), namespace)
    return namespace[signature.split("(")[0]]


def _compile_law(pairs: list, ring: CoeffRing):
    """Straight-line ``op(x, y)`` for the pairs of a _DenseLaw: each
    coordinate z_k by ``_coordinate``, with m_i the mul table row of x_i."""
    rank = len(pairs)
    body = [f"    ({_names('x', rank)}) = x", f"    ({_names('y', rank)}) = y"]
    body += [f"    m{i} = M[x{i}]" for i in sorted(_leaders(pairs))]
    body += [f"    z{k} = {_coordinate(k, ks, 'x', 'y', 'm')}" for k, ks in enumerate(pairs)]
    body.append(f"    return ({_names('z', rank)})")
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
            lines.append(f"{pad}x{k} = 0")
        elif k < depth:
            lines.append(f"{pad}for x{k} in R:")
            pad += "    "
        elif k == depth:
            tail = "".join(f"x{t}, " for t in range(k, looped))
            lines.append(f"{pad}for ({tail}) in {level or f'product(R, repeat={looped - k})'}:")
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
    over a CoeffRing (which ``group_identity`` requires before the box),
    a commutative ring of characteristic p, ell x_k = 0 when p divides
    ell: the box's last coordinate, which leads no pair, is then held at
    0 instead of looped over."""
    rank, leads = len(pairs), _leaders(pairs)
    steps = range(1, ell)

    def power(s):
        return "x" if s == 1 else f"v{s}_"

    def coordinate(k):
        ks = pairs[k]
        before = [f"p{s}_{k} = {_fold(_products(ks, f'r{s}_', 'x'))}" for s in steps if ks]
        inside = [
            f"v{s + 1}_{k} = {_fold([f'p{s}_{k}'] * bool(ks) + [f'{power(s)}{k}', f'x{k}'])}"
            for s in steps
        ]
        inside += [f"r{s}_{k} = M[{power(s)}{k}]" for s in steps if k in leads]
        return before, inside

    looped = rank - (box and rank > 0 and ell % ring.p == 0)
    body = ["    image = set()", "    put = image.add"]
    body += _nest(rank, coordinate, [f"put(({_names(power(ell), rank)}))"], looped, "" if box else "level")
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
        before = [f"{c}{k} = {_fold(_products(ks, row, 'u'))}" for c, row in ("sm", "tg") if ks]
        inside = [
            f"u{k} = N[{_fold([f's{k}'] * bool(ks) + [f'x{k}'])}]",
            f"f{k} = F[x{k}]",
            f"l{k} = {_fold([f't{k}'] * bool(ks) + [f'f{k}', f'u{k}'])}",
            f"if l{k}: continue",
            f"w{k} = {f'w{k - 1} and ' * (k > 0)}f{k} == x{k}",
        ]
        if k in leads:
            inside += [f"m{k} = M[x{k}]", f"g{k} = M[f{k}]"]
        return before, inside

    body = ["    kernel, rational = 0, True"]
    body += _nest(rank, coordinate, ["kernel += 1", f"rational = rational and w{rank - 1}"], rank)
    return _compile(ring, "lang_pass(F)", body + ["    return kernel, rational"])


@lru_cache(maxsize=32)
def _dense_law(ring: CoeffRing, n: int, d: int) -> _DenseLaw:
    """The law of (ring, n, d), built and compiled once while cached."""
    return _DenseLaw(ring, n, d)

"""Finite quotients of the truncated groups: invariant factors and censuses.

At truncation d over F_q the group is generated by the binomials
(1 - c t^nu) with c running over an F_p-basis of F_q and nu over the
exponents below d whose gcd is prime to p; such a generator has order
p^s(nu) where s(nu) counts the i >= 0 with p^i |nu| < d, because raising
a binomial to the p-th power just dilates its exponent.  Collecting these
prime powers gives the invariant factors directly; a brute-force routine
recovers the same data from nothing but the multiplication, and the two
must agree on every configuration small enough to enumerate.  It reads
the factors off the power ladder: for each prime l dividing |G| the sizes
|l^k G| come from iterating x -> x^l over the set, and
|l^k G| / |l^(k+1) G| = l^r counts the cyclic factors of order at least
l^(k+1).  Witnesses, one generator per factor and together a basis, are
found by a greedy peel of largest-order cyclic subgroups, and only when
they are read.

The one-variable case at truncation m doubles as the unit-group quotient
(1 + u k[[u]]) / (1 + u^m k[[u]]) attached to the point at infinity on the
projective line, of order q^(m-1).

The Lang census enumerates the group over an extension F_(q^s), applies
the Frobenius-over-identity map, and confirms that its kernel is exactly
the F_q-rational subgroup and that the map is an endomorphism.  On a group
of up to 2000 elements the enumeration keeps every Lang value, so each
endomorphism pair costs two group operations and lookups.

The whole-group enumerations (the brute-force oracle, the census and the
transition check) bound the group order size^rank by ``errors.check_power``,
with the rank the exact count of nonzero exponents below d, then run on raw
coefficient tuples under a dense group law compiled once per (ring, n, d)
to straight-line code over the ring tables.  The oracle proves the group
axioms from that law's tables (see ``_DenseLaw.group_identity``) and runs
its power ladder as a loop compiled from the law on first use.  The loop
form of the law, the pairwise and sampled commutativity checks and the
same loops over WittElement and witt_add are the test oracle
tests/cft_oracle.py.
Only the witnesses and the element enumeration of ModulusGroupDesc import
the witt module, so the factors, the oracle and the census run without it.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache, partial
from itertools import combinations, islice, product
from math import prod

from .errors import InvalidTruncation, NotAbelian, NotClosed, check_budget, check_power
from .ring import _MAX_TABLE_Q, CoeffRing, FiniteField, Record
from .series import (
    TruncatedSeries,
    check_shape,
    content,
    exponent_count,
    exponents_below,
    pack_exponent,
)

BRUTE_FORCE_LIMIT = 2**18
CENSUS_LIMIT = 10**6
PI1_GENERATOR_LIMIT = 10**5
PAIR_CHECK_LIMIT = 4 * 10**4


class AbelianGroupStructure(Record):
    """Invariant factors ascending, total order, and one witness per factor.

    ``make_witnesses`` builds the witnesses on the first read of
    ``witnesses``, so a caller that reads only the factors and the order
    builds none.  Equality and hash ignore it, and a pickle carries the
    built witnesses in its place."""

    __slots__ = ("invariant_factors", "order", "make_witnesses", "_witnesses")
    _fields = ("invariant_factors", "order")

    def __init__(self, invariant_factors: tuple, order: int, make_witnesses=tuple):
        self._set(
            invariant_factors=invariant_factors, order=order,
            make_witnesses=make_witnesses, _witnesses=None,
        )

    def __reduce__(self):
        return AbelianGroupStructure, (
            self.invariant_factors, self.order, partial(tuple, self.witnesses)
        )

    @property
    def witnesses(self) -> tuple:
        if self._witnesses is None:
            self._set(_witnesses=self.make_witnesses())
        return self._witnesses

    def to_json_dict(self):
        return {"factors": list(self.invariant_factors), "order": self.order}


def generator_order_exponent(p: int, weight: int, d: int) -> int:
    """Number of i >= 0 with p^i * weight < d."""
    s = 0
    while weight * p**s < d:
        s += 1
    return s


def pi1_truncated(n: int, q: int, d: int) -> AbelianGroupStructure:
    """Structure of the truncated group over F_q in n variables."""
    if d < 2:
        raise InvalidTruncation("truncation level must be at least 2")
    ring = CoeffRing.make(q)
    p, e = ring.p, ring.field.e
    # e generators per exponent at most, counted before building the box
    check_budget(e * _group_rank(n, d), PI1_GENERATOR_LIMIT, "up to {} generators")
    gens = []  # (order, exponent, basis element x^b as a field index)
    exps = [nu for nu in exponents_below(n, d) if sum(nu) > 0]
    for nu in exps:
        if content(nu) % p == 0:
            continue
        s = generator_order_exponent(p, sum(nu), d)
        gens.extend((p**s, nu, p**b) for b in range(e))
    gens.sort(key=lambda t: t[0])
    factors = tuple(o for o, _, _ in gens)
    order = q ** len(exps)
    if prod(factors) != order:
        raise AssertionError("generator orders do not account for the group order")

    def witnesses():
        from .witt import WittElement

        return tuple(WittElement.binomial(ring, n, d, nu, c) for _, nu, c in gens)

    return AbelianGroupStructure(factors, order, witnesses)


class ModulusGroupDesc(Record):
    """The quotient (1 + u k[[u]]) / (1 + u^m k[[u]]) at the infinite place."""

    __slots__ = _fields = ("q", "m", "order", "structure")

    def elements(self):
        from .witt import WittElement, enumerate_witt_elements

        ring = CoeffRing.make(self.q)
        if self.m < 2:
            return iter([WittElement.one(ring, 1, max(self.m, 1) + 1)])
        return enumerate_witt_elements(ring, 1, self.m)


def modulus_group(q: int, m: int) -> ModulusGroupDesc:
    if m < 1:
        raise InvalidTruncation("modulus multiplicity must be >= 1")
    if m == 1:
        FiniteField.of_order(q)  # SchemaError unless q is a prime power, as below
        return ModulusGroupDesc(q, 1, 1, AbelianGroupStructure((), 1))
    s = pi1_truncated(1, q, m)
    return ModulusGroupDesc(q, m, s.order, s)


def brute_force_structure(elements, op, kernels=None) -> AbelianGroupStructure:
    """Recover invariant factors from an explicit finite abelian group.

    For each prime l dividing |G| the power ladder G, lG, l^2 G, ... comes
    from iterating x -> x^l over the set until the image stops shrinking;
    |l^k G| / |l^(k+1) G| = l^r says that r cyclic factors have order at
    least l^(k+1).  The primary parts combine into ascending invariant
    factors, whose product is certified against |G|.  The loops over op
    check that no element comes twice, that every product computed stays
    in the set, that the idempotent found acts as the identity, and
    commutativity: on every unordered pair while |G|^2 <= PAIR_CHECK_LIMIT,
    beyond on the 2,000 pairs that random.Random(0).choices(elems, k=4000)
    draws two at a time.  The greedy peel builds one witness per factor,
    together a basis, on the first read of ``witnesses`` only.

    ``kernels``, when given, is the law whose set ``elements`` lists once:

    - kernels.group_identity(count) proves the group axioms from the law
      and returns the identity, in place of the loops over op, or returns
      None when the proof does not apply, and the loops run;
    - kernels.powers(level, ell), after a proof, returns the set of x^ell
      over x in level, each the product of ell - 1 factors x applied from
      the right.
    """
    # one element past the limit is enough to refuse
    elems = list(islice(elements, BRUTE_FORCE_LIMIT + 1))
    check_budget(len(elems), BRUTE_FORCE_LIMIT, "a group of at least {} elements")
    identity = None if kernels is None else kernels.group_identity(len(elems))
    if identity is None:
        members = set(elems)
        if len(members) != len(elems):
            raise NotClosed("duplicate elements in enumeration")
        kernels, identity = None, _check_group(elems, op, members)

    desc = []  # the invariant factors, largest first
    for ell in _prime_factors(len(elems)):
        level = elems
        while True:
            if kernels is None:
                image = _powers(level, ell, op, members)
            else:
                image = kernels.powers(level, ell)
            rank = _exact_log(ell, len(level), len(image))
            if rank is None:
                raise NotAbelian(f"{ell}-th powers map {len(level)} elements onto {len(image)}")
            if rank == 0:
                break
            # ell^rank = |level| / |image|: the rank largest factors take an ell
            desc += [1] * (rank - len(desc))
            for i in range(rank):
                desc[i] *= ell
            level = image
    factors = tuple(reversed(desc))
    if prod(factors) != len(elems):
        raise NotAbelian("factor product does not certify the group order")
    return AbelianGroupStructure(factors, len(elems), lambda: _peel_witnesses(elems, op, identity))


def _check_group(elems: list, op, members: set):
    """The identity of elems under op, the first idempotent, once it fixes
    every element and every checked pair commutes inside the set."""
    identity = None
    for x in elems:
        y = op(x, x)
        if y not in members:
            raise NotClosed(f"product of {x!r} with itself left the set")
        if y == x:
            identity = x
            break
    if identity is None:
        raise NotClosed("no idempotent found, not a finite group")
    for x in elems:
        if op(identity, x) != x:
            raise NotClosed(f"the idempotent {identity!r} moves {x!r}, not a group")

    if len(elems) ** 2 > PAIR_CHECK_LIMIT:
        draws = iter(random.Random(0).choices(elems, k=4000))
        pairs = zip(draws, draws)
    else:
        pairs = combinations(elems, 2)
    for a, b in pairs:
        ab = op(a, b)
        if ab not in members:
            raise NotClosed(f"product of {a!r} and {b!r} left the set")
        if ab != op(b, a):
            raise NotAbelian(f"{a!r} and {b!r} do not commute")
    return identity


def _powers(level, ell: int, op, members: set) -> set:
    """The set of x^ell over x in level, by ell - 1 products op(y, x)."""
    image = set()
    for x in level:
        y = x
        for _ in range(ell - 1):
            y = op(y, x)
            if y not in members:
                raise NotClosed(f"powers of {x!r} left the set")
        image.add(y)
    return image


def _prime_factors(m: int) -> list:
    """The distinct primes dividing m, ascending."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


def _exact_log(ell: int, big: int, small: int):
    """r with big = ell^r * small, or None when there is none."""
    ratio, rem = divmod(big, small)
    if rem:
        return None
    r = 0
    while ratio % ell == 0:
        ratio //= ell
        r += 1
    return r if ratio == 1 else None


def _peel_witnesses(elems: list, op, identity) -> tuple:
    """One generator per invariant factor, ascending, together a basis.  The
    greedy peel splits off a cyclic subgroup of largest order m, generated
    by h of least index, and recurses on the quotient by its cosets, each
    coset named by its element of least index.  h^m lies in the span of
    the earlier witnesses, with exponents divisible by m since m is the
    largest order left, and h over the m-th root of h^m has order m."""
    index = {x: i for i, x in enumerate(elems)}
    mul = op  # the group's law; op becomes each quotient's below
    span = {identity: ()}  # an element of the witnesses' span -> its exponents

    def order_of(x):
        k, y = 1, x
        while y != identity:
            y = op(y, x)
            k += 1
        return k

    witnesses, orders = [], []
    current = elems
    while len(current) > 1:
        h = max(current, key=lambda x: (order_of(x), -index[x]))
        m = order_of(h)
        power = h
        for _ in range(m - 1):
            power = mul(power, h)
        root = tuple(-(a // m) % o for a, o in zip(span[power], orders))
        w = mul(h, next(x for x, a in span.items() if a == root))
        witnesses.append(w)
        orders.append(m)
        grown = {}
        for x, a in span.items():
            for c in range(m):
                grown[x] = a + (c,)
                x = mul(x, w)
        span = grown

        rep_of, reps = {}, []
        for x in current:
            if x in rep_of:
                continue
            orbit = [x]
            y = op(x, h)
            while y != x:
                orbit.append(y)
                y = op(y, h)
            rep = min(orbit, key=index.__getitem__)
            for z in orbit:
                rep_of[z] = rep
            reps.append(rep)

        def op(a, b, _op=op, _rep=rep_of):
            return _rep[_op(a, b)]

        current = reps
        identity = rep_of[identity]
    return tuple(reversed(witnesses))


def _group_rank(n: int, d: int) -> int:
    """Number of exponents with 0 < |nu| < d in n variables."""
    if n < 1 or d < 1:
        raise InvalidTruncation("need n >= 1 variables and truncation level d >= 1")
    check_shape(n, d)
    return exponent_count(n, d) - 1


def _coefficient_tuples(size: int, rank: int):
    """Every tuple in range(size)^rank, first entry varying fastest: the
    order of enumerate_witt_elements."""
    return (t[::-1] for t in product(range(size), repeat=rank))


class _DenseLaw:
    """The truncated group over ``ring`` on raw coefficient tuples.

    The element 1 + sum_k x_k t^exps[k] is the tuple x, with exps the
    nonzero exponents below d in graded order (``keys`` holds their series
    keys).  The group law is the series product: z_k is the sum of the
    products x_i y_j over the pairs (i, j) with exps[i] + exps[j] =
    exps[k], then x_k, then y_k.  Both i and j precede k, so the inverse
    solves y_k = -(sum x_i y_j + x_k) in index order.

    ``op`` and ``inv`` are straight-line code built from the pairs alone,
    one nested table lookup per term, and so is the ladder kernel
    ``powers``, compiled on first use; the loop forms are in
    tests/cft_oracle.py and brute_force_structure.
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
        self.op, self.inv = _compile_law(self.pairs, ring)
        self._proved = None
        self._ladder = {}

    def group_identity(self, count: int):
        """The zero tuple, once the tables prove the box range(size)^rank,
        enumerated as ``count`` distinct tuples, a commutative group under
        op; None when the proof does not apply: to a count other than
        size^rank, a ring that is not a CoeffRing or an add table that
        leaves range(size).  The proof runs once per law
        (``_proves_group``)."""
        if count != self.ring.size ** len(self.pairs):
            return None
        if self._proved is None:
            self._proved = _proves_group(self.pairs, self.ring)
        return (0,) * len(self.pairs) if self._proved else None

    def powers(self, level, ell: int) -> set:
        """The set of x^ell over x in level, on a law that ``_closed``
        keeps inside the box."""
        kernel = self._ladder.get(ell)
        if kernel is None:
            kernel = self._ladder[ell] = _compile_powers(self.pairs, self.ring, ell)
        return kernel(level)

    def random(self, rng) -> tuple:
        """An element drawn as random_witt_element draws it, so a seed
        names the same elements on both."""
        size = self.ring.size
        return tuple(rng.randrange(size) for _ in self.exps)

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


def _rows(pad: str, pairs: list, c: str, rows: str) -> list:
    """Lines that bind rows_i to the mul table row of c_i for every i
    that leads a pair."""
    return [f"{pad}{rows}{i} = M[{c}{i}]" for i in sorted({i for ks in pairs for i, _ in ks})]


def _unpack(pad: str, pairs: list, c: str, rows: str) -> list:
    """Lines that bind c_k to the entries of the tuple c, then the rows."""
    return [f"{pad}({_names(c, len(pairs))}) = {c}", *_rows(pad, pairs, c, rows)]


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
    local reads faster than a global) and M the mul table."""
    lines = [f"def {signature}:", "    A, M = add, mul", *body]
    namespace = {"add": ring._add, "mul": ring._mul, "neg": ring._neg}
    exec("\n".join(lines), namespace)
    return namespace[signature.split("(")[0]]


def _compile_law(pairs: list, ring: CoeffRing):
    """Straight-line ``op(x, y)`` and ``inv(x)`` for the pairs of a _DenseLaw."""
    rank = len(pairs)
    head = _unpack("    ", pairs, "x", "m")
    op = head + [f"    ({_names('y', rank)}) = y"]
    op += [f"    z{k} = {_coordinate(k, ks, 'x', 'y', 'm')}" for k, ks in enumerate(pairs)]
    op.append(f"    return ({_names('z', rank)})")
    inv = head + [
        f"    y{k} = neg[{_fold([*_products(ks, 'm', 'y'), f'x{k}'])}]"
        for k, ks in enumerate(pairs)
    ]
    inv.append(f"    return ({_names('y', rank)})")
    return _compile(ring, "op(x, y)", op), _compile(ring, "inv(x)", inv)


def _compile_powers(pairs: list, ring: CoeffRing, ell: int):
    """``powers(level)`` for the pairs of a _DenseLaw: the set of x^ell
    over x in level, each by the ell - 1 products v = op(v, x) from v = x,
    by the expressions of op.  Step s leaves v_s, and r_s holds the mul
    table rows of its entries."""
    rank = len(pairs)
    body = ["    image = set()", "    put = image.add", "    for x in level:"]
    body += _unpack("        ", pairs, "x", "m")
    power, rows = "x", "m"
    for step in range(1, ell):
        if step > 1:
            body += _rows("        ", pairs, power, rows)
        product = [_coordinate(k, ks, power, "x", rows) for k, ks in enumerate(pairs)]
        power, rows = f"v{step}_", f"r{step}_"
        body += [f"        {power}{k} = {z}" for k, z in enumerate(product)]
    body += [f"        put(({_names(power, rank)}))", "    return image"]
    return _compile(ring, "powers(level)", body)


@lru_cache(maxsize=32)
def _dense_law(ring: CoeffRing, n: int, d: int) -> _DenseLaw:
    """The law of (ring, n, d), built and compiled once while cached."""
    return _DenseLaw(ring, n, d)


def witt_group_structure_brute(ring: CoeffRing, n: int, d: int) -> AbelianGroupStructure:
    """Brute-force oracle applied to the truncated group itself."""
    rank = _group_rank(n, d)
    check_power(ring.size, rank, BRUTE_FORCE_LIMIT, "a group of order {}")
    law = _dense_law(ring, n, d)
    s = brute_force_structure(_coefficient_tuples(ring.size, rank), law.op, law)
    return AbelianGroupStructure(
        s.invariant_factors, s.order, lambda: tuple(law.to_witt(w) for w in s.witnesses)
    )


class LangCensus(Record):
    __slots__ = _fields = (
        "total", "kernel", "expected_kernel", "endomorphism_pairs_checked", "kernel_is_rational"
    )

    @property
    def matches(self) -> bool:
        return self.kernel == self.expected_kernel and self.kernel_is_rational

    def to_json_dict(self):
        return {
            "total": self.total,
            "kernel": self.kernel,
            "expected": self.expected_kernel,
            "endomorphism_pairs_checked": self.endomorphism_pairs_checked,
            "kernel_is_rational": self.kernel_is_rational,
            "matches": self.matches,
        }


def lang_kernel_census(n: int, q: int, s: int, d: int, seed: int = 0) -> LangCensus:
    """Enumerate the group over F_(q^s), count the kernel of the Lang map,
    and verify the map is an endomorphism and the kernel is F_q-rational."""
    if d < 2:
        raise InvalidTruncation("truncation level must be at least 2")
    if s < 1:
        raise InvalidTruncation(f"extension degree s = {s} must be at least 1")
    base = CoeffRing.make(q)
    qs = check_power(q, s, _MAX_TABLE_Q, "extension field has q^s = {} elements")
    big = CoeffRing.make(qs)
    if big.p != base.p:
        raise InvalidTruncation("extension characteristic mismatch")
    rank = _group_rank(n, d)
    total = check_power(big.size, rank, CENSUS_LIMIT, "a census of {} elements")
    law = _dense_law(big, n, d)
    frob_q = [big.rfrob(c, q) for c in big.element_indices()]
    frob, op, inv = frob_q.__getitem__, law.op, law.inv

    def lang(x):
        # Frobenius minus identity: the law is written multiplicatively
        return op(tuple(map(frob, x)), inv(x))

    one = (0,) * rank
    kernel = 0
    kernel_rational = True
    # a group of up to 2000 elements keeps every Lang value for the
    # endomorphism check, which then looks them up
    memo = {} if total <= 2000 else None
    for x in _coefficient_tuples(big.size, rank):
        y = lang(x)
        if memo is not None:
            memo[x] = y
        if y == one:
            kernel += 1
            if any(frob_q[c] != c for c in x):
                kernel_rational = False

    rng = random.Random(seed)
    if memo is None:
        pairs = [(law.random(rng), law.random(rng)) for _ in range(1000)]
    elif total * total <= PAIR_CHECK_LIMIT:
        pairs = list(product(memo, repeat=2))
    else:
        draws = iter(rng.choices(list(memo), k=2000))
        pairs = list(zip(draws, draws))
    value = lang if memo is None else memo.get
    for a, b in pairs:
        lhs = value(op(a, b))
        if lhs is None:
            raise NotClosed("a product left the enumerated group")
        if lhs != op(value(a), value(b)):
            raise NotAbelian("Lang map failed to be an endomorphism")

    return LangCensus(total, kernel, q**rank, len(pairs), kernel_rational)


def transition_surjective(ring: CoeffRing, n: int, d_from: int, d_to: int) -> bool:
    """Exhaustively confirm that truncation maps the larger quotient onto
    the smaller one."""
    if d_to > d_from:
        raise InvalidTruncation("target level must not exceed the source level")
    if d_to < 1:
        raise InvalidTruncation("target level must be at least 1")
    rank_from, rank_to = _group_rank(n, d_from), _group_rank(n, d_to)
    check_power(ring.size, rank_from, BRUTE_FORCE_LIMIT, "a group of order {}")
    # graded order lists every exponent below d_to first, so truncation
    # keeps a prefix of the coefficient tuple
    images = {x[:rank_to] for x in _coefficient_tuples(ring.size, rank_from)}
    return images == set(_coefficient_tuples(ring.size, rank_to))

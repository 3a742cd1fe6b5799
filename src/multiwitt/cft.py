"""Finite quotients of the truncated groups: invariant factors and censuses.

At truncation d over F_q the group is generated by the binomials
(1 - c t^nu) with c running over an F_p-basis of F_q and nu over the
exponents below d whose gcd is prime to p; such a generator has order
p^s(nu) where s(nu) counts the i >= 0 with p^i |nu| < d, because raising
a binomial to the p-th power just dilates its exponent.  Collecting these
prime powers gives the invariant factors directly, and since s depends
on |nu| alone they come from a count per weight, with no exponent
listed; a brute-force oracle recovers the same data from the group law,
and the two must agree on every configuration small enough to
enumerate.  It reads the factors
off the power ladder: for each prime l dividing |G| the sizes
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
the F_q-rational subgroup.  That the map is an endomorphism it proves
from the law's tables before the enumeration, so it checks no pair.

The whole-group enumerations (the brute-force oracle, the census and the
transition check) bound the group order size^rank by ``errors.check_power``,
with the rank the exact count of nonzero exponents below d, then run on raw
coefficient tuples under the dense group law of dense.py, whose kernels
are compiled once per (ring, n, d) to code over the ring tables.  The
oracle and the census have one path: the law proves the group axioms
from its tables or refuses (``_DenseLaw.prove``), and then the compiled
ladder or Lang pass runs.  The passes over the whole group, the oracle's
first ladder level and the census's Lang values, are loop nests that
compute coordinate k once per prefix x_0..x_k; later ladder levels loop
over the level.  The test oracle tests/cft_oracle.py keeps the loops:
the loop form of the law, the same ladder over an opaque op with its
pairwise and sampled commutativity checks, and the same enumerations
over WittElement and witt_add, with the census's numeric endomorphism
check over pairs.
Only the witnesses and the element enumeration of ModulusGroupDesc import
the ring, series and witt modules, and only the oracle and the census
import dense.py (and through it ring and series), so the factors run on
this module and errors.py alone.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from math import comb, prod

from .errors import _MAX_TABLE_Q, InvalidTruncation, NotAbelian, Record, check_budget
from .errors import check_power, check_shape, prime_power

BRUTE_FORCE_LIMIT = 2**18
CENSUS_LIMIT = 10**6
PI1_GENERATOR_LIMIT = 10**5


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
    """Structure of the truncated group over F_q in n variables.  The
    generators of weight w are e per exponent of weight w whose content is
    prime to p: C(w + n - 1, n - 1) exponents, less the C(w/p + n - 1,
    n - 1) multiples of p when p | w.  The factors and the order come from
    these counts and need only p and e; the exponents are listed, and the
    ring made, when the witnesses are read."""
    if d < 2:
        raise InvalidTruncation("truncation level must be at least 2")
    p, e = prime_power(q)
    rank = _group_rank(n, d)
    # e generators per exponent at most, counted before any is listed
    check_budget(e * rank, PI1_GENERATOR_LIMIT, "up to {} generators")
    factors = []
    for w in range(d - 1, 0, -1):  # the order p^s(w) grows as w falls
        count = comb(w + n - 1, n - 1) - (comb(w // p + n - 1, n - 1) if w % p == 0 else 0)
        factors += [p ** generator_order_exponent(p, w, d)] * (e * count)
    factors = tuple(factors)
    order = q**rank
    if prod(factors) != order:
        raise AssertionError("generator orders do not account for the group order")

    def witnesses():
        from .ring import CoeffRing
        from .series import content, exponents_below
        from .witt import WittElement

        # one generator per basis element x^b, as a field index, of each
        # exponent prime to p, in the order of the factors
        gens = [(p ** generator_order_exponent(p, sum(nu), d), nu)
                for nu in exponents_below(n, d)[1:] if content(nu) % p]
        gens.sort(key=lambda t: t[0])
        ring = CoeffRing.make(q)
        return tuple(
            WittElement.binomial(ring, n, d, nu, p**b) for _, nu in gens for b in range(e)
        )

    return AbelianGroupStructure(factors, order, witnesses)


class ModulusGroupDesc(Record):
    """The quotient (1 + u k[[u]]) / (1 + u^m k[[u]]) at the infinite place."""

    __slots__ = _fields = ("q", "m", "order", "structure")

    def elements(self):
        from .ring import CoeffRing
        from .witt import WittElement, enumerate_witt_elements

        ring = CoeffRing.make(self.q)
        if self.m < 2:
            return iter([WittElement.one(ring, 1, max(self.m, 1) + 1)])
        return enumerate_witt_elements(ring, 1, self.m)


def modulus_group(q: int, m: int) -> ModulusGroupDesc:
    if m < 1:
        raise InvalidTruncation("modulus multiplicity must be >= 1")
    if m == 1:
        prime_power(q)  # SchemaError unless q is a prime power, as below
        return ModulusGroupDesc(q, 1, 1, AbelianGroupStructure((), 1))
    s = pi1_truncated(1, q, m)
    return ModulusGroupDesc(q, m, s.order, s)


def _ladder(order: int, first, later, witnesses) -> AbelianGroupStructure:
    """The invariant factors of a group of ``order`` elements from its
    power ladders: first(ell) is the set of ell-th powers of the group,
    later(level, ell) that of a level."""
    desc = []  # the invariant factors, largest first
    for ell in _prime_factors(order):
        count, image = order, first(ell)
        while True:
            rank = _exact_log(ell, count, len(image))
            if rank is None:
                raise NotAbelian(f"{ell}-th powers map {count} elements onto {len(image)}")
            if rank == 0:
                break
            # ell^rank = |level| / |image|: the rank largest factors take an ell
            desc += [1] * (rank - len(desc))
            for i in range(rank):
                desc[i] *= ell
            count, image = len(image), later(image, ell)
    factors = tuple(reversed(desc))
    if prod(factors) != order:
        raise NotAbelian("factor product does not certify the group order")
    return AbelianGroupStructure(factors, order, witnesses)


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
    return comb(n + d - 1, n) - 1


def _coefficient_tuples(size: int, rank: int):
    """Every tuple in range(size)^rank, first entry varying fastest: the
    order of enumerate_witt_elements."""
    return (t[::-1] for t in product(range(size), repeat=rank))


def witt_group_structure_brute(ring: CoeffRing, n: int, d: int) -> AbelianGroupStructure:
    """Brute-force oracle applied to the truncated group itself.  The law
    proves its box a group from its tables or refuses
    (``_DenseLaw.prove``), the ladder starts from ``box_powers``, and the
    box is listed only when the witnesses are read."""
    rank = _group_rank(n, d)
    order = check_power(ring.size, rank, BRUTE_FORCE_LIMIT, "a group of order {}")
    from .dense import _dense_law

    law = _dense_law(ring, n, d)
    law.prove()

    def witnesses():
        box = list(_coefficient_tuples(ring.size, rank))
        return tuple(map(law.to_witt, _peel_witnesses(box, law.op, (0,) * rank)))

    return _ladder(order, law.box_powers, law.powers, witnesses)


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
    """Enumerate the group over F_(q^s), count the kernel of the Lang map
    L(x) = F(x) x^-1, and verify that the kernel is F_q-rational and that
    L is an endomorphism.

    The endomorphism is proved from the tables of the law's ring before
    the enumeration, by the proof the oracle runs (``_DenseLaw.prove``):
    the add table stays in range(size) (else NotClosed), the negation
    table, from which the pass forms x^-1, is the additive inverse (else
    NotAbelian), and the law is a commutative group with zero as
    identity (else NotClosed, or NotAbelian for pairs that are not
    symmetric modulo p).  The law is then the series product, which
    commutes, and F applies c -> c^q to every coefficient, a ring
    endomorphism in characteristic p, so F(xy) = F(x) F(y) and
    L(xy) = F(x) F(y) x^-1 y^-1 = L(x) L(y) on every pair:
    ``endomorphism_pairs_checked`` is total^2.  The extension and the
    census are sized before any ring is built.  ``seed`` is kept for the
    CLI's --seed and changes no output."""
    if d < 2:
        raise InvalidTruncation("truncation level must be at least 2")
    if s < 1:
        raise InvalidTruncation(f"extension degree s = {s} must be at least 1")
    prime_power(q)
    qs = check_power(q, s, _MAX_TABLE_Q, "extension field has q^s = {} elements")
    rank = _group_rank(n, d)
    total = check_power(qs, rank, CENSUS_LIMIT, "a census of {} elements")
    from .dense import _dense_law
    from .ring import CoeffRing

    big = CoeffRing.make(qs)

    law = _dense_law(big, n, d)
    law.prove()
    frob = [big.rfrob(c, q) for c in big.element_indices()]
    kernel, rational = law.lang_pass(frob)
    return LangCensus(total, kernel, q**rank, total**2, rational)


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

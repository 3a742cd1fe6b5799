"""WittElement-driven reference for the brute-force oracle and the Lang census.

Every element is a ``WittElement`` and every group operation is
``witt_add``, a sparse series product, so the enumerations run on the
public series arithmetic alone.  They are slow and exist to check the
library's enumerations, which run the same loops on raw coefficient
tuples: the same invariant factors, witnesses in the same order, and
the same census total, kernel and rationality.  The reference census
still checks the endomorphism numerically, on every pair of up to 200
elements and on 1,000 pairs drawn from the seed beyond, where the
library proves it from the law's tables for all total^2 pairs.

``loop_op`` and ``loop_inv`` are the dense law on raw coefficient tuples
as plain loops over its pairs: the reference for the compiled ``op`` of
``multiwitt.dense._DenseLaw`` and for the inverse its Lang pass forms.
``random_tuple`` draws a raw tuple as ``random_witt_element`` draws an
element, so a seed names the same elements on both.

``brute_force_structure`` is the library oracle's power ladder
(``multiwitt.cft._ladder``) over an opaque op, whose group axioms it
checks with loops over op instead of the dense law's table proof
(``multiwitt.dense._DenseLaw.prove``): no element comes twice, every
product computed stays in the set, the idempotent found is the
identity, and the pairs commute.  ``pairwise_commutes`` and
``sampled_commutes`` are those commutativity loops: every unordered
pair of elements while |G|^2 <= PAIR_CHECK_LIMIT, beyond it the 2,000
pairs that ``random.Random(0).choices`` draws.  They are the reference
for the table proof, which must refuse exactly the laws they refuse,
and ``loop_powers`` is the reference for the compiled ladder kernels.

``greedy_structure`` recovers the invariant factors by the greedy peel
over element orders, after the same checks of the group axioms: the
reference for the factors of the power ladder and for the witnesses
that ``multiwitt.cft._peel_witnesses`` builds on demand.  Each peeled
representative h, of order m modulo the earlier witnesses, is divided
by the m-th root of h^m in their span, so the witnesses form a basis:
each has exactly its factor's order.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations, islice

from multiwitt.cft import (
    BRUTE_FORCE_LIMIT,
    CENSUS_LIMIT,
    AbelianGroupStructure,
    LangCensus,
    _ladder,
    _peel_witnesses,
)
from multiwitt.errors import InvalidTruncation, NotAbelian, NotClosed, TooLarge, check_budget
from multiwitt.ring import CoeffRing
from multiwitt.series import exponents_below
from multiwitt.witt import (
    WittElement,
    enumerate_witt_elements,
    lang_map,
    random_witt_element,
    witt_add,
)


def loop_op(law, x: tuple, y: tuple) -> tuple:
    """z_k = x_k + y_k + sum x_i y_j over the pairs of exponent k."""
    add, mul = law.ring._add, law.ring._mul
    out = []
    for k, pairs in enumerate(law.pairs):
        s = add[x[k]][y[k]]
        for i, j in pairs:
            s = add[s][mul[x[i]][y[j]]]
        out.append(s)
    return tuple(out)


def loop_inv(law, x: tuple) -> tuple:
    """y_k = -(x_k + sum x_i y_j), solved in index order."""
    add, mul, neg = law.ring._add, law.ring._mul, law.ring._neg
    y = []
    for k, pairs in enumerate(law.pairs):
        s = x[k]
        for i, j in pairs:
            s = add[s][mul[x[i]][y[j]]]
        y.append(neg[s])
    return tuple(y)


def random_tuple(law, rng) -> tuple:
    """A raw coefficient tuple of ``law``, drawn as random_witt_element
    draws the element."""
    return tuple(rng.randrange(law.ring.size) for _ in law.exps)


def pairwise_commutes(elems: list, op) -> None:
    """Raise NotClosed when a product of two distinct elements leaves the
    set and NotAbelian when two elements do not commute."""
    members = set(elems)
    for a, b in combinations(elems, 2):
        ab = op(a, b)
        if ab not in members:
            raise NotClosed(f"product of {a!r} and {b!r} left the set")
        if ab != op(b, a):
            raise NotAbelian(f"{a!r} and {b!r} do not commute")


def sampled_commutes(elems: list, op) -> None:
    """The check of pairwise_commutes on the 2,000 pairs drawn two at a
    time from random.Random(0).choices(elems, k=4000)."""
    members = set(elems)
    draws = iter(random.Random(0).choices(elems, k=4000))
    for a, b in zip(draws, draws):
        ab = op(a, b)
        if ab not in members:
            raise NotClosed(f"product of {a!r} and {b!r} left the set")
        if ab != op(b, a):
            raise NotAbelian(f"{a!r} and {b!r} do not commute")


PAIR_CHECK_LIMIT = 4 * 10**4


def brute_force_structure(elements, op) -> AbelianGroupStructure:
    """Invariant factors and witnesses of an explicit finite abelian group
    under op, by the library's power ladder over loops of op.  The factors
    multiply to |G| or NotAbelian is raised."""
    # one element past the limit is enough to refuse
    elems = list(islice(elements, BRUTE_FORCE_LIMIT + 1))
    check_budget(len(elems), BRUTE_FORCE_LIMIT, "a group of at least {} elements")
    members = set(elems)
    if len(members) != len(elems):
        raise NotClosed("duplicate elements in enumeration")
    identity = _check_group(elems, op, members)
    later = partial(loop_powers, op=op, members=members)
    return _ladder(len(elems), partial(later, elems), later, lambda: _peel_witnesses(elems, op, identity))


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
    commutes = pairwise_commutes if len(elems) ** 2 <= PAIR_CHECK_LIMIT else sampled_commutes
    commutes(elems, op)
    return identity


def loop_powers(level, ell: int, op, members: set) -> set:
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


def greedy_structure(elements, op) -> AbelianGroupStructure:
    """Invariant factors by peeling: split off a cyclic subgroup of largest
    element order, recurse on the quotient by its cosets, and certify the
    product of the orders against the group order."""
    elems = list(elements)
    if len(elems) > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"group of size {len(elems)} beyond brute-force limit")
    index = {x: i for i, x in enumerate(elems)}
    if len(index) != len(elems):
        raise NotClosed("duplicate elements in enumeration")
    identity = _check_group(elems, op, index)

    def order_of(x):
        k, y = 1, x
        while y != identity:
            y = op(y, x)
            if y not in index:
                raise NotClosed(f"powers of {x!r} left the set")
            k += 1
        return k

    group_op, one = op, identity
    # the span of the witnesses so far, as exponent vector -> element
    span = {(): one}
    factors = []
    witnesses = []
    current = elems
    while len(current) > 1:
        orders = [(order_of(x), index[x]) for x in current]
        best_order, best_idx = max(orders, key=lambda t: (t[0], -t[1]))
        g = elems[best_idx]
        # g^m lies in the span: find its exponents there, divide them by
        # m (the m-th root) and divide g by that root
        g_m = one
        for _ in range(best_order):
            g_m = group_op(g_m, g)
        exps = next(a for a, x in span.items() if x == g_m)
        assert all(a % best_order == 0 for a in exps), (exps, best_order)
        root_inv = tuple((-a // best_order) % f for a, f in zip(exps, factors))
        w = group_op(g, span[root_inv])
        factors.append(best_order)
        witnesses.append(w)
        span = {
            a + (c,): y
            for a, x in span.items()
            for c, y in enumerate(_powers_from(x, w, best_order, group_op))
        }
        # partition into cosets of <g> by walking g-orbits
        rep_of = {}
        reps = []
        for x in current:
            if x in rep_of:
                continue
            orbit = [x]
            y = op(x, g)
            while y != x:
                orbit.append(y)
                y = op(y, g)
            rep = min(orbit, key=lambda z: index[z])
            for z in orbit:
                rep_of[z] = rep
            reps.append(rep)

        def op_q(a, b, _op=op, _rep=rep_of):
            return _rep[_op(a, b)]

        current = reps
        op = op_q
        index = {x: index[x] for x in current}
        identity = rep_of[identity]

    total = 1
    for f in factors:
        total *= f
    if total != len(elems):
        raise NotAbelian("factor product does not certify the group order")
    witnesses = tuple(reversed(witnesses))
    return AbelianGroupStructure(tuple(reversed(factors)), len(elems), lambda: witnesses)


def _powers_from(x, w, count: int, op) -> list:
    """x, x w, x w^2, ..., x w^(count - 1)."""
    out = [x]
    for _ in range(count - 1):
        out.append(op(out[-1], w))
    return out


def witt_group_structure_brute(ring: CoeffRing, n: int, d: int) -> AbelianGroupStructure:
    """Brute-force oracle applied to the truncated group itself."""
    exps = [e for e in exponents_below(n, d) if sum(e) > 0]
    size = ring.size ** len(exps)
    if size > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"group of size {size} beyond brute-force limit")
    return brute_force_structure(list(enumerate_witt_elements(ring, n, d)), witt_add)


def lang_kernel_census(n: int, q: int, s: int, d: int, seed: int = 0) -> LangCensus:
    """Enumerate the group over F_(q^s), count the kernel of the Lang map,
    and verify the map is an endomorphism and the kernel is F_q-rational."""
    if d < 2:
        raise InvalidTruncation("truncation level must be at least 2")
    base = CoeffRing.make(q)
    big = CoeffRing.make(q**s)
    if big.p != base.p:
        raise InvalidTruncation("extension characteristic mismatch")
    exps = [e for e in exponents_below(n, d) if sum(e) > 0]
    total = big.size ** len(exps)
    if total > CENSUS_LIMIT:
        raise TooLarge(f"census of size {total} beyond limit")
    one = WittElement.one(big, n, d)
    kernel = 0
    kernel_rational = True
    members = []
    keep_all = total <= 2000
    for el in enumerate_witt_elements(big, n, d):
        if keep_all:
            members.append(el)
        if lang_map(el, q) == one:
            kernel += 1
            if any(big.rfrob(c, q) != c for c in el.series.terms.values()):
                kernel_rational = False

    rng = random.Random(seed)
    if keep_all and total * total <= PAIR_CHECK_LIMIT:
        pairs = [(a, b) for a in members for b in members]
    elif keep_all:
        draws = iter(rng.choices(members, k=2 * min(1000, total * total)))
        pairs = list(zip(draws, draws))
    else:
        pairs = []
        for _ in range(min(1000, total * total)):
            a = random_witt_element(big, n, d, rng)
            b = random_witt_element(big, n, d, rng)
            pairs.append((a, b))
    for a, b in pairs:
        lhs = lang_map(witt_add(a, b), q)
        rhs = witt_add(lang_map(a, q), lang_map(b, q))
        if lhs != rhs:
            raise NotAbelian("Lang map failed to be an endomorphism")

    return LangCensus(total, kernel, q ** len(exps), len(pairs), kernel_rational)

"""The refusal policy of ``multiwitt.errors``: every work budget goes
through ``check_budget`` or ``check_power``, refuses before the work it
bounds starts, and names its estimate and its limit."""

import functools
import itertools
import random
import sys
import time

import pytest

from multiwitt import cft, cli, duality, ptypical, ring, series, unipoly, witt
from multiwitt.errors import WORK_LIMIT, SchemaError, TooLarge, WittError, check_budget
from multiwitt.errors import check_power


def refuse(*_args, **_kwargs):
    raise AssertionError("the bounded work ran before its budget was checked")


F2 = ring.CoeffRing.make(2)
F3 = ring.CoeffRing.make(3)
R22 = ring.CoeffRing.make(2, nil=2)
# x^12 + x^3 + 1 is irreducible over F_2: only the size stops the field
X12 = (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)
RANK = cft._group_rank(20, 20)


def one_t_t2_inverse():
    # 1 + t + t^2 at d = 10^9: up to 10^9 quotient keys, 3 divisor terms
    return series.TruncatedSeries(F3, 1, 10**9, {(0,): 1, (1,): 1, (2,): 1}).inv()


def one_t_inverse():
    # 1 + t at d = 2 * 10^6: 4,000,002 steps, within the work budget, but
    # up to 2 * 10^6 quotient keys
    return series.TruncatedSeries(F3, 1, 2 * 10**6, {(0,): 1, (1,): 1}).inv()


def dense_square():
    # 1 + t + .. + t^3162 over F_3 at d = 4,000, times itself
    a = series.TruncatedSeries(F3, 1, 4000, {(k,): 1 for k in range(3163)})
    return a.mul(a)


def disjoint_product():
    # t_1^i times t_2^j, i, j < 1,001, at d = 2,002: 1,002,001 steps, within
    # the work budget, but each pair its own key
    a = series.TruncatedSeries(F3, 2, 2002, {(i, 0): 1 for i in range(1001)})
    b = series.TruncatedSeries(F3, 2, 2002, {(0, j): 1 for j in range(1001)})
    return a.mul(b)


def dense_coordinates():
    rng = random.Random(17)
    terms = {(k,): 1 for k in range(400) if k == 0 or rng.random() < 0.5}
    return witt.witt_coordinates(witt.WittElement(series.TruncatedSeries(F2, 1, 400, terms)))


def thousand_coordinates():
    # exponents 1 to 1,000 at d = 100,000: a dense product of about
    # 500,500 keys, refused before its first factor is multiplied in
    coords = {(k,): 2 if k % 2 else 1 for k in range(1, 1001)}
    return witt.from_coordinates(witt.WittCoordinates(F3, 1, 100000, coords))


def unit_family_product():
    # a unit at every entry of the family at d = 8,000 over F_2: a factor
    # at each of t^1, .., t^7999
    family = {
        j: ptypical.PWittVector(2, [1] * m, F2)
        for j, m in ptypical.component_lengths(2, 8000).items()
    }
    return ptypical.pi_epsilon(family, F2, 8000)


def pi1_job():
    return cli.run(cli.parse_args(["pi1", "--n", "3", "--q", "2", "--d", "60"]))


JSON_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# site -> (attributes replaced for the job, the job, the end of its refusal)
SITES = {
    "field p^e": (
        {"multiwitt.ring._is_prime": refuse},
        lambda: ring.FiniteField(2, 12, X12),
        r"field has q = p\^e = 4096 elements, beyond limit 2048",
    ),
    "field q": (
        {"multiwitt.ring._is_prime": refuse},
        lambda: ring.FiniteField.of_order(4096),
        r"field has q = 4096 elements, beyond limit 2048",
    ),
    "ring q^nil": (
        {"multiwitt.ring._ring_tables": refuse},
        lambda: ring.CoeffRing(F2.field, 12),
        r"ring has q\^nil = 4096 elements, beyond limit 2048",
    ),
    "exponent bits": (
        {"multiwitt.series.pack_exponent": refuse},
        lambda: series.TruncatedSeries(F2, 4097, 2**16, {(0,) * 4097: 1}),
        r"up to 69649 bits, beyond limit 65536",
    ),
    "division": (
        {"multiwitt.series.divide_keys": refuse},
        one_t_t2_inverse,
        r"3 divisor terms may make 3000000003 steps, beyond limit 10000000",
    ),
    "quotient keys": (
        {"multiwitt.series.divide_keys": refuse},
        one_t_inverse,
        r"at n = 1, d = 2000000 a quotient may hold 2000000 keys, beyond limit 1000000",
    ),
    "series product": (
        {"multiwitt.series.add_products": refuse},
        dense_square,
        r"a product of 3163 by 3163 terms may make 10004569 steps, beyond limit 10000000",
    ),
    "product keys": (
        {"multiwitt.series.add_products": refuse},
        disjoint_product,
        r"at n = 2, d = 2002 a product of 1001 by 1001 terms may hold 1002001 keys, "
        r"beyond limit 1000000",
    ),
    "component family": (
        {"multiwitt.witt.primitive_exponents_below": refuse},
        lambda: witt.decompose(witt.WittElement.one(F3, 2, 10**9)).components,
        r"up to 500000000499999999 components, beyond limit 1000000",
    ),
    "binomial product": (
        {"multiwitt.witt.binomial_product": refuse},
        thousand_coordinates,
        r"a product of binomials at n = 1, d = 100000 may make 70186143 steps, "
        r"beyond limit 10000000",
    ),
    "unit family": (
        {"multiwitt.witt.primitive_exponents_below": refuse},
        lambda: witt.ring_one(F3, 2, 10**9),
        r"up to 500000000499999999 components, beyond limit 1000000",
    ),
    "coordinate peel": (
        {"multiwitt.witt.divide_keys": refuse, "multiwitt.witt.WORK_LIMIT": 100},
        dense_coordinates,
        r"n = 1, d = 400 reaches \d{3} steps, beyond limit 100",
    ),
    "pi1 generators": (
        {"multiwitt.cft.exponents_below": refuse},
        lambda: cft.pi1_truncated(20, 2, 20),
        rf"up to {RANK} generators, beyond limit 100000",
    ),
    "brute force": (
        {},
        lambda: cft.brute_force_structure(itertools.count(), refuse),
        r"a group of at least 262145 elements, beyond limit 262144",
    ),
    "oracle": (
        {"multiwitt.cft._dense_law": refuse},
        lambda: cft.witt_group_structure_brute(F2, 20, 20),
        rf"a group of order at least 2\^{RANK}, beyond limit 262144",
    ),
    "transition": (
        {"multiwitt.cft._coefficient_tuples": refuse},
        lambda: cft.transition_surjective(F2, 20, 20, 2),
        rf"a group of order at least 2\^{RANK}, beyond limit 262144",
    ),
    "census field": (
        {"multiwitt.ring._find_irreducible": refuse},
        lambda: cft.lang_kernel_census(1, 2, 100000, 2),
        r"extension field has q\^s = at least 2\^100000 elements, beyond limit 2048",
    ),
    "census": (
        {"multiwitt.cft._dense_law": refuse},
        lambda: cft.lang_kernel_census(20, 2, 2, 20),
        rf"a census of at least 2\^{2 * RANK} elements, beyond limit 1000000",
    ),
    "resultant": (
        {"multiwitt.unipoly.sylvester_matrix": refuse},
        lambda: unipoly.resultant(
            unipoly.UnivariatePolynomial(F2, [1] * 301),
            unipoly.UnivariatePolynomial(F2, [1] * 301),
        ),
        r"Sylvester matrix of size 600, beyond limit 512",
    ),
    "geometric norm": (
        {"multiwitt.duality._det_chain": refuse},
        lambda: duality.geometric_pair(
            duality.FormalWittElement(
                series.TruncatedSeries(R22, 1, 2, {(0,): 1, (1,): R22.eps_raw}, exact=True)
            ),
            witt.WittElement.binomial(F2, 1, 10**7, (1,), 1),
            10**7 - 1,
        ),
        r"the norms at m = 9999999 modulo degree 1 may make 20000001 steps, beyond limit 10000000",
    ),
    "Artin-Hasse": (
        {"multiwitt.ptypical.artin_hasse_coefficients": refuse},
        lambda: ptypical.artin_hasse_exp(F2.from_raw(1), 1, 10**8),
        r"E\(x, t\^1\) at d = 100000000 needs 100000000 Artin-Hasse coefficients, "
        r"beyond limit 1000",
    ),
    "Artin-Hasse product": (
        {"multiwitt.ptypical.add_products": refuse},
        unit_family_product,
        r"a product of 7999 Artin-Hasse factors at d = 8000 may make 520967999 steps, "
        r"beyond limit 10000000",
    ),
    "JSON output": (
        {"multiwitt.cft.AbelianGroupStructure.to_json_dict": refuse},
        pi1_job,
        rf"group order has 11385 decimal digits, for JSON output, beyond limit {JSON_DIGITS}",
    ),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_budget_refuses_before_its_work(site, monkeypatch):
    if site == "JSON output" and not JSON_DIGITS:
        pytest.skip("this interpreter prints integers of any length")
    patches, job, message = SITES[site]
    for target, value in patches.items():
        monkeypatch.setattr(target, value)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=message + "$"):
        job()
    assert time.perf_counter() - start < 1.0


def test_check_power_refuses_a_huge_power_unformed():
    base = 2**100000
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"^at least 2\^100000000000000, beyond limit 1000$"):
        check_power(base, 10**9, 1000, "{}")
    assert time.perf_counter() - start < 0.01


def test_check_power_returns_the_power_within_its_limit():
    assert check_power(2, 11, 2048, "{}") == 2048
    assert check_power(7, 0, 1, "{}") == 1
    # a power of fewer than 120 bits is formed, and named exactly below 10^18
    with pytest.raises(TooLarge, match=r"^1594323, beyond limit 2048$"):
        check_power(3, 13, 2048, "{}")
    with pytest.raises(TooLarge, match=r"^at least 2\^60, beyond limit 2048$"):
        check_power(3, 38, 2048, "{}")
    # 2^61 - 1 is refused unformed
    with pytest.raises(TooLarge, match=r"^at least 2\^60, beyond limit 2048$"):
        check_power(2**61 - 1, 1, 2048, "{}")
    # past 2^(10^18) the exponent itself is named by its power of two
    with pytest.raises(TooLarge, match=r"^at least 2\^2\^69, beyond limit 2048$"):
        check_power(2, 10**21, 2048, "{}")


def test_a_number_of_19_digits_is_named_by_a_power_of_two():
    with pytest.raises(TooLarge, match=r"^999999999999999999 bits, beyond limit 0$"):
        check_budget(10**18 - 1, 0, "{} bits")
    with pytest.raises(TooLarge, match=r"^at least 2\^59 bits, beyond limit 0$"):
        check_budget(10**18, 0, "{} bits")
    # past the digits str() converts
    with pytest.raises(TooLarge, match=r"^at least 2\^1000000 bits, beyond limit 0$"):
        check_budget(2**1000000, 0, "{} bits")


def test_the_description_is_formatted_only_on_refusal():
    check_budget(5, 5, "{3} names no field")
    with pytest.raises(TooLarge, match=r"^at n = 2, d = 3: 6, beyond limit 5$"):
        check_budget(6, 5, "at n = {1}, d = {2}: {0}", 2, 3)


def test_schema_error_is_also_a_value_error():
    assert issubclass(SchemaError, WittError) and issubclass(SchemaError, ValueError)
    with pytest.raises(ValueError, match="4 is not prime"):
        ring.FiniteField(4, 1, (0, 1))


# estimates that bound the table products of a kernel, one site at a time
KERNEL_MODULES = (series, witt, ptypical)
ORDERS = {1: 14, 2: 8, 3: 5}


def kernel_products(monkeypatch, kernel, what, job):
    """Run ``job`` and return [estimate, products] for each estimate
    checked against ``WORK_LIMIT`` whose description holds ``what``, in
    order: the table products (``CoeffRing.rmul`` calls) that ``kernel``,
    ``add_products`` or ``divide_keys``, makes until the next such
    estimate.  Products outside the kernel, such as those that build its
    factors, are not counted."""
    log, inside = [], []
    rmul, kernel_fn = ring.CoeffRing.rmul, getattr(series, kernel)

    def counting_rmul(self, a, b):
        if inside:
            assert log, "the kernel ran before its estimate was checked"
            log[-1][1] += 1
        return rmul(self, a, b)

    def counting_kernel(*args, **kwargs):
        inside.append(True)
        try:
            return kernel_fn(*args, **kwargs)
        finally:
            inside.pop()

    def recording_check(estimate, limit, description, *fields):
        if limit == WORK_LIMIT and what in description:
            log.append([estimate, 0])
        check_budget(estimate, limit, description, *fields)

    with monkeypatch.context() as patch:
        patch.setattr(ring.CoeffRing, "rmul", counting_rmul)
        for module in KERNEL_MODULES:
            patch.setattr(module, "check_budget", recording_check)
            if hasattr(module, kernel):
                patch.setattr(module, kernel, counting_kernel)
        job()
    return log


def norm_products(monkeypatch, any_ring, job):
    """Run ``job`` and return [estimate, products] for the geometric norms'
    estimate: the table products read after it.  The kernel indexes the
    rows of ``ring._mul`` directly, so each row counts the reads from it."""
    log, table = [], any_ring._mul

    class CountingRow(list):
        def __getitem__(self, b):
            assert log, "the kernel ran before its estimate was checked"
            log[-1][1] += 1
            return list.__getitem__(self, b)

    def recording_check(estimate, limit, description, *fields):
        if limit == WORK_LIMIT:
            log.append([estimate, 0])
        check_budget(estimate, limit, description, *fields)

    with monkeypatch.context() as patch:
        patch.setattr(duality, "check_budget", recording_check)
        any_ring._set(_mul=[CountingRow(row) for row in table])
        try:
            job()
        finally:
            any_ring._set(_mul=table)
    return log


def assert_bounds(log, cumulative=False):
    """Each estimate is at least the products after it, or with
    ``cumulative`` (a meter), at least all the products so far."""
    assert log
    total = 0
    for estimate, products in log:
        total = total + products if cumulative else products
        assert total <= estimate, log


def random_terms(any_ring, n, d, rng, dense, unit_constant=False):
    box = series.exponents_below(n, d)
    chosen = [e for e in box if rng.random() < 0.9] if dense else rng.sample(box, min(3, len(box)))
    pick = (any_ring.random_raw, any_ring.random_nilpotent_raw)
    terms = {e: rng.choice(pick)(rng) for e in chosen}
    if unit_constant:
        terms[(0,) * n] = rng.choice([u for u in range(any_ring.size) if any_ring.is_unit_raw(u)])
    return terms


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_kernel_estimate_bounds_its_table_products(any_ring, n, dense, rng, monkeypatch):
    """The division (through ``/``, ``inv`` and ``pi_epsilon_inverse``),
    the series product, the binomial product, the peel's meter,
    ``pi_epsilon`` and the geometric norms: each estimate is at least the
    table products its kernel makes, on random inputs, exact and not."""
    for _ in range(3):
        d = rng.randrange(2, ORDERS[n] + 1)

        def element():
            terms = random_terms(any_ring, n, d, rng, dense) | {(0,) * n: any_ring.one}
            return witt.WittElement(series.TruncatedSeries(any_ring, n, d, terms))

        def series_pair(unit_constant):
            return [
                series.TruncatedSeries(
                    any_ring, n, d, random_terms(any_ring, n, d, rng, dense, unit_constant),
                    exact=rng.random() < 0.5,
                )
                for _ in range(2)
            ]

        a, b = series_pair(unit_constant=True)
        c, _ = series_pair(unit_constant=False)
        for job in (lambda: c / b, a.inv):
            assert_bounds(kernel_products(monkeypatch, "divide_keys", "division", job))
        assert_bounds(kernel_products(monkeypatch, "add_products", "product of", lambda: a.mul(c)))
        terms = random_terms(any_ring, n, d, rng, dense)
        terms.pop((0,) * n, None)
        coords = witt.WittCoordinates(any_ring, n, d, terms)
        x, y = element(), element()
        witt.witt_coordinates(x), witt.witt_coordinates(y)  # witt_mul reads them cached
        for job in (lambda: witt.from_coordinates(coords), lambda: witt.witt_mul(x, y)):
            assert_bounds(kernel_products(monkeypatch, "add_products", "binomials", job))
        peel = functools.partial(witt.witt_coordinates, element())
        log = kernel_products(monkeypatch, "divide_keys", "peel", peel)
        if log:  # a peel that divides nothing checks no meter
            assert_bounds(log, cumulative=True)
        if n == 1:
            job = functools.partial(ptypical.pi_epsilon_inverse, element())
            log = kernel_products(monkeypatch, "divide_keys", "division", job)
            if log:
                assert_bounds(log)
            family = ptypical.pi_epsilon_inverse(element())
            job = functools.partial(ptypical.pi_epsilon, family, any_ring, d)
            assert_bounds(kernel_products(monkeypatch, "add_products", "Artin-Hasse", job))
            D = rng.randrange(1, 8)
            f = {k: any_ring.random_raw(rng) for k in range(1, D + 1)} | {0: any_ring.one}
            g = {k: any_ring.random_raw(rng) for k in range(d) if dense or rng.random() < 0.3}
            job = functools.partial(duality._geometric_values, any_ring, f, D, g, d - 1)
            assert_bounds(norm_products(monkeypatch, any_ring, job))


def test_peel_meter_bounds_long_chains_in_two_variables(monkeypatch):
    """1 + t_2 + t_1 + .. + t_1^9 at n = 2, d = 10 first divides by a
    binomial in t_2, and a chain from each t_1^j makes 36 products in all:
    more than twice the 9 keys plus the d - 2 degrees the chains reach."""
    terms = {(0, 0): 1, (0, 1): 1} | {(j, 0): 1 for j in range(1, 10)}
    a = witt.WittElement(series.TruncatedSeries(F3, 2, 10, terms))
    log = kernel_products(monkeypatch, "divide_keys", "peel", lambda: witt.witt_coordinates(a))
    assert log[0][1] == 36
    assert_bounds(log, cumulative=True)

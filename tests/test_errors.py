"""The refusal policy of ``multiwitt.errors``: every work budget goes
through ``check_budget`` or ``check_power``, refuses before the work it
bounds starts, and names its estimate and its limit."""

import itertools
import random
import sys
import time

import pytest

from multiwitt import cft, cli, ptypical, ring, series, unipoly, witt
from multiwitt.errors import SchemaError, TooLarge, WittError, check_budget, check_power


def refuse(*_args, **_kwargs):
    raise AssertionError("the bounded work ran before its budget was checked")


F2 = ring.CoeffRing.make(2)
F3 = ring.CoeffRing.make(3)
# x^12 + x^3 + 1 is irreducible over F_2: only the size stops the field
X12 = (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)
RANK = cft._group_rank(20, 20)


def one_t_t2_inverse():
    # 1 + t + t^2 at d = 10^9: up to 10^9 quotient keys, 3 divisor terms
    return series.TruncatedSeries(F3, 1, 10**9, {(0,): 1, (1,): 1, (2,): 1}).inv()


def dense_coordinates():
    rng = random.Random(17)
    terms = {(k,): 1 for k in range(400) if k == 0 or rng.random() < 0.5}
    return witt.witt_coordinates(witt.WittElement(series.TruncatedSeries(F2, 1, 400, terms)))


def thousand_coordinates():
    # exponents 1 to 1,000 at d = 100,000: a dense product of about
    # 500,500 keys, refused before its first factor is multiplied in
    coords = {(k,): 2 if k % 2 else 1 for k in range(1, 1001)}
    return witt.from_coordinates(witt.WittCoordinates(F3, 1, 100000, coords))


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
        r"3 divisor terms may make 3000000000 pushes, beyond limit 1000000",
    ),
    "component family": (
        {"multiwitt.witt.primitive_exponents_below": refuse},
        lambda: witt.decompose(witt.WittElement.one(F3, 2, 10**9)).components,
        r"up to 500000000499999999 components, beyond limit 1000000",
    ),
    "binomial product": (
        {"multiwitt.witt.binomial_product": refuse},
        thousand_coordinates,
        r"a product of binomials at n = 1, d = 100000 may make 70186143 key updates, "
        r"beyond limit 10000000",
    ),
    "unit family": (
        {"multiwitt.witt.primitive_exponents_below": refuse},
        lambda: witt.ring_one(F3, 2, 10**9),
        r"up to 500000000499999999 components, beyond limit 1000000",
    ),
    "coordinate peel": (
        {"multiwitt.witt.divide_keys": refuse, "multiwitt.witt.PEEL_WORK_LIMIT": 100},
        dense_coordinates,
        r"n = 1, d = 400 reaches \d{3} key visits, beyond limit 100",
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
    "Artin-Hasse": (
        {"multiwitt.ptypical.artin_hasse_coefficients": refuse},
        lambda: ptypical.artin_hasse_exp(F2.from_raw(1), 1, 10**8),
        r"E\(x, t\^1\) at d = 100000000 needs 100000000 Artin-Hasse coefficients, "
        r"beyond limit 1000",
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

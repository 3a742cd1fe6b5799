import importlib.util
import io
import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from multiwitt.cli import main

F2_RING = '{"p":2,"e":1,"modulus":[0,1],"nil":1}'
R22_RING = '{"p":2,"e":1,"modulus":[0,1],"nil":2}'


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def series_doc(n, d, terms, exact=False):
    return {
        "n": n,
        "d": d,
        "exact": exact,
        "terms": [{"exp": list(e), "c": c} for e, c in terms],
    }


def test_pi1_command(capsys):
    code, doc = run_cli(capsys, ["pi1", "--n", "1", "--q", "2", "--d", "3"])
    assert code == 0
    assert doc == {"factors": [4], "order": 4}


def test_pi1_order_beyond_json_digit_limit_is_a_typed_error(capsys):
    # the order 2^37819 has 11,385 decimal digits; json.dumps converts no
    # integer of more than 4,300, and the job still ends in one JSON document
    code, doc = run_cli(capsys, ["pi1", "--n", "3", "--q", "2", "--d", "60"])
    assert code == 1
    assert doc["error"]["kind"] == "TooLarge"
    assert "11385 decimal digits" in doc["error"]["detail"]


def test_pi1_oracle_agrees(capsys):
    code, doc = run_cli(capsys, ["pi1", "--n", "1", "--q", "3", "--d", "3", "--oracle"])
    assert code == 0
    assert doc["agree"] and doc["oracle_factors"] == [3, 3]


def test_mul_identity_echoes_input(capsys):
    one = series_doc(1, 4, [((0,), [[1]]), ((1,), [[1]])])
    lam = series_doc(1, 4, [((0,), [[1]]), ((2,), [[1]])])
    payload = json.dumps({"a": lam, "b": one})
    code, doc = run_cli(
        capsys, ["mul", "--ring", F2_RING, "--payload", payload]
    )
    assert code == 0
    assert doc["result"]["terms"] == lam["terms"]


def test_mul_of_inexact_inputs_is_not_exact(capsys):
    lam = series_doc(1, 4, [((0,), [[1]]), ((2,), [[1]])])
    one = series_doc(1, 4, [((0,), [[1]]), ((1,), [[1]])])
    payload = json.dumps({"a": lam, "b": one})
    code, doc = run_cli(capsys, ["mul", "--ring", F2_RING, "--payload", payload])
    assert code == 0
    assert doc["result"]["exact"] is False


F5_RING = '{"p":5,"e":1,"modulus":[0,1],"nil":1}'


@pytest.mark.parametrize(
    "ring,d,one,c,exact",
    [(F5_RING, 4, [[1]], [[1]], False), (R22_RING, 3, [[1], [0]], [[0], [1]], True)],
    ids=["1+t-F5-d4", "1+eps*t-F2e2-d3"],
)
def test_neg_is_exact_only_when_the_inverse_is_a_polynomial(capsys, ring, d, one, c, exact):
    a = series_doc(1, d, [((0,), one), ((1,), c)], exact=True)
    code, doc = run_cli(capsys, ["neg", "--ring", ring, "--payload", json.dumps({"a": a})])
    assert code == 0
    assert doc["result"]["exact"] is exact


def test_add_and_neg_roundtrip(capsys):
    lam = series_doc(1, 4, [((0,), [[1]]), ((1,), [[1]]), ((3,), [[1]])])
    code, doc = run_cli(
        capsys, ["neg", "--ring", F2_RING, "--payload", json.dumps({"a": lam})]
    )
    assert code == 0
    payload = json.dumps({"a": lam, "b": doc["result"]})
    code, doc = run_cli(capsys, ["add", "--ring", F2_RING, "--payload", payload])
    assert code == 0
    assert doc["result"]["terms"] == [{"exp": [0], "c": [[1]]}]


def test_coords_from_coords_roundtrip(capsys):
    lam = series_doc(1, 4, [((0,), [[1]]), ((1,), [[1]]), ((2,), [[1]]), ((3,), [[1]])])
    code, doc = run_cli(
        capsys, ["coords", "--ring", F2_RING, "--payload", json.dumps({"a": lam})]
    )
    assert code == 0
    assert doc["result"]["coords"] == [
        {"exp": [1], "r": [[1]]},
        {"exp": [2], "r": [[1]]},
    ]
    code, doc = run_cli(
        capsys,
        [
            "from-coords",
            "--ring",
            F2_RING,
            "--n",
            "1",
            "--d",
            "4",
            "--payload",
            json.dumps(doc["result"]),
        ],
    )
    assert code == 0
    assert doc["result"]["terms"] == lam["terms"]


def test_coords_round_trip_in_a_box_too_large_to_walk(capsys):
    # n = 20, d = 20: the exponent box holds about 6.9e10 exponents, and
    # the conversions touch only the ones the element and its quotients have
    n, d = 20, 20
    exps = [[3] + [0] * 19, [0] * 5 + [1, 1] + [0] * 11 + [2, 0], [0, 1] * 10]
    lam = series_doc(n, d, [([0] * n, [[1]])] + [(e, [[1]]) for e in exps])
    code, doc = run_cli(capsys, ["coords", "--ring", F2_RING, "--payload", json.dumps({"a": lam})])
    assert code == 0
    peeled = [c["exp"] for c in doc["result"]["coords"]]
    assert peeled[:2] == exps[:2] and exps[2] in peeled
    argv = ["from-coords", "--ring", F2_RING, "--n", str(n), "--d", str(d)]
    code, doc = run_cli(capsys, argv + ["--payload", json.dumps(doc["result"])])
    assert code == 0
    assert doc["result"]["terms"] == lam["terms"]


def test_decompose_command(capsys):
    lam = series_doc(2, 5, [((0, 0), [[1]]), ((2, 2), [[1]])])
    code, doc = run_cli(
        capsys, ["decompose", "--ring", F2_RING, "--payload", json.dumps({"a": lam})]
    )
    assert code == 0
    comps = {tuple(c["nu"]): c["series"]["terms"] for c in doc["components"]}
    assert comps[(1, 1)] == [{"exp": [0], "c": [[1]]}, {"exp": [2], "c": [[1]]}]


def test_decompose_components_are_never_exact(capsys):
    # the input is known only below degree 3, so no component is a polynomial
    a = series_doc(2, 3, [((0, 0), [[1]]), ((1, 0), [[1]]), ((1, 1), [[1]])])
    code, doc = run_cli(
        capsys, ["decompose", "--ring", F2_RING, "--payload", json.dumps({"a": a})]
    )
    assert code == 0
    assert [c["nu"] for c in doc["components"]] == [[0, 1], [1, 0], [1, 1]]
    assert [c["series"]["exact"] for c in doc["components"]] == [False, False, False]


GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
F3_RING = '{"p":3,"e":1,"modulus":[0,1],"nil":1}'
F3E2_RING = '{"p":3,"e":1,"modulus":[0,1],"nil":2}'
F4E2_RING = '{"p":2,"e":2,"modulus":[1,1,1],"nil":2}'

# inputs in two and three variables, so the pinned bytes fix the graded
# order of their terms
A2 = series_doc(
    2, 4, [((0, 0), [[1]]), ((1, 0), [[2]]), ((0, 1), [[1]]), ((1, 1), [[2]]), ((0, 3), [[1]])]
)
B2 = series_doc(2, 4, [((0, 0), [[1]]), ((0, 1), [[2]]), ((2, 0), [[1]]), ((1, 2), [[1]])])
A3 = series_doc(
    3,
    4,
    [
        ((0, 0, 0), [[1], [0]]),
        ((1, 0, 0), [[0], [1]]),
        ((0, 1, 1), [[2], [1]]),
        ((0, 0, 2), [[1], [2]]),
    ],
)
C3 = series_doc(
    3, 5, [((0, 0, 0), [[1]]), ((0, 0, 1), [[1]]), ((1, 1, 0), [[1]]), ((2, 0, 1), [[1]])]
)
COORDS2 = {
    "coords": [{"exp": e, "r": r} for e, r in (([0, 1], [[2]]), ([2, 0], [[1]]), ([1, 2], [[2]]))]
}
F_N2 = series_doc(
    2,
    3,
    [((0, 0), [[1], [0]]), ((1, 0), [[0], [1]]), ((0, 1), [[0], [1]]), ((1, 1), [[0], [1]])],
    exact=True,
)
G_N2 = series_doc(2, 6, [(e, [[1]]) for e in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 4))])


@pytest.mark.parametrize(
    "name,ring,terms",
    [
        ("decompose_F2.json", F2_RING, [((0, 0), [[1]]), ((1, 0), [[1]]), ((2, 2), [[1]])]),
        (
            "decompose_F3e2.json",
            F3E2_RING,
            [((0, 0), [[1], [0]]), ((2, 0), [[0], [1]]), ((2, 2), [[1], [1]])],
        ),
    ],
)
def test_decompose_output_is_pinned(capsys, name, ring, terms):
    # every primitive exponent below d is listed, identities included, in
    # the order and bytes of tests/golden
    payload = json.dumps({"a": series_doc(2, 5, terms)})
    assert main(["decompose", "--ring", ring, "--payload", payload]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "name,argv",
    [
        # 1,024 elements, 2,000 sampled commutativity pairs
        ("pi1_n2_q4_d3_oracle.json", ["pi1", "--n", "2", "--q", "4", "--d", "3", "--oracle"]),
        # 256 elements: all 65,536 pairs are covered by the endomorphism
        # proof, and the seed changes no byte
        (
            "lang_census_sampled.json",
            ["lang-census", "--n", "1", "--q", "2", "--s", "2", "--d", "5", "--seed", "7"],
        ),
        # 16 elements, every one of the 256 pairs checked
        (
            "lang_census_exhaustive.json",
            ["lang-census", "--n", "1", "--q", "2", "--s", "2", "--d", "3"],
        ),
        ("add_F3_n2.json", ["add", "--ring", F3_RING, "--payload", json.dumps({"a": A2, "b": B2})]),
        ("mul_F3_n2.json", ["mul", "--ring", F3_RING, "--payload", json.dumps({"a": A2, "b": B2})]),
        ("neg_F3e2_n3.json", ["neg", "--ring", F3E2_RING, "--payload", json.dumps({"a": A3})]),
        ("coords_F2_n3.json", ["coords", "--ring", F2_RING, "--payload", json.dumps({"a": C3})]),
        (
            "from_coords_F3_n2.json",
            ["from-coords", "--ring", F3_RING, "--n", "2", "--d", "5"]
            + ["--payload", json.dumps(COORDS2)],
        ),
        (
            "ah_exp_F4e2.json",
            ["ah-exp", "--ring", F4E2_RING, "--d", "12"]
            + ["--payload", '{"x": [[1, 0], [1, 1]], "j": 2}'],
        ),
        (
            "pair_both_F3e2_n2.json",
            ["pair", "--both", "--ring", F3E2_RING, "--m", "2"]
            + ["--payload", json.dumps({"f": F_N2, "g": G_N2})],
        ),
        # 128 elements, every commutativity pair checked
        ("pi1_n1_q2_d8_oracle.json", ["pi1", "--n", "1", "--q", "2", "--d", "8", "--oracle"]),
    ],
)
def test_cft_output_is_pinned(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_ah_exp_command(capsys):
    code, doc = run_cli(
        capsys,
        ["ah-exp", "--ring", F2_RING, "--d", "3", "--payload", '{"x": [[1]], "j": 1}'],
    )
    assert code == 0
    assert doc["result"]["terms"] == [
        {"exp": [0], "c": [[1]]},
        {"exp": [1], "c": [[1]]},
        {"exp": [2], "c": [[1]]},
    ]


def test_ah_exp_of_a_nilpotent_counts_only_its_nonzero_powers(capsys):
    """E(eps, t^3) over F_2[eps]/(eps^2) at d = 3,100 is 1 + eps t^3: eps^2
    = 0, so it needs 2 Artin-Hasse coefficients, not (d - 1) // 3 + 1."""
    code, doc = run_cli(
        capsys,
        ["ah-exp", "--ring", R22_RING, "--d", "3100", "--payload", '{"x": [[0], [1]], "j": 3}'],
    )
    assert code == 0
    assert doc["result"]["terms"] == [
        {"exp": [0], "c": [[1], [0]]},
        {"exp": [3], "c": [[0], [1]]},
    ]


def test_pair_both_agree(capsys):
    f = series_doc(1, 2, [((0,), [[1], [0]]), ((1,), [[0], [1]])], exact=True)
    g = series_doc(1, 5, [((0,), [[1]]), ((1,), [[1]])])
    payload = json.dumps({"f": f, "g": g})
    code, doc = run_cli(capsys, ["pair", "--both", "--ring", R22_RING, "--payload", payload])
    assert code == 0
    assert doc["agree"] is True
    assert doc["algebraic"] == [[1], [1]]  # 1 + eps
    assert doc["algebraic"] == doc["geometric"]


def test_pair_takes_its_rings_from_the_ring_cache(capsys, monkeypatch):
    """The --ring ring and g's base field are the objects CoeffRing.make
    returns, not directly constructed copies."""
    from multiwitt import CoeffRing

    def direct(*_):
        raise AssertionError("a ring was constructed outside CoeffRing.make")

    monkeypatch.setattr(CoeffRing, "__init__", direct)
    f = series_doc(1, 2, [((0,), [[1], [0]]), ((1,), [[0], [1]])], exact=True)
    g = series_doc(1, 5, [((0,), [[1]]), ((1,), [[1]])])
    payload = json.dumps({"f": f, "g": g})
    code, doc = run_cli(capsys, ["pair", "--both", "--ring", R22_RING, "--payload", payload])
    assert code == 0 and doc["agree"] is True


def test_pair_single_routes(capsys):
    f = series_doc(1, 3, [((0,), [[1], [0]]), ((2,), [[0], [1]])], exact=True)
    g = series_doc(1, 5, [((0,), [[1]]), ((1,), [[1]])])
    payload = json.dumps({"f": f, "g": g})
    code, doc = run_cli(
        capsys, ["pair", "--algebraic", "--ring", R22_RING, "--payload", payload]
    )
    assert code == 0 and "geometric" not in doc
    code, doc2 = run_cli(
        capsys, ["pair", "--geometric", "--ring", R22_RING, "--payload", payload]
    )
    assert code == 0 and doc2["geometric"] == doc["algebraic"]


@pytest.mark.parametrize("route,level", [("algebraic", "--d"), ("geometric", "--m")])
def test_pair_without_a_level_refuses_g_short_of_the_conductor(capsys, route, level):
    """f = 1 + eps t^3 has conductor 4: g at d = 3 misses its coordinate
    of degree 3, so each route refuses without a level; at the explicit
    level 2 it answers 1 + eps, from g's coordinate 1 at t."""
    f = series_doc(1, 4, [((0,), [[1], [0]]), ((3,), [[0], [1]])], exact=True)
    g = series_doc(1, 3, [((0,), [[1]]), ((1,), [[1]])])
    payload = json.dumps({"f": f, "g": g})
    argv = ["pair", f"--{route}", "--ring", R22_RING, "--payload", payload]
    code, doc = run_cli(capsys, argv)
    assert (code, doc["error"]["kind"]) == (1, "UnstableTruncation")
    assert "C(f) = 4" in doc["error"]["detail"] and "g.d = 3" in doc["error"]["detail"]
    code, doc = run_cli(capsys, argv + [level, "2"])
    assert code == 0 and doc == {route: [[1], [1]]}


def test_pair_geometric_at_m_of_a_billion(capsys):
    """g = 1 - t at d = 10^9 + 1 against f = 1 + eps t + eps^2 t^2 + eps t^4
    over F_3[eps]/(eps^3): the walk stops at C(f) = 9, so the geometric
    route answers at m = 10^9, in process and in a fresh process, with
    the algebraic route's value."""
    ring = '{"p":3,"e":1,"modulus":[0,1],"nil":3}'
    eps, eps2 = [[0], [1], [0]], [[0], [0], [1]]
    f = series_doc(1, 5, [((0,), [[1], [0], [0]]), ((1,), eps), ((2,), eps2), ((4,), eps)], exact=True)
    g = series_doc(1, 10**9 + 1, [((0,), [[1]]), ((1,), [[2]])], exact=True)
    argv = ["pair", "--both", "--ring", ring, "--m", str(10**9), "--payload", json.dumps({"f": f, "g": g})]
    code, doc = run_cli(capsys, argv)
    assert (code, doc) == (0, {"algebraic": [[1], [2], [1]], "geometric": [[1], [2], [1]], "agree": True})
    proc = subprocess.run([sys.executable, "-m", "multiwitt.cli"] + argv, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0 and json.loads(proc.stdout) == doc


def test_pair_both_exits_2_when_the_routes_disagree(capsys, monkeypatch):
    f = series_doc(1, 2, [((0,), [[1], [0]]), ((1,), [[0], [1]])], exact=True)
    g = series_doc(1, 5, [((0,), [[1]]), ((1,), [[1]])])
    payload = json.dumps({"f": f, "g": g})
    monkeypatch.setattr("multiwitt.duality.geometric_pair", lambda f, g, m: f.ring.from_raw(1))
    code, doc = run_cli(capsys, ["pair", "--both", "--ring", R22_RING, "--payload", payload])
    assert code == 2
    assert doc == {"algebraic": [[1], [1]], "geometric": [[1], [0]], "agree": False}


def test_pi1_oracle_exits_2_when_it_disagrees(capsys, monkeypatch):
    from multiwitt.cft import AbelianGroupStructure

    wrong = AbelianGroupStructure((9,), 9)
    monkeypatch.setattr("multiwitt.cft.witt_group_structure_brute", lambda ring, n, d: wrong)
    code, doc = run_cli(capsys, ["pi1", "--n", "1", "--q", "3", "--d", "3", "--oracle"])
    assert code == 2
    assert doc == {"factors": [3, 3], "order": 9, "oracle_factors": [9], "agree": False}


def test_lang_census_command(capsys):
    code, doc = run_cli(
        capsys, ["lang-census", "--n", "1", "--q", "2", "--s", "2", "--d", "3"]
    )
    assert code == 0
    assert doc["total"] == 16 and doc["kernel"] == 4 and doc["matches"]


def test_oversized_census_rejected_quickly():
    # the group has 4^68923264409 elements; the bound is checked before
    # the exponent box is built, so the job ends in well under the timeout
    cmd = [sys.executable, "-m", "multiwitt.cli", "lang-census"]
    cmd += ["--n", "20", "--q", "2", "--s", "2", "--d", "20"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "TooLarge"


@pytest.mark.parametrize(
    "argv",
    [
        # up to 68,923,264,409 generators, counted before the exponent box is built
        ["pi1", "--n", "20", "--q", "2", "--d", "20"],
        # q^s = 2^100000: bounded before the prime is found or a modulus searched for
        ["lang-census", "--n", "1", "--q", "2", "--s", "100000", "--d", "2"],
        # exponents of 10^9 entries and keys below (10^9)^(10^9), bounded
        # before the first is built
        [
            "from-coords",
            "--ring",
            F2_RING,
            "--n",
            "1000000000",
            "--d",
            "1000000000",
            "--payload",
            '{"coords": []}',
        ],
        # 10^8 Artin-Hasse coefficients, counted before the first is built
        ["ah-exp", "--ring", F2_RING, "--d", "100000000", "--payload", '{"x": [[1]]}'],
        # the geometric norms of 1 + eps t^220 at m = 10^7 - 1, walked to
        # the conductor 56, may make 10,769,440 steps, estimated before g'
        # is reduced
        [
            "pair",
            "--geometric",
            "--ring",
            R22_RING,
            "--payload",
            json.dumps(
                {
                    "f": series_doc(1, 221, [((0,), [[1], [0]]), ((220,), [[0], [1]])], exact=True),
                    "g": series_doc(1, 10**7, [((0,), [[1]]), ((1,), [[1]])]),
                }
            ),
        ],
    ],
)
def test_oversized_job_rejected_quickly(argv):
    cmd = [sys.executable, "-m", "multiwitt.cli"] + argv
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "TooLarge"


F3_RING = '{"p":3,"e":1,"modulus":[0,1],"nil":1}'
ONE_T_T2 = [((0,), [[1]]), ((1,), [[1]]), ((2,), [[1]])]


@pytest.mark.parametrize("command", ["neg", "coords", "decompose"])
def test_division_output_bounded_before_work(capsys, command):
    """1 + t + t^2 at n = 1, d = 10^9: up to 10^9 quotient keys, each
    pushed to the divisor's terms (3 for neg, a binomial's 2 for the
    peel), past errors.WORK_LIMIT steps, so TooLarge names the estimate at
    once; at d = 200,000 the same jobs run (test_division_jobs_at_d_200000)."""
    payload = json.dumps({"a": series_doc(1, 10**9, ONE_T_T2)})
    start = time.perf_counter()
    code, doc = run_cli(capsys, [command, "--ring", F3_RING, "--payload", payload])
    assert time.perf_counter() - start < 1.0
    assert (code, doc["error"]["kind"]) == (1, "TooLarge")
    steps = (3 if command == "neg" else 2) * (10**9 + 1)
    assert doc["error"]["detail"].endswith(f"may make {steps} steps, beyond limit 10000000")


@pytest.mark.parametrize("n", [1, 2])
def test_identity_jobs_at_d_1e9(capsys, n):
    """The identity 1 at d = 10^9: no divisor term but the constant and no
    coordinate, so neg and coords answer at once; decompose answers with
    its one component in one variable and, in two, names the size of the
    whole family, about 5 * 10^17 components."""
    payload = json.dumps({"a": series_doc(n, 10**9, [((0,) * n, [[1]])])})
    one = series_doc(n, 10**9, [((0,) * n, [[1]])])
    for command in ("neg", "coords", "decompose"):
        start = time.perf_counter()
        code, doc = run_cli(capsys, [command, "--ring", F3_RING, "--payload", payload])
        assert time.perf_counter() - start < 1.0, command
        if command == "neg":
            assert (code, doc) == (0, {"result": one})
        elif command == "coords":
            assert (code, doc) == (0, {"result": {"coords": []}})
        elif n == 1:
            comp = series_doc(1, 10**9, [((0,), [[1]])])
            assert (code, doc) == (0, {"components": [{"nu": [1], "series": comp}]})
        else:
            assert (code, doc["error"]["kind"]) == (1, "TooLarge")
            assert "up to 500000000499999999 components" in doc["error"]["detail"]


def test_dense_peel_stops_at_its_work_limit(capsys, monkeypatch):
    """A dense element has about one coordinate per degree, and each one
    divides the whole quotient: past WORK_LIMIT steps the peel driver,
    ``series.peel_keys``, stops with TooLarge.  Here the limit is lowered
    so that the job ends early; the same element converts under the real
    limit."""
    from multiwitt import series

    bits = random.Random(17)
    terms = [((0,), [[1]])] + [((k,), [[1]]) for k in range(1, 400) if bits.random() < 0.5]
    payload = json.dumps({"a": series_doc(1, 400, terms)})
    code, doc = run_cli(capsys, ["coords", "--ring", F2_RING, "--payload", payload])
    assert code == 0 and len(doc["result"]["coords"]) > 100
    monkeypatch.setattr(series, "WORK_LIMIT", 10_000)
    for command in ("coords", "decompose"):
        code, doc = run_cli(capsys, [command, "--ring", F2_RING, "--payload", payload])
        assert (code, doc["error"]["kind"]) == (1, "TooLarge")
        assert re.search(r"reaches \d+ steps, beyond limit 10000$", doc["error"]["detail"])


def test_division_jobs_at_d_200000(capsys):
    """neg and coords of 1 + t + t^2 = (1 - t^3) / (1 - t) over F_3 at
    d = 200,000: the inverse (1 - t) / (1 - t^3) repeats 1, 2, 0, and the
    coordinates are 2 at every power of 2 below d and 1 at t^3."""
    payload = json.dumps({"a": series_doc(1, 200_000, ONE_T_T2)})
    code, doc = run_cli(capsys, ["neg", "--ring", F3_RING, "--payload", payload])
    terms = doc["result"]["terms"]
    assert code == 0 and len(terms) == 133_334
    assert all(t["c"] == [[(1, 2, 0)[t["exp"][0] % 3]]] for t in terms)
    code, doc = run_cli(capsys, ["coords", "--ring", F3_RING, "--payload", payload])
    got = {c["exp"][0]: c["r"][0][0] for c in doc["result"]["coords"]}
    assert code == 0 and got == {**{2**k: 2 for k in range(18)}, 3: 1}


def test_dense_add_refused_before_work(capsys):
    """add of two dense series over F_3 at n = 1, d = 4,000: 3,163 terms
    by 3,163 make 10,004,569 term pairs, one step each, past
    errors.WORK_LIMIT, refused before the first is formed."""
    dense = series_doc(1, 4000, [((k,), [[1]]) for k in range(3163)])
    payload = json.dumps({"a": dense, "b": dense})
    start = time.perf_counter()
    code, doc = run_cli(capsys, ["add", "--ring", F3_RING, "--payload", payload])
    assert time.perf_counter() - start < 1.0
    assert (code, doc["error"]["kind"]) == (1, "TooLarge")
    assert doc["error"]["detail"] == (
        "a product of 3163 by 3163 terms may make 10004569 steps, beyond limit 10000000"
    )


def test_thousand_coordinate_product_refused_before_work(capsys):
    """from-coords of 1,000 coordinates over F_3 at n = 1, d = 100,000: the
    product's steps are estimated from its factors and refused before the
    first one is multiplied in."""
    coords = [{"exp": [k], "r": [[2 if k % 2 else 1]]} for k in range(1, 1001)]
    argv = ["from-coords", "--ring", F3_RING, "--n", "1", "--d", "100000"]
    start = time.perf_counter()
    code, doc = run_cli(capsys, argv + ["--payload", json.dumps({"coords": coords})])
    assert time.perf_counter() - start < 1.0
    assert (code, doc["error"]["kind"]) == (1, "TooLarge")
    assert doc["error"]["detail"] == (
        "a product of binomials at n = 1, d = 100000 may make 70186143 steps, "
        "beyond limit 10000000"
    )


def test_selftest_command(capsys):
    code, doc = run_cli(capsys, ["selftest", "--suite", "ring", "--seed", "7"])
    assert code == 0
    assert doc["failed"] == 0 and doc["passed"] >= 4
    code, doc = run_cli(capsys, ["selftest", "--suite", "ptypical", "--seed", "7"])
    assert code == 0 and doc["failed"] == 0
    assert "lifted_ring_laws" in {c["name"] for c in doc["checks"]}


@pytest.mark.parametrize("seed", [0, 1])
def test_selftest_runs_every_check(capsys, seed):
    """Suite ``all`` at CI's two seeds: 23 distinct checks, every one passes."""
    code, doc = run_cli(capsys, ["selftest", "--suite", "all", "--seed", str(seed)])
    names = [c["name"] for c in doc["checks"]]
    assert code == 0 and (doc["passed"], doc["failed"], doc["seed"]) == (23, 0, seed)
    assert len(set(names)) == len(names) == 23 and all(c["ok"] for c in doc["checks"])


@pytest.mark.parametrize("digit", [7, 2])
def test_out_of_range_digit_rejected(capsys, digit):
    a = series_doc(1, 4, [((0,), [[1]]), ((1,), [[digit]])])
    code, doc = run_cli(capsys, ["coords", "--ring", F2_RING, "--payload", json.dumps({"a": a})])
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError"


@pytest.mark.parametrize(
    "ring,c",
    [
        (F5_RING, [1]),
        (F5_RING, [[5]]),
        (F5_RING, [[-1]]),
        (F5_RING, [[]]),
        (F5_RING, [[1, 0]]),
        (F5_RING, []),
        (F5_RING, [[1], [0]]),
        (F5_RING, 3),
        (F5_RING, [None]),
        (R22_RING, [[1]]),
    ],
    ids=["flat", "digit-5", "digit-negative", "empty-row", "long-row", "no-rows", "extra-row",
         "scalar", "null-row", "missing-row"],
)
def test_malformed_coefficient_is_schema_error(capsys, ring, c):
    a = series_doc(1, 3, [((0,), [[1]] if ring == F5_RING else [[1], [0]]), ((1,), c)])
    code, doc = run_cli(capsys, ["neg", "--ring", ring, "--payload", json.dumps({"a": a})])
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError"


@pytest.mark.parametrize(
    "command,payload",
    [
        ("neg", {"a": series_doc(1, 4, [((0,), [[1]]), ((-1,), [[1]])])}),
        ("coords", {"a": series_doc(1, 4, [((0,), [[1]]), ((1,), [[1]]), ((1,), [[0]])])}),
        ("from-coords", {"coords": [{"exp": [-1], "r": [[1]]}]}),
        ("from-coords", {"coords": [{"exp": [1], "r": [[1]]}, {"exp": [1], "r": [[0]]}]}),
    ],
)
def test_negative_or_repeated_exponent_rejected(capsys, command, payload):
    argv = [command, "--ring", F2_RING, "--payload", json.dumps(payload)]
    if command == "from-coords":
        argv += ["--n", "1", "--d", "4"]
    code, doc = run_cli(capsys, argv)
    assert code == 1
    assert doc["error"]["kind"] == "ShapeMismatch"


@pytest.mark.parametrize("exp", [[5], [1, 1], [0]])
def test_coordinate_outside_window_rejected(capsys, exp):
    payload = {"coords": [{"exp": exp, "r": [[1]]}]}
    argv = ["from-coords", "--ring", F2_RING, "--n", "1", "--d", "4"]
    code, doc = run_cli(capsys, argv + ["--payload", json.dumps(payload)])
    assert code == 1
    assert doc["error"]["kind"] == "ShapeMismatch"
    assert "0 < |nu| < 4" in doc["error"]["detail"]


@pytest.mark.parametrize(
    "command,payload",
    [
        ("neg", {"a": series_doc(1, 3, [((0,), [[1]]), ((5, 7), [[0]])])}),
        ("neg", {"a": series_doc(1, 3, [((0,), [[1]]), ((9,), [[0]])])}),
        ("from-coords", {"coords": [{"exp": [9], "r": [[0]]}]}),
    ],
    ids=["series-arity", "series-window", "coords-window"],
)
def test_zero_term_at_malformed_exponent_rejected(capsys, command, payload):
    # the exponent is checked before its zero coefficient is dropped
    argv = [command, "--ring", F2_RING, "--payload", json.dumps(payload)]
    if command == "from-coords":
        argv += ["--n", "1", "--d", "3"]
    code, doc = run_cli(capsys, argv)
    assert code == 1
    assert doc["error"]["kind"] == "ShapeMismatch"


def test_ring_beyond_table_bound_rejected(capsys):
    ring = '{"p":2,"e":1,"modulus":[0,1],"nil":12}'
    payload = {"a": series_doc(1, 2, [((0,), [[1]] * 12)])}
    code, doc = run_cli(capsys, ["neg", "--ring", ring, "--payload", json.dumps(payload)])
    assert code == 1
    assert doc["error"]["kind"] == "TooLarge"
    assert doc["error"]["detail"] == "ring has q^nil = 4096 elements, beyond limit 2048"


def test_field_beyond_table_bound_rejected(capsys):
    # x^12 + x^3 + 1 is irreducible over F_2, so only the size stops it
    ring = '{"p":2,"e":12,"modulus":[1,0,0,1,0,0,0,0,0,0,0,0,1],"nil":1}'
    payload = '{"a":{"n":1,"d":2,"terms":[]}}'
    code, doc = run_cli(capsys, ["neg", "--ring", ring, "--payload", payload])
    assert code == 1
    assert doc["error"]["kind"] == "TooLarge"
    assert doc["error"]["detail"] == "field has q = p^e = 4096 elements, beyond limit 2048"


def test_input_error_exit_code(capsys):
    code, doc = run_cli(capsys, ["mul", "--ring", F2_RING, "--payload", '{"a": 1}'])
    assert code == 1
    assert "error" in doc


def test_bad_json_payload(capsys, monkeypatch):
    code, doc = run_cli(capsys, ["mul", "--ring", F2_RING, "--payload", "{oops"])
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError"
    assert doc["error"]["detail"].startswith("payload is not JSON")
    monkeypatch.setattr("sys.stdin", io.StringIO("[1, 2"))
    code, doc = run_cli(capsys, ["neg", "--ring", F2_RING, "--payload", "-"])
    assert (code, doc["error"]["kind"]) == (1, "SchemaError")
    code, doc = run_cli(capsys, ["neg", "--ring", "{'p': 2}", "--payload", '{"a": {}}'])
    assert (code, doc["error"]["kind"]) == (1, "SchemaError")
    assert doc["error"]["detail"].startswith("--ring is not JSON")


def test_bad_ring_error(capsys):
    code, doc = run_cli(
        capsys,
        ["coords", "--ring", '{"p":4,"e":1,"modulus":[0,1]}', "--payload", '{"a": {}}'],
    )
    assert code == 1


def test_deterministic_output():
    cmd = [sys.executable, "-m", "multiwitt.cli", "pi1", "--n", "2", "--q", "2", "--d", "3"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0 and a.stdout == b.stdout
    assert a.stdout.endswith("\n")


def test_stdin_payload():
    lam = series_doc(1, 3, [((0,), [[1]]), ((1,), [[1]])])
    payload = json.dumps({"a": lam})
    cmd = [
        sys.executable,
        "-m",
        "multiwitt.cli",
        "coords",
        "--ring",
        F2_RING,
        "--payload",
        "-",
    ]
    proc = subprocess.run(cmd, input=payload, capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["coords"] == [{"exp": [1], "r": [[1]]}]


def test_version_flag():
    from multiwitt import __version__

    cmd = [sys.executable, "-m", "multiwitt.cli", "--version"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "schema 1" in proc.stdout
    assert f"multiwitt {__version__} " in proc.stdout


def test_every_export_resolves():
    """Each name of ``multiwitt.__all__`` is fetched from its module by the
    package's lazy ``__getattr__`` and listed by ``dir``."""
    import multiwitt

    assert multiwitt.__all__ == sorted(set(multiwitt.__all__))
    listed = dir(multiwitt)
    for name in multiwitt.__all__:
        value = multiwitt.__getattr__(name)
        assert value.__name__ == name and getattr(multiwitt, name) is value
        assert name in listed
    with pytest.raises(AttributeError, match="'FiniteField'"):
        multiwitt.__getattr__("FiniteField")


ONE_PLUS_T = series_doc(1, 4, [((0,), [[1]]), ((1,), [[1]])])
NEG_PAYLOAD = json.dumps({"a": ONE_PLUS_T})
PAIR_PAYLOAD = json.dumps(
    {
        "f": series_doc(1, 2, [((0,), [[1], [0]]), ((1,), [[0], [1]])], exact=True),
        "g": series_doc(1, 5, [((0,), [[1]]), ((1,), [[1]])]),
    }
)

# a valid job per command, and the flags it cannot do without
FULL_JOBS = {
    "add": (["--ring", F2_RING, "--payload", json.dumps({"a": ONE_PLUS_T, "b": ONE_PLUS_T})], ("ring",)),
    "neg": (["--ring", F2_RING, "--payload", NEG_PAYLOAD], ("ring",)),
    "mul": (["--ring", F2_RING, "--payload", json.dumps({"a": ONE_PLUS_T, "b": ONE_PLUS_T})], ("ring",)),
    "coords": (["--ring", F2_RING, "--payload", NEG_PAYLOAD], ("ring",)),
    "decompose": (["--ring", F2_RING, "--payload", NEG_PAYLOAD], ("ring",)),
    "from-coords": (
        ["--ring", F2_RING, "--n", "1", "--d", "4", "--payload", '{"coords": []}'],
        ("ring", "n", "d"),
    ),
    "ah-exp": (["--ring", F2_RING, "--d", "4", "--payload", '{"x": [[1]]}'], ("ring", "d")),
    "pair": (["--ring", R22_RING, "--payload", PAIR_PAYLOAD], ("ring",)),
    "pi1": (["--n", "1", "--q", "2", "--d", "3"], ("n", "q", "d")),
    "lang-census": (["--n", "1", "--q", "2", "--s", "2", "--d", "3"], ("n", "q", "s", "d")),
}


@pytest.mark.parametrize("command", sorted(FULL_JOBS))
def test_full_jobs_run(capsys, command):
    code, doc = run_cli(capsys, [command] + FULL_JOBS[command][0])
    assert code == 0 and "error" not in doc


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c in sorted(FULL_JOBS) for f in FULL_JOBS[c][1]]
)
def test_missing_required_flag_is_a_schema_error(capsys, command, flag):
    argv = FULL_JOBS[command][0]
    k = argv.index(f"--{flag}")
    code, doc = run_cli(capsys, [command] + argv[:k] + argv[k + 2 :])
    assert code == 1
    assert doc["error"] == {
        "kind": "SchemaError",
        "detail": f"the following arguments are required: --{flag}",
    }


@pytest.mark.parametrize(
    "argv, detail",
    [
        ([], "the following arguments are required: command"),
        (["foo"], "argument command: invalid choice: 'foo'"),
        (["foo", "--n", "1"], "argument command: invalid choice: 'foo'"),
        (["--seed", "1", "pi1", "--n", "1", "--q", "2", "--d", "3"], "argument command: invalid choice: '1'"),
        (["--", "pi1"], "the command must be the first argument"),
        (["pi1", "--n", "1", "--q", "2", "--d", "3", "--version"], "unrecognized arguments: --version"),
        (["selftest", "--payload", "{}"], "unrecognized arguments: --payload {}"),
    ],
    ids=[
        "missing", "unknown", "unknown-with-flags", "flag-first", "separator-first",
        "version-after-command", "selftest-payload",
    ],
)
def test_command_line_without_a_leading_command_is_a_schema_error(capsys, argv, detail):
    code, doc = run_cli(capsys, argv)
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError" and doc["error"]["detail"].startswith(detail)


@pytest.mark.parametrize(
    "argv",
    [
        ["neg", "--ring", '{"p":2,"e":1}'],
        ["neg", "--ring", '{"p":"2","e":1,"modulus":[0,1]}'],
        ["neg", "--ring", '{"p":2,"e":1,"modulus":[0,1],"nil":0}'],
        ["neg", "--ring", "3"],
        ["neg", "--ring", '{"p":2,"e":1,"modulus":[0,true]}'],
        ["neg", "--ring", '{"p":2,"e":1,"modulus":"01"}'],
        ["neg", "--ring", '{"p":2,"e":0,"modulus":[1]}'],
        ["neg", "--ring", '{"p":1,"e":1,"modulus":[0,1]}'],
        ["neg", "--ring", '{"p":2,"e":1,"modulus":[0,1],"x":1}'],
        ["pi1", "--n", "1", "--q", "1", "--d", "3"],
        ["pi1", "--n", "0", "--q", "2", "--d", "3"],
        ["lang-census", "--n", "1", "--q", "2", "--s", "0", "--d", "3"],
        ["from-coords", "--ring", F2_RING, "--n", "1", "--d", "0", "--payload", '{"coords":[]}'],
        ["pair", "--ring", R22_RING, "--m", "0", "--payload", PAIR_PAYLOAD],
    ],
    ids=[
        "no-modulus", "string-p", "nil-0", "ring-3", "bool-modulus", "string-modulus", "e-0",
        "p-1", "extra-key", "pi1-q-1", "pi1-n-0", "census-s-0", "from-coords-d-0", "pair-m-0",
    ],
)
def test_envelope_errors_are_schema_errors(capsys, argv):
    if argv[0] == "neg":
        argv = argv + ["--payload", NEG_PAYLOAD]
    code, doc = run_cli(capsys, argv)
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError"


def neg_of(series):
    return ["neg", "--ring", F2_RING, "--payload", json.dumps({"a": series})]


def from_coords_of(payload):
    return ["from-coords", "--ring", F2_RING, "--n", "1", "--d", "4", "--payload", payload]


LONG_INT = "9" * 5000
LIMITED_INTS = hasattr(sys, "get_int_max_str_digits")


@pytest.mark.parametrize(
    "argv, detail",
    [
        (neg_of({"n": 0, "d": 3, "terms": []}), "need n >= 1 and d >= 1"),
        (["neg", "--ring", '{"p":4,"e":1,"modulus":[0,1]}'], "4 is not prime"),
        (["neg", "--ring", '{"p":2,"e":2,"modulus":[0,0,1]}'], "modulus has root 0 mod 2"),
        (["pi1", "--n", "1", "--q", "6", "--d", "3"], "6 is not a prime power"),
        (
            ["ah-exp", "--ring", F2_RING, "--d", "4", "--payload", '{"x":[[1]],"j":0}'],
            "exponent j must be >= 1",
        ),
        pytest.param(
            ["neg", "--ring", F2_RING, "--payload", '{"a":{"n":' + LONG_INT + "}}"],
            "payload is not JSON: Exceeds the limit",
            marks=pytest.mark.skipif(not LIMITED_INTS, reason="no integer digit limit"),
        ),
        (["neg", "--ring", F2_RING, "--payload", "[" * 100_000], "payload is not JSON"),
        (["selftest", "--suite", "nope"], "unknown suite 'nope'"),
        (neg_of({"n": 1, "d": 3, "terms": 5}), "series terms must be a JSON list, got 5"),
        (neg_of({"n": 1, "d": 3, "terms": [{"exp": 5, "c": [[1]]}]}), "exponent must be"),
        (from_coords_of('{"coords":5}'), "coordinates must be a JSON list, got 5"),
        (from_coords_of('{"coords":[{"exp":7,"r":[[1]]}]}'), "exponent must be a JSON list"),
    ],
    ids=[
        "series-n-0", "p-4", "modulus-root", "pi1-q-6", "ah-exp-j-0", "long-int",
        "deep-nesting", "unknown-suite", "terms-5", "exp-5", "coords-5", "coords-exp-7",
    ],
)
def test_library_validation_reached_by_the_cli_is_a_schema_error(capsys, argv, detail):
    if argv[0] == "neg" and "--payload" not in argv:
        argv = argv + ["--payload", NEG_PAYLOAD]
    code, doc = run_cli(capsys, argv)
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError" and detail in doc["error"]["detail"]


CONST = [{"exp": [0], "c": [[1]]}]


@pytest.mark.parametrize(
    "argv",
    [
        ["neg", "--ring", F2_RING, "--payload", json.dumps({"a": dict(ONE_PLUS_T, exact="false")})],
        ["neg", "--ring", F2_RING, "--payload", json.dumps({"a": dict(ONE_PLUS_T, n="1")})],
        ["neg", "--ring", F2_RING, "--payload", json.dumps({"a": dict(ONE_PLUS_T, d=4.9)})],
        [
            "coords",
            "--ring",
            F2_RING,
            "--payload",
            json.dumps({"a": dict(ONE_PLUS_T, terms=CONST + [{"exp": [1.7], "c": [[1]]}])}),
        ],
        [
            "coords",
            "--ring",
            F2_RING,
            "--payload",
            json.dumps({"a": dict(ONE_PLUS_T, terms=CONST + [{"exp": [True], "c": [[1]]}])}),
        ],
        [
            "coords",
            "--ring",
            F2_RING,
            "--payload",
            json.dumps({"a": dict(ONE_PLUS_T, terms=CONST + [{"exp": [1], "c": [[1.0]]}])}),
        ],
        ["ah-exp", "--ring", F2_RING, "--d", "3", "--payload", '{"x": [[1]], "j": 2.5}'],
        ["neg", "--ring", '{"p":2,"e":1,"modulus":[0,1],"nil":1.0}', "--payload", NEG_PAYLOAD],
        ["neg", "--ring", '{"p":2.0,"e":1,"modulus":[0,1]}', "--payload", NEG_PAYLOAD],
        ["pi1", "--n", "x", "--q", "2", "--d", "3"],
        ["pi1", "--n", "1", "--q", "2", "--d", "3", "--bogus"],
    ],
    ids=[
        "exact-string", "n-string", "d-float", "exp-float", "exp-bool", "digit-float", "j-float",
        "nil-float", "p-float", "pi1-n-x", "unknown-flag",
    ],
)
def test_malformed_input_not_coerced(capsys, argv):
    code, doc = run_cli(capsys, argv)
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError"


# the job mix of the cli_spawn benchmark workload, with pi1 --oracle and
# pair --algebraic, and the self-test that certifies the geometric norm
# without a resultant; each with the library modules it runs besides cli
# and errors, exactly
_COORDS = json.dumps({"coords": [{"exp": [1, 0], "r": [[1]]}, {"exp": [1, 2], "r": [[1]]}]})
_PAIRING = {"ring", "series", "witt", "duality"}
_CENSUS = {"ring", "series", "dense", "cft"}
_WITT = {"ring", "series", "witt"}
CLI_JOBS = [
    (["pi1", "--n", "1", "--q", "2", "--d", "3"], {"cft"}),
    (["pi1", "--n", "2", "--q", "4", "--d", "3", "--oracle"], _CENSUS),
    (["pair", "--both", "--ring", R22_RING, "--payload", PAIR_PAYLOAD], _PAIRING),
    (["pair", "--algebraic", "--ring", R22_RING, "--payload", PAIR_PAYLOAD], _PAIRING),
    (
        ["coords", "--ring", F2_RING, "--payload",
         json.dumps({"a": series_doc(1, 4, [((0,), [[1]]), ((1,), [[1]])])})],
        _WITT,
    ),
    (["from-coords", "--ring", F2_RING, "--n", "2", "--d", "8", "--payload", _COORDS], _WITT),
    (["lang-census", "--n", "1", "--q", "2", "--s", "2", "--d", "3"], _CENSUS),
    (["ah-exp", "--ring", F2_RING, "--d", "4", "--payload", '{"x": [[1]]}'], _WITT | {"ptypical"}),
    (["selftest", "--suite", "ring"], _PAIRING | {"selftest"}),
]


def test_cli_needs_neither_jsonschema_nor_selftest():
    loaded = (
        "import sys, multiwitt.cli; "
        "print([m for m in ('jsonschema', 'multiwitt.selftest') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", loaded], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n"
    blocked = (
        "import sys; sys.modules['jsonschema'] = None; from multiwitt.cli import main; "
        "sys.exit(main(['pi1', '--n', '1', '--q', '2', '--d', '3']))"
    )
    proc = subprocess.run([sys.executable, "-c", blocked], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"factors": [4], "order": 4}
    # a job runs only the modules it uses: the others stay registered but
    # unexecuted, as lazy modules, never plain ModuleType objects; and no
    # job imports dataclasses or inspect (what the interpreter loaded at
    # start-up, before the CLI, does not count)
    executed = (
        "import json, sys, types; before = set(sys.modules); from multiwitt.cli import main; "
        "code = main(json.loads(sys.argv[1])); "
        "print(json.dumps(sorted(m for m, mod in sys.modules.items() "
        "if m.startswith('multiwitt.') and type(mod) is types.ModuleType))); "
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    for argv, used in CLI_JOBS:
        proc = subprocess.run(
            [sys.executable, "-c", executed, json.dumps(argv)], capture_output=True, text=True
        )
        answer, loaded, stdlib = proc.stdout.splitlines()
        assert proc.returncode == 0 and "error" not in json.loads(answer), proc.stdout
        loaded = {m.removeprefix("multiwitt.") for m in json.loads(loaded)}
        assert loaded == used | {"cli", "errors"}, (argv[0], loaded)
        assert json.loads(stdlib) == [], (argv[0], stdlib)


def test_each_command_compiles_only_the_modules_it_runs():
    """A fresh ``python -m multiwitt.cli`` process that writes no bytecode,
    as the cli_spawn benchmark runs it, compiles the package, cli, errors
    and the modules the job runs, and no other library file.  A pi1 job
    compiles neither ring nor series, and a pair job neither ptypical nor
    fractions: duality reaches ptypical through the lazily registered
    module, which only the component route executes."""
    spec = importlib.util.spec_from_file_location("compile_cost", SCRIPTS / "compile_cost.py")
    compile_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compile_cost)
    for argv, used in CLI_JOBS[:-1]:
        code, out, compiled, modules = compile_cost.run_job(argv)
        assert code == 0 and "error" not in json.loads(out), out
        assert set(compiled) == used | {"__init__", "cli", "errors"}, (argv[:2], compiled)
        assert ("fractions" in modules) == ("ptypical" in used), (argv[:2], "fractions")


def _coords_job(doc):
    return ["from-coords", "--ring", F2_RING, "--n", "1", "--d", "4", "--payload", json.dumps(doc)]


def _neg_job(series):
    return ["neg", "--ring", F2_RING, "--payload", json.dumps({"a": series})]


@pytest.mark.parametrize(
    "argv",
    [
        _neg_job(dict(ONE_PLUS_T, exct=True)),
        _neg_job({k: v for k, v in ONE_PLUS_T.items() if k != "d"}),
        _neg_job(dict(ONE_PLUS_T, terms=CONST + [{"exp": [1], "c": [[1]], "x": 1}])),
        _neg_job(dict(ONE_PLUS_T, terms=CONST + [{"exp": [1]}])),
        _coords_job({"coords": [], "zz": 1}),
        _coords_job({}),
        _coords_job({"coords": [{"exp": [1], "r": [[1]], "c": [[1]]}]}),
        _coords_job({"coords": [{"r": [[1]]}]}),
        ["neg", "--ring", F2_RING, "--payload", json.dumps({"a": ONE_PLUS_T, "zz": 1})],
        ["neg", "--ring", F2_RING, "--payload", "[1]"],
        ["mul", "--ring", F2_RING, "--payload", json.dumps({"a": ONE_PLUS_T})],
        ["mul", "--ring", F2_RING],
        ["ah-exp", "--ring", F2_RING, "--d", "3", "--payload", '{"x": [[1]], "k": 1}'],
        ["pair", "--ring", R22_RING, "--payload", json.dumps({"f": ONE_PLUS_T})],
        ["pi1", "--n", "1", "--q", "2", "--d", "3", "--payload", '{"junk": 1}'],
        ["lang-census", "--n", "1", "--q", "2", "--s", "2", "--d", "3", "--payload", '{"x": 1}'],
    ],
    ids=[
        "series-unknown", "series-missing", "term-unknown", "term-missing", "coords-doc-unknown",
        "coords-doc-missing", "coord-unknown", "coord-missing", "payload-unknown", "payload-list",
        "payload-missing", "payload-absent", "ah-exp-unknown", "pair-missing", "pi1-payload",
        "census-payload",
    ],
)
def test_unknown_or_missing_key_is_schema_error(capsys, argv):
    code, doc = run_cli(capsys, argv)
    assert code == 1
    assert doc["error"]["kind"] == "SchemaError"

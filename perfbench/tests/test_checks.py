"""Each workload's output checks accept real outputs and reject corrupted ones.

    python3 -m pytest -q perfbench/tests
"""

import copy
import subprocess
import sys

import pytest

import cli_spawn
import gen
import multivar
import pairing
import structure
from common import ROOT
from run import NullClock


def _run(mod, inputs, job):
    return mod.executor(inputs)(job, NullClock())


# pairing --------------------------------------------------------------------


@pytest.fixture(scope="module")
def pairing_case():
    inputs = pairing.make_inputs(3)
    job = next(j for j in inputs["jobs"] if (j["q"], j["e"]) == (3, 2))
    return job, _run(pairing, inputs, job)


def test_pairing_accepts_real_output(pairing_case):
    job, out = pairing_case
    assert set(out) == {"algebraic", "geometric", "components"}
    assert pairing.check_job(job, out) == []


def test_pairing_rejects_disagreeing_routes(pairing_case):
    job, out = pairing_case
    bad = copy.deepcopy(out)
    row = bad["geometric"][1]
    row[0] = (row[0] + 1) % 3
    assert any("disagree" in e for e in pairing.check_job(job, bad))


def test_pairing_rejects_value_not_one_mod_nilpotents(pairing_case):
    job, out = pairing_case
    bad = copy.deepcopy(out)
    for v in bad.values():
        v[0][0] = 2
    assert any("congruent" in e for e in pairing.check_job(job, bad))


def test_pairing_rejects_missing_route(pairing_case):
    job, out = pairing_case
    bad = {k: v for k, v in out.items() if k != "components"}
    assert pairing.check_job(job, bad)


def test_bimultiplicativity_holds_and_catches_a_wrong_pairing(monkeypatch):
    case = pairing.make_inputs(5)["bimul"][0]
    assert pairing.check_bimultiplicative(case) == []
    real = pairing.mw.cartier_pair

    def corrupted(f, g, d=None):
        v = real(f, g, d)
        if f.degree == 4:  # only the product f1 * f2 has degree 4
            return v.ring.from_raw(v.ring.radd(v.raw, v.ring.eps_raw))
        return v

    monkeypatch.setattr(pairing.mw, "cartier_pair", corrupted)
    assert pairing.check_bimultiplicative(case) == ["not multiplicative in the first argument"]


# structure ------------------------------------------------------------------


@pytest.fixture(scope="module")
def structure_cases():
    inputs = structure.make_inputs(0)
    pi1 = next(j for j in inputs["jobs"] if j["kind"] == "pi1" and j["q"] == 3)
    census = next(j for j in inputs["jobs"] if j["kind"] == "census")
    return [(j, _run(structure, inputs, j)) for j in (pi1, census)]


def test_structure_accepts_real_output(structure_cases):
    for job, out in structure_cases:
        assert structure.check_job(job, out) == []


def test_structure_rejects_formula_oracle_mismatch(structure_cases):
    job, out = structure_cases[0]
    bad = dict(out, oracle_factors=list(reversed(out["oracle_factors"])) + [1])
    assert any("oracle" in e for e in structure.check_job(job, bad))


def test_structure_rejects_wrong_order(structure_cases):
    job, out = structure_cases[0]
    factors = list(out["factors"])
    factors[-1] *= job["q"]
    bad = dict(out, factors=factors, oracle_factors=factors)
    assert structure.check_job(job, bad)


def test_structure_rejects_wrong_census_kernel(structure_cases):
    job, out = structure_cases[1]
    assert structure.check_job(job, dict(out, kernel=out["kernel"] * 2))


def test_group_rank_closed_form():
    # exponents 0 < |nu| < d counted by enumeration
    from itertools import product

    for n, d in ((1, 5), (2, 4), (3, 3), (4, 5)):
        count = sum(1 for e in product(range(d), repeat=n) if 0 < sum(e) < d)
        assert gen.group_rank(n, d) == count


# multivar -------------------------------------------------------------------


@pytest.fixture(scope="module")
def multivar_cases():
    inputs = multivar.make_inputs(2)
    small = next(i for i, t in enumerate(inputs["triples"]) if t["n"] == 3)
    out = {}
    for op in multivar.OPS:
        job = {"op": op, "triple": small}
        out[op] = _run(multivar, inputs, job)
    return inputs["triples"][small], out


def test_multivar_accepts_real_output(multivar_cases):
    triple, outs = multivar_cases
    for op, out in outs.items():
        assert multivar.check_job(triple, op, out) == []
    assert multivar.check_distributive(triple) == []


@pytest.mark.parametrize("op", multivar.OPS)
def test_multivar_rejects_corrupted_output(multivar_cases, op):
    triple, outs = multivar_cases
    bad = copy.deepcopy(outs[op])
    if len(bad["terms"]) > 1:
        bad["terms"].pop()
    else:
        bad["terms"].append({"exp": [1, 0, 0], "c": [[1]]})
    assert multivar.check_job(triple, op, bad)


def test_distributivity_check_catches_a_wrong_product(monkeypatch):
    triple = multivar.make_inputs(2)["triples"][0]
    real = multivar.mw.witt_mul
    calls = []

    def corrupted(a, b):
        calls.append(1)
        out = real(a, b)
        return multivar.mw.witt_add(out, a) if len(calls) == 1 else out

    monkeypatch.setattr(multivar.mw, "witt_mul", corrupted)
    assert multivar.check_distributive(triple)


# cli_spawn ------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_outputs():
    inputs = cli_spawn.make_inputs(0)
    run = cli_spawn.executor(inputs)
    return [(job, run(job, NullClock())) for job in inputs["jobs"]]


def test_cli_accepts_real_output(cli_outputs):
    for job, out in cli_outputs:
        assert cli_spawn.check_job(job, out) == [], job["kind"]


def _corrupt(doc, kind):
    doc = copy.deepcopy(doc)
    if kind == "pi1":
        doc["order"] *= 2
    elif kind == "pair":
        doc["agree"] = False
    elif kind == "coords":
        doc["result"] = {}
    elif kind == "from-coords":
        doc["result"]["terms"].pop()
    elif kind == "census":
        doc["kernel"] += 1
    elif kind == "ah-exp":
        term = doc["result"]["terms"][-1]
        term["c"] = [[1 - term["c"][0][0]]]
    return doc


def test_cli_rejects_corrupted_output(cli_outputs):
    for job, out in cli_outputs:
        bad = dict(out, doc=_corrupt(out["doc"], job["kind"]))
        assert cli_spawn.check_job(job, bad), job["kind"]
        assert cli_spawn.check_job(job, dict(out, code=1)), job["kind"]


def test_artin_hasse_reference_matches_closed_form():
    # AH(x) = exp(x + x^2/2) for p = 2 up to degree 3: 1, 1, 1, 2/3
    ref = cli_spawn.artin_hasse_reference(2, 4)
    assert [str(c) for c in ref] == ["1", "1", "1", "2/3"]


def test_benchmark_exits_nonzero_without_library(tmp_path):
    import shutil

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_spawn", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

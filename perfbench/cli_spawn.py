"""Workload ``cli_spawn``: one fresh ``multiwitt`` process per job.

Every job starts ``python -m multiwitt.cli`` from this checkout's sources
and waits for it before the next one starts, so each pays for interpreter
start, importing multiwitt and jsonschema, schema validation and cold
caches.  A pass runs two ``pi1`` jobs, ``pair --both`` over F_3[eps]/(eps^2),
``coords`` on a sparse two-variable element followed by ``from-coords`` on
its output (payloads on stdin), a small ``lang-census`` and ``ah-exp`` at
d = 100 over F_2.  The seed picks the ``pi1`` shapes, the payloads and the
census seed.

The benchmark process itself never imports multiwitt for this workload.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from common import ROOT, child_env
from gen import element_doc, group_rank, prime_ring_desc, same_series, stable_length, unit_doc

PI1_SHAPES = ((1, 2, 6), (2, 3, 3), (1, 5, 4), (3, 2, 3), (2, 2, 4), (1, 7, 3), (1, 3, 5), (2, 5, 3))
PAIR_RING = (3, 2)  # (p, nil)
PAIR_DEGREE = 3
COORDS_SHAPE = (2, 2, 8)  # (p, n, d)
CENSUS = (1, 2, 2, 3)  # (n, q, s, d)
AH_SHAPE = (2, 100)  # (p, d)
CHILD_TIMEOUT_S = 120


def _sparse_doc(rng, n, d, nterms):
    terms = {}
    while len(terms) < nterms:
        deg = rng.randrange(1, d)
        cuts = sorted(rng.randrange(deg + 1) for _ in range(n - 1))
        terms[tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))] = [[1]]
    body = [{"exp": list(e), "c": c} for e, c in sorted(terms.items())]
    return {"n": n, "d": d, "exact": False, "terms": [{"exp": [0] * n, "c": [[1]]}] + body}


def make_inputs(seed: int) -> dict:
    rng = random.Random(f"cli_spawn/{seed}")
    jobs = []
    for n, q, d in rng.sample(PI1_SHAPES, 2):
        jobs.append({"kind": "pi1", "n": n, "q": q, "d": d,
                     "args": ["pi1", "--n", str(n), "--q", str(q), "--d", str(d)]})
    p, nil = PAIR_RING
    dg = stable_length(PAIR_DEGREE, nil)
    pair = {"f": unit_doc(rng, p, nil, PAIR_DEGREE), "g": element_doc(rng, p, dg)}
    jobs.append({"kind": "pair", "p": p, "nil": nil, "stdin": json.dumps(pair),
                 "args": ["pair", "--both", "--ring", json.dumps(prime_ring_desc(p, nil)),
                          "--payload", "-"]})
    p, n, d = COORDS_SHAPE
    ring = json.dumps(prime_ring_desc(p))
    a = _sparse_doc(rng, n, d, 3)
    jobs.append({"kind": "coords", "a": a, "stdin": json.dumps({"a": a}),
                 "args": ["coords", "--ring", ring, "--payload", "-"]})
    # its payload is the output of the job before it
    jobs.append({"kind": "from-coords", "a": a,
                 "args": ["from-coords", "--ring", ring, "--n", str(n), "--d", str(d),
                          "--payload", "-"]})
    n, q, s, d = CENSUS
    jobs.append({"kind": "census", "n": n, "q": q, "s": s, "d": d,
                 "args": ["lang-census", "--n", str(n), "--q", str(q), "--s", str(s),
                          "--d", str(d), "--seed", str(rng.randrange(2**31))]})
    p, d = AH_SHAPE
    jobs.append({"kind": "ah-exp", "p": p, "d": d,
                 "args": ["ah-exp", "--ring", json.dumps(prime_ring_desc(p)), "--d", str(d),
                          "--payload", json.dumps({"x": [[1]], "j": 1})]})
    return {"jobs": jobs}


def _spawn(argv, stdin_text):
    """Run one child to its end; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        argv, input=stdin_text or "", capture_output=True, text=True, cwd=ROOT,
        env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def executor(inputs, mode=None, figures=None):
    """Spawns each job.  With a mode ("trace" or "count") the job runs
    through the child wrapper, and the figures each child reports are
    added into ``figures``."""
    from spans import merge

    last_coords = {}

    def run(job, clock):
        if job["kind"] == "from-coords":
            stdin = json.dumps(last_coords["doc"]["result"])
        else:
            stdin = job.get("stdin")
        if mode is None:
            argv = [sys.executable, "-m", "multiwitt.cli"] + job["args"]
            with clock.timing():
                code, out, err = _spawn(argv, stdin)
        else:
            child = str(ROOT / "perfbench" / "cli_child.py")
            argv = [sys.executable, child, mode, repr(time.perf_counter())] + job["args"]
            with clock.timing():
                code, out, err = _spawn(argv, stdin)
            merge(figures, json.loads(err.strip().splitlines()[-1]))
        doc = json.loads(out) if out.strip() else None
        if job["kind"] == "coords" and doc is not None:
            last_coords["doc"] = doc
        return {"code": code, "doc": doc}

    return run


def check(inputs, outputs) -> list:
    errors = []
    for i, (job, out) in enumerate(zip(inputs["jobs"], outputs)):
        if out is None:
            continue
        try:
            found = check_job(job, out)
        except (KeyError, TypeError, IndexError, ValueError) as exc:  # output of another process
            found = [f"malformed output: {exc!r}"]
        errors += [f"cli job {i} ({job['kind']}): {e}" for e in found]
    return errors


def artin_hasse_reference(p: int, count: int) -> list:
    """a_0 = 1, n a_n = sum over p^i <= n of a_(n - p^i), over the rationals."""
    a = [Fraction(1)]
    for n in range(1, count):
        acc = Fraction(0)
        pk = 1
        while pk <= n:
            acc += a[n - pk]
            pk *= p
        a.append(acc / n)
    return a


def _mod_p(c: Fraction, p: int) -> int:
    if c.denominator % p == 0:
        raise ValueError(f"{c} is not {p}-integral")
    return c.numerator * pow(c.denominator, -1, p) % p


def check_job(job, out) -> list:
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    doc = out["doc"]
    if not isinstance(doc, dict):
        return ["no JSON document on stdout"]
    kind = job["kind"]
    if kind == "pi1":
        expected = job["q"] ** group_rank(job["n"], job["d"])
        prod = 1
        for f in doc.get("factors", []):
            prod *= f
        if doc.get("order") != expected or prod != expected:
            return [f"order {doc.get('order')}, factor product {prod}, expected q^m = {expected}"]
        return []
    if kind == "pair":
        if doc.get("agree") is not True or doc.get("algebraic") != doc.get("geometric"):
            return [f"routes do not agree: {doc}"]
        if not doc["algebraic"] or doc["algebraic"][0] != [1]:
            return [f"value {doc['algebraic']} is not congruent to 1 modulo nilpotents"]
        return []
    if kind == "coords":
        if not isinstance(doc.get("result", {}).get("coords"), list):
            return ["no coordinate list"]
        return []
    if kind == "from-coords":
        res = doc.get("result")
        if not isinstance(res, dict) or not same_series(res, job["a"]):
            return ["coords followed by from-coords does not return the input"]
        return []
    if kind == "census":
        expected = job["q"] ** group_rank(job["n"], job["d"])
        if doc.get("kernel") != expected or doc.get("matches") is not True:
            return [f"census kernel {doc.get('kernel')}, expected q^m = {expected}"]
        return []
    if kind == "ah-exp":
        p, d = job["p"], job["d"]
        ref = artin_hasse_reference(p, d)
        want = {k: _mod_p(c, p) for k, c in enumerate(ref)}
        got = {k: 0 for k in range(d)}
        for t in doc.get("result", {}).get("terms", []):
            got[t["exp"][0]] = t["c"][0][0]
        if got != want:
            bad = sorted(k for k in want if got.get(k) != want[k])
            return [f"Artin-Hasse coefficients differ from the recurrence at degrees {bad[:8]}"]
        return []
    return [f"unknown job kind {kind}"]

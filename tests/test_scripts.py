"""Smoke test: the README's scripts run to completion, pi1_table as the
README documents it (every oracle row up to order 4096), duality_demo at
a small size over a prime field and over F_4, and kernel_steps as it is.

pi1_table and duality_demo import only the public API, so this catches a
removal that would otherwise break them silently.  bench_pairs is checked on synthetic run
records, without running the benchmark."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/pi1_table.py", "--max-order", "4096", "--oracle"],
        ["scripts/duality_demo.py", "--q", "3", "--e", "2", "--cases", "3", "--seed", "0"],
        ["scripts/duality_demo.py", "--q", "4", "--e", "2", "--cases", "3", "--seed", "0"],
    ],
    ids=["pi1_table", "duality_demo", "duality_demo_F4"],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_kernel_steps_times_every_budgeted_kernel():
    """kernel_steps prints one row per kernel that errors.WORK_LIMIT bounds:
    an estimate of about 10^6 steps, a best time and the ns per step."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "scripts/kernel_steps.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, columns, *rows = proc.stdout.splitlines()
    assert header == "WORK_LIMIT = 10000000 steps" and columns.split()[-1] == "ns/step"
    kernels = ["division", "series product", "binomial product", "coordinate peel",
               "Artin-Hasse product", "geometric norm"]
    assert [row[:20].strip() for row in rows] == kernels
    for row in rows:
        steps, best, ns = row[20:].split()
        assert 5 * 10**5 <= int(steps) <= 2 * 10**6 and float(best) > 0 and int(ns) > 0


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_record(cost, rss):
    return {"job_cost_cal": cost, "peak_rss_mb": rss, "failed": 0, "attempted": 9, "correct": True}


def test_bench_pairs_summary_arithmetic():
    bench = load_bench_pairs()
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 1.0, 3.0]
    pairs = [
        {"seed": s, "first": "parent", "parent": run_record(b, 20.0), "change": run_record(c, 19.0)}
        for s, b, c in zip(range(4), parent, change)
    ]
    summary = bench.summarize(pairs)
    assert set(summary) == {"job_cost_cal", "peak_rss_mb"}
    assert summary["job_cost_cal"] == {
        "parent_median": 2.5,
        "parent_quartiles": [1.75, 3.25],
        "change_median": 1.75,
        "change_quartiles": [0.875, 2.625],
        "change_lower_in": "3/4",
        "median_ratio_change_over_parent": 0.7,
    }
    assert summary["peak_rss_mb"]["change_lower_in"] == "4/4"
    assert summary["peak_rss_mb"]["parent_quartiles"] == [20.0, 20.0]
    one = bench.summarize(pairs[:1])["job_cost_cal"]
    assert one["parent_quartiles"] == [1.0, 1.0] and one["change_lower_in"] == "1/1"


def test_bench_pairs_reads_a_run_and_its_seeds():
    bench = load_bench_pairs()
    last = {
        "correct": True, "attempted": 12, "failed": 1,
        "metrics": {"job_cost_cal": {"value": 0.123456, "unit": "cal"},
                    "setup_s": {"value": 0.05, "unit": "s"}},
    }
    stdout = "reference figures\n" + json.dumps(last) + "\n"
    assert bench.parse_run(stdout) == {
        "job_cost_cal": 0.1235, "setup_s": 0.05, "failed": 1, "attempted": 12, "correct": True,
    }
    assert bench.parse_seeds("3101-3103,3110") == [3101, 3102, 3103, 3110]


def test_bench_pairs_alternates_the_first_side(monkeypatch):
    bench = load_bench_pairs()
    runs = []

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout, seed))
        return run_record(1.0 if checkout == "p" else 0.9, 20.0)

    monkeypatch.setattr(bench, "run_once", fake_run)
    pairs = bench.run_pairs({"parent": "p", "change": "c"}, "pairing", [7, 8, 9], 1)
    assert runs == [("p", 7), ("c", 7), ("c", 8), ("p", 8), ("p", 9), ("c", 9)]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]
    assert bench.summarize(pairs)["job_cost_cal"]["change_lower_in"] == "3/3"

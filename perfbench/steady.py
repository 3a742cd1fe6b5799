"""Steadiness check: many runs of every workload, interleaved.

    python3 perfbench/steady.py [--runs 10] [--seconds 12] [--seed0 0]

Runs ``run.py`` once per (round, workload), the workloads interleaved
round by round, each run on its own seed (seed0 + round).  For every
metric it prints the median, the quartiles and the spread, the distance
between the quartiles as a share of the median, for the end-to-end
metrics, for ``setup_s_one`` (the set-up of the run's own process alone,
one of the three samples ``setup_s`` is the median of) and for the raw
figures they are calibrated from (seconds per job, jobs per second, the
calibration loop's time, raw set-up seconds).  The figures also go
to ``.perfbench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import OUT_DIR
from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 600
END_TO_END = ("job_cost_cal", "setup_s", "peak_rss_mb")
SINGLE = ("setup_s_one",)
RAW = ("sec_per_job", "jobs_per_s", "cal_s", "setup_raw_s")


def one_run(workload, seed, seconds):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run of {workload} seed {seed} failed with code {proc.returncode}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    row = {m: result["metrics"][m]["value"] for m in END_TO_END}
    row.update({m: info[m] for m in RAW if m != "setup_raw_s"})
    row["setup_raw_s"] = statistics.median(info["setup_raw_s"])
    row["setup_s_one"] = info["setup_scaled_s"][0]
    row.update({"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "wall_s": wall_s})
    return row


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--seed0", type=int, default=0)
    args = ap.parse_args(argv)
    rows = {w: [] for w in WORKLOADS}
    for r in range(args.runs):
        for w in WORKLOADS:
            rows[w].append(one_run(w, args.seed0 + r, args.seconds))
            last = rows[w][-1]
            print(f"round {r} {w}: job_cost_cal {last['job_cost_cal']:.4f} "
                  f"setup_s {last['setup_s']:.3f} sec_per_job {last['sec_per_job']:.5f}",
                  file=sys.stderr, flush=True)
    report = {}
    print(f"{'workload':10} {'metric':13} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for w in WORKLOADS:
        report[w] = {}
        for m in END_TO_END + SINGLE + RAW:
            s = summary([row[m] for row in rows[w]])
            report[w][m] = s
            print(f"{w:10} {m:13} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.3f}")
        shares = {row["failed"] / row["attempted"] for row in rows[w]}
        ok = all(row["correct"] for row in rows[w])
        longest = max(row["wall_s"] for row in rows[w])
        print(f"{w:10} correct in every run: {ok}; failed shares: {sorted(shares)}; "
              f"longest run {longest:.1f} s")
        report[w]["runs"] = rows[w]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"runs": args.runs, "seconds": args.seconds, "seed0": args.seed0,
                               "report": report}, indent=1))
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

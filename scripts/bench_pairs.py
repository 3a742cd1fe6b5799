"""Paired benchmark runs of a parent checkout and a change checkout.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workloads pairing structure --seeds 3101-3110 --out BENCH_21.json

For every workload and seed, runs ``perfbench/run.py`` once in each
checkout, one run at a time, alternating which side runs first from one
seed to the next.  It writes the runs of each pair and, for each metric
and for the number of passes a run completed, the medians, the inclusive
quartiles and the number of pairs where the change reads lower.  The file
is rewritten after each workload.

A run keeps every pass's outputs, so a faster side completes more passes
and can read a higher ``peak_rss_mb``; the pass counts show when it does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

SIDES = ("parent", "change")
RUN_FIELDS = ("failed", "attempted", "correct")


def parse_seeds(text: str) -> list:
    """"3101-3110" or "3101,3105" (or both, comma-separated) as a list."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_run(stdout: str) -> dict:
    """The record of one run from its last two stdout lines: each metric's
    value, the passes it completed (``info.passes``), and its failed and
    attempted counts and correctness."""
    *_, info_line, last_line = stdout.strip().splitlines()
    info, last = json.loads(info_line)["info"], json.loads(last_line)
    record = {name: round(m["value"], 4) for name, m in last["metrics"].items()}
    record.update(passes=info["passes"], failed=last["failed"], attempted=last["attempted"],
                  correct=last["correct"])
    return record


def quartiles(values: list) -> list:
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarize(pairs: list) -> dict:
    """Per metric, and for the pass counts, that both sides of every pair
    report: the medians and inclusive quartiles of each side, the pairs
    where the change is lower, and the ratio of the medians."""
    metrics = [
        k for k in pairs[0]["parent"]
        if k not in RUN_FIELDS and all(k in p["parent"] and k in p["change"] for p in pairs)
    ]
    summary = {}
    for name in metrics:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        lower = sum(c < b for b, c in zip(parent, change))
        summary[name] = {
            "parent_median": round(median(parent), 4),
            "parent_quartiles": quartiles(parent),
            "change_median": round(median(change), 4),
            "change_quartiles": quartiles(change),
            "change_lower_in": f"{lower}/{len(pairs)}",
            "median_ratio_change_over_parent": round(median(change) / median(parent), 4)
            if median(parent) else None,
        }
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {workload} seed {seed} failed in {checkout}")
    return parse_run(proc.stdout)


def run_pairs(checkouts: dict, workload: str, seeds: list, seconds: float) -> list:
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], workload, seed, seconds)
            print(f"{workload} seed {seed} {side}: {pair[side]}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help='e.g. "3101-3110"')
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--parent-label", default="", help="the parent's commit, as recorded")
    args = ap.parse_args(argv)
    doc = {
        "harness": f"python3 perfbench/run.py --workload <name> --seed <seed> "
        f"--seconds {args.seconds:g} --trace 0",
        "machine": f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, "
        f"Python {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "method": "parent and change run from separate checkouts, one run at a time, "
        "alternating which side runs first in each pair; medians and quartiles "
        "(inclusive method) over the pairs of each workload",
        "parent": args.parent_label,
        "workloads": {},
    }
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = doc["workloads"]
    for workload in args.workloads:
        pairs = run_pairs(checkouts, workload, args.seeds, args.seconds)
        workloads[workload] = {"summary": summarize(pairs), "pairs": pairs}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

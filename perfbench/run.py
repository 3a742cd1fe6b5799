"""multiwitt benchmark: one workload, one closed-loop client, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: pairing, structure, multivar (in-process library calls) and
cli_spawn (one ``multiwitt`` process per job).  After set-up the run
repeats whole passes over the workload's job list until ``--seconds``
have gone by; every pass rebuilds its input objects from plain data.
Outputs are checked against computations made apart from the library or
against properties the method must have.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones:

  job_cost_cal  wall time per job over the calibration loop timed next
                to it: each job's median over the passes, averaged over
                the job list
  setup_s       imports, input generation and one warm-up pass, in
                seconds at the calibration loop's reference speed
                (median of this process and two fresh ones)
  peak_rss_mb   peak resident memory; for cli_spawn the largest child

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer figures of ``spans.PER_LAYER`` per pass (medians over
the traced passes), ring operations counted in one further pass.  The
line before the last one carries raw reference figures and, when
tracing, the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from statistics import median

from common import CAL_REF_S, OUT_DIR, SRC, CalibratedClock, calibrate

WORKLOADS = ("pairing", "structure", "multivar", "cli_spawn")
SPAWNS_CHILDREN = {"cli_spawn"}
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150


class NullClock:
    """Clock for untimed passes (warm-up, counting)."""

    def start(self):
        pass

    def begin_job(self):
        pass

    def end_job(self):
        pass

    def finish(self):
        pass

    def timing(self):
        return nullcontext()


def pin_to_one_cpu():
    """Keep this process and every child it starts on one CPU, so the
    calibration loop runs where the timed work runs: a spawned CLI process
    would otherwise often land on the other core, whose load the loop never
    sees.  Affinity is a property of our own processes only."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not offered on this platform: run unpinned
        pass


def run_pass(run, inputs, clock):
    """One pass of ``run`` over the job list; returns (outputs, failed operations)."""
    outputs, failed = [], 0
    clock.start()
    for job in inputs["jobs"]:
        clock.begin_job()
        try:
            outputs.append(run(job, clock))
        except Exception:  # a failed operation is counted and reported, the run goes on
            failed += 1
            outputs.append(None)
            traceback.print_exc(file=sys.stderr)
        clock.end_job()
    clock.finish()
    return outputs, failed


def setup(name, seed):
    """Import the workload (and through it the library), build its inputs
    and run one warm-up pass; returns (times, module, inputs).  The time is
    given raw and scaled to the reference speed of the calibration loop,
    which is timed right before and right after."""
    cal_before = calibrate()
    t0 = time.perf_counter()
    mod = importlib.import_module(name)
    inputs = mod.make_inputs(seed)
    run_pass(mod.executor(inputs), inputs, NullClock())
    raw = time.perf_counter() - t0
    scaled = raw * CAL_REF_S / ((cal_before + calibrate()) / 2)
    return {"raw_s": raw, "scaled_s": scaled}, mod, inputs


def setup_in_fresh_process(name, seed) -> dict:
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: set-up of {name} failed in a fresh process")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup"]


def peak_rss_mb(name) -> float:
    who = resource.RUSAGE_CHILDREN if name in SPAWNS_CHILDREN else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def check_outputs(mod, inputs, passes) -> list:
    first = passes[0]["outputs"]
    errors = mod.check(inputs, first)
    for k, p in enumerate(passes[1:], start=1):
        for i, (a, b) in enumerate(zip(first, p["outputs"])):
            if a is not None and b is not None and a != b:
                errors.append(f"pass {k} job {i}: output differs from pass 0")
    return errors


def timed_pass(mod, inputs):
    clock = CalibratedClock()
    outputs, failed = run_pass(mod.executor(inputs), inputs, clock)
    return {"outputs": outputs, "failed": failed, "raw_s": clock.raw_s,
            "job_cal": clock.job_cal, "cal": clock.cal_samples}


def traced_pass(name, mod, inputs):
    from spans import Tracer

    clock = CalibratedClock()
    if name in SPAWNS_CHILDREN:  # the children trace themselves
        layers = {}
        outputs, failed = run_pass(mod.executor(inputs, "trace", layers), inputs, clock)
        tracer = None
    else:
        tracer = Tracer(extra_modules=(name,))
        tracer.install()
        try:
            outputs, failed = run_pass(mod.executor(inputs), inputs, clock)
        finally:
            tracer.uninstall()
        layers = tracer.summarize()
    return {"outputs": outputs, "failed": failed, "raw_s": clock.raw_s,
            "job_cal": clock.job_cal, "cal": clock.cal_samples,
            "layers": layers, "tracer": tracer}


def counting_pass(name, mod, inputs) -> dict:
    from spans import RingCounter

    if name in SPAWNS_CHILDREN:
        counts = {}
        run_pass(mod.executor(inputs, "count", counts), inputs, NullClock())
        return counts
    counter = RingCounter()
    counter.install()
    try:
        run_pass(mod.executor(inputs), inputs, NullClock())
    finally:
        counter.uninstall()
    return dict(counter.counts)


def job_cost(passes) -> float:
    """Mean over the job list of each job's median calibrated cost."""
    per_job = zip(*(p["job_cal"] for p in passes))
    costs = [median(c) for c in per_job]
    return sum(costs) / len(costs)


def layer_metrics(traced, ring_counts) -> dict:
    from spans import PER_LAYER, RING_OPS

    out = {}
    for metric, (unit, _better) in PER_LAYER.items():
        if metric in dict(RING_OPS):
            value = ring_counts.get(metric, 0)
        elif unit == "s":
            value = median([p["layers"].get(metric, 0.0) for p in traced])
        else:  # counts repeat exactly from pass to pass
            value = traced[-1]["layers"].get(metric, 0)
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process, print it and exit")
    args = ap.parse_args(argv)
    if not (SRC / "multiwitt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {SRC}")
    name = args.workload
    pin_to_one_cpu()

    own_setup, mod, inputs = setup(name, args.seed)
    if args.setup_only:
        print(json.dumps({"setup": own_setup}))
        return 0
    setup_samples = [own_setup]
    if not args.trace:  # set-up time is an end-to-end metric only
        setup_samples += [setup_in_fresh_process(name, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    untraced, traced = [], []
    t_start = time.perf_counter()
    while not untraced or time.perf_counter() - t_start < args.seconds:
        untraced.append(timed_pass(mod, inputs))
        if args.trace:
            if traced:
                traced[-1]["tracer"] = None  # spans are written for the last traced pass only
            traced.append(traced_pass(name, mod, inputs))
    rss = peak_rss_mb(name)

    passes = untraced + traced
    jobs = len(inputs["jobs"])
    errors = check_outputs(mod, inputs, passes)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    attempted = jobs * len(passes)
    failed = sum(p["failed"] for p in passes)

    cost = job_cost(untraced)
    raw_s = sum(p["raw_s"] for p in untraced)
    info = {
        "workload": name, "seed": args.seed, "passes": len(untraced), "jobs_per_pass": jobs,
        "sec_per_job": median([p["raw_s"] / jobs for p in untraced]),
        "jobs_per_s": jobs * len(untraced) / raw_s if raw_s else 0.0,
        "cal_s": median([c for p in untraced for c in p["cal"]]),
        "setup_raw_s": [s["raw_s"] for s in setup_samples],
        "setup_scaled_s": [s["scaled_s"] for s in setup_samples],
    }
    if args.trace:
        traced_cost = job_cost(traced)
        info.update({"traced_passes": len(traced), "job_cost_cal_untraced": cost,
                     "job_cost_cal_traced": traced_cost, "trace_overhead": traced_cost / cost - 1})
        metrics = layer_metrics(traced, counting_pass(name, mod, inputs))
        last = traced[-1]["tracer"]
        if last is not None:
            OUT_DIR.mkdir(exist_ok=True)
            last.write_spans(OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "job_cost_cal": {"value": cost, "unit": "cal"},
            "setup_s": {"value": median([s["scaled_s"] for s in setup_samples]), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

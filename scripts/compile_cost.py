#!/usr/bin/env python3
"""Measure which library files each CLI command compiles, and what it costs.

Usage:
    python scripts/compile_cost.py [--seed N]

Runs each job of the ``cli_spawn`` benchmark workload's mix
(``perfbench/cli_spawn.py``, the seed picks the shapes and payloads) as a
fresh ``python -m multiwitt.cli`` process with PYTHONDONTWRITEBYTECODE=1,
as the workload runs it, so every library module the job executes is
compiled from source.  A ``sitecustomize`` hook in the child wraps
``builtins.compile`` and reports the time of each compile.  Prints one row
per job: the command, the total milliseconds and each compiled library
file with its milliseconds, in the order compiled.  A traced benchmark run
cannot show this, since the tracer executes every library module.  CI
runs it on Python 3.11 and logs the table, with no gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multiwitt"

# the child's sitecustomize: times every compile and, at exit, writes the
# compiled files (seconds each, in order) and the loaded module names to
# stderr as one JSON line
HOOK = """\
import atexit, builtins, sys, time

_compile, _seconds = builtins.compile, {}


def compile(source, filename, *args, **kwargs):
    start = time.perf_counter()
    code = _compile(source, filename, *args, **kwargs)
    _seconds[filename] = _seconds.get(filename, 0.0) + time.perf_counter() - start
    return code


def _report():
    import json

    sys.stderr.write(json.dumps({"compiled": _seconds, "modules": sorted(sys.modules)}) + "\\n")


builtins.compile = compile
atexit.register(_report)
"""


def run_job(args, stdin: str | None = None):
    """Runs ``python -m multiwitt.cli *args`` in a fresh process that writes
    no bytecode; returns (exit code, stdout, {library module: seconds
    compiling it, in compile order}, the names of the loaded modules)."""
    with tempfile.TemporaryDirectory() as hook_dir:
        Path(hook_dir, "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [hook_dir, str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "multiwitt.cli", *args], input=stdin or "",
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
        )
    report = json.loads(proc.stderr.splitlines()[-1])
    compiled = {
        Path(name).stem: seconds for name, seconds in report["compiled"].items()
        if Path(name).parent == PACKAGE
    }
    return proc.returncode, proc.stdout, compiled, set(report["modules"])


def job_mix(seed: int) -> list:
    """The ``cli_spawn`` jobs of ``seed``, imported from the benchmark
    without writing bytecode under it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    from cli_spawn import make_inputs

    return make_inputs(seed)["jobs"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    print(f"compile cost per job of cli_spawn seed {seed}, ms (PYTHONDONTWRITEBYTECODE=1)")
    out, grand = "", 0.0
    for job in job_mix(seed):
        stdin = job.get("stdin")
        if job["kind"] == "from-coords":  # it reads the result of the coords job before it
            stdin = json.dumps(json.loads(out)["result"])
        code, out, compiled, _ = run_job(job["args"], stdin)
        if code != 0:
            raise SystemExit(f"{job['args'][0]} exited {code}: {out}")
        total = 1000 * sum(compiled.values())
        grand += total
        files = "  ".join(f"{name} {1000 * s:.1f}" for name, s in compiled.items())
        print(f"{job['args'][0]:<12} {total:6.1f}  {files}")
    print(f"{'pass':<12} {grand:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

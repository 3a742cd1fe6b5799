"""Traced stand-in for one ``multiwitt`` CLI process.

    python3 perfbench/cli_child.py <trace|count> <parent perf_counter at spawn> <cli args...>

Runs ``multiwitt.cli.main`` on the given arguments with the same stdin
and stdout as the real command.  In ``trace`` mode it records spans
around the library's public functions and the time spent starting the
interpreter, importing the CLI and running the job; in ``count`` mode it
counts ring operations instead.  The figures go to stderr as one JSON
line.  ``time.perf_counter`` reads the system-wide monotonic clock on
Linux, so the parent's spawn time can be compared with ours.
"""

import time

T_ENTER = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from common import use_checkout_library  # noqa: E402
from spans import RingCounter, Tracer  # noqa: E402


def main() -> int:
    mode, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    use_checkout_library()
    import multiwitt.cli as cli

    t1 = time.perf_counter()
    probe = Tracer() if mode == "trace" else RingCounter()
    probe.install()
    t2 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        t3 = time.perf_counter()
        probe.uninstall()
    sys.stdout.flush()
    if mode == "trace":
        summary = probe.summarize()
        summary.update({"cli.interp_s": T_ENTER - spawned, "cli.import_s": t1 - t0, "cli.run_s": t3 - t2})
    else:
        summary = dict(probe.counts)
    sys.stderr.write(json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

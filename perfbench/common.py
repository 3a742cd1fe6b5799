"""Shared plumbing: checkout paths, the calibration loop and pass timing.

The calibration loop is a fixed piece of pure-Python work that shares the
interpreter's hot paths with the library (function calls, tuple indexing,
dict lookups, int and string allocation) but allocates no GC-tracked
container per iteration, so the size of the program's heap cannot reach
it.  It is timed next to every timed stretch of work; dividing by it
removes most of the speed swings of a shared machine.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

CAL_REPEATS = 2
# one calibration sample at the reference speed; set-up times are reported
# in seconds at this speed (about the quiet speed of a 2-core x86-64 cloud VM)
CAL_REF_S = 0.005
# a timed stretch of jobs is closed and bracketed by calibration samples
# once it has run this long, so no job is far from a calibration
CAL_EVERY_S = 0.25

_TABLE = tuple((i * 7919) % 251 for i in range(256))
_MAP = {i: (i * 31) & 255 for i in range(256)}
_KEYS = tuple(i * 7 for i in range(4096))
_DICT = {k: (k * 40503) % 65521 for k in _KEYS}
_STRS = tuple(str(i) for i in range(256))


def _step(a, b):
    return _TABLE[(a ^ b) & 255]


def _dispatch_loop(n=12_000):
    """Calls, tuple indexing and small-int arithmetic; no allocation."""
    table, mapping, step = _TABLE, _MAP, _step
    acc = 0
    t0 = time.perf_counter()
    for i in range(n):
        acc = step(acc, mapping[(acc + i) & 255]) + table[i & 255]
    return time.perf_counter() - t0


def _int_loop(n=6_000):
    """Lookups in a 4096-entry dict and arithmetic that allocates ints."""
    keys, table = _KEYS, _DICT
    acc = 1
    t0 = time.perf_counter()
    for i in range(n):
        acc = (acc * 1000003 + table[keys[(acc + i) & 4095]]) % 4294967291
    return time.perf_counter() - t0


def _str_loop(n=6_000):
    """Allocates and frees short strings, which the GC does not track."""
    strs = _STRS
    acc = 0
    t0 = time.perf_counter()
    for i in range(n):
        acc = (acc + len(strs[(acc + i) & 255] + strs[i & 255]) * 2654435761) & 0xFFFFFFFF
    return time.perf_counter() - t0


def calibrate() -> float:
    """One calibration sample in seconds: the sum over three short loops of
    the fastest of a few runs of each, so a single interruption does not
    count.  The loops mix interpreter dispatch with allocation so that a
    busy neighbour slows them about as much as it slows the library."""
    return sum(min(loop() for _ in range(CAL_REPEATS)) for loop in (_dispatch_loop, _int_loop, _str_loop))


def use_checkout_library():
    """Import multiwitt from this checkout's ``src`` and nowhere else."""
    if not (SRC / "multiwitt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import multiwitt

    if Path(multiwitt.__file__).resolve().parent != (SRC / "multiwitt").resolve():
        raise SystemExit(f"perfbench: multiwitt imported from {multiwitt.__file__}, not {SRC}")
    return multiwitt


def child_env() -> dict:
    """Environment for spawned library processes: this checkout's sources
    first on the path, nothing else changed."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class CalibratedClock:
    """Times a pass job by job.  Jobs are grouped into stretches of at least
    CAL_EVERY_S seconds; a calibration sample is taken between stretches,
    and each job's time is divided by the mean of the samples right before
    and right after its stretch."""

    def __init__(self):
        self.cal_samples = []
        self.job_raw = []  # seconds per job, in job order
        self.job_cal = []  # calibrated cost per job, in job order
        self._stretch = []  # indices of the jobs in the open stretch
        self._stretch_s = 0.0
        self._job_s = 0.0

    @property
    def raw_s(self):
        return sum(self.job_raw)

    def start(self):
        self.cal_samples.append(calibrate())

    def begin_job(self):
        self._job_s = 0.0

    @contextmanager
    def timing(self):
        """Time the body as part of the current job."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._job_s += time.perf_counter() - t0

    def end_job(self):
        self._stretch.append(len(self.job_raw))
        self.job_raw.append(self._job_s)
        self.job_cal.append(None)
        self._stretch_s += self._job_s
        if self._stretch_s >= CAL_EVERY_S:
            self._close()

    def finish(self):
        if self._stretch:
            self._close()

    def _close(self):
        before, after = self.cal_samples[-1], calibrate()
        self.cal_samples.append(after)
        for i in self._stretch:
            self.job_cal[i] = self.job_raw[i] / ((before + after) / 2)
        self._stretch = []
        self._stretch_s = 0.0

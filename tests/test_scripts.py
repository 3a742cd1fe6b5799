"""Smoke test: the README's scripts run to completion, pi1_table as the
README documents it (every oracle row up to order 4096) and duality_demo
at a small size.

Both import only the public API, so this catches a removal that would
otherwise break them silently."""

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
    ],
    ids=["pi1_table", "duality_demo"],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

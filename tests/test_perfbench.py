"""The benchmark's traced mode wraps program functions by name
(``install_tracer`` in ``perfbench/worker.py``), so renaming or removing one
of them breaks ``perfbench/run.py --trace 1``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_worker_sets_up():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", "fpu-p10",
         "--seed", "0", "--trace", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

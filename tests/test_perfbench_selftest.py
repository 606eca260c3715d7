"""The benchmark's self-test, so that a change to ``src/`` that breaks an API
or gate the benchmark relies on fails here too.

``perfbench/selftest.py`` runs every workload at tiny size, imports straindec
from ``src/`` of this checkout and writes only under ``perfbench/out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr

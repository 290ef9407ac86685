"""The benchmark's own smoke test runs clean against the library in `src/`,
so a library change that breaks a benchmark check fails the suite."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "smoke.py")], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "0 failure(s)"

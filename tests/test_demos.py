"""Every demo script runs to completion against the library in `src/`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = {"04_entropy_rates.py", "05_variational_principle.py"}  # 8-10 s each


@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(p, id=p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
        for p in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

"""Importing the library, and a `coverentropy run` of the sample config, load
no scipy module: scipy is needed only by the Nelder-Mead searches of
`principles`, which import it when called."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "demos" / "config" / "sample_experiment.json"
SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _fresh_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    out = _fresh_python(
        f"import sys, coverentropy, coverentropy.cli; print({SCIPY_LOADED})"
    )
    assert out == "[]"


def test_sample_run_loads_no_scipy(tmp_path):
    out = _fresh_python(
        "import sys\n"
        "from coverentropy import cli\n"
        f"status = cli.main(['run', '--config', {str(SAMPLE)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        f"print(status, {SCIPY_LOADED})"
    )
    assert out == "0 []"
    assert (tmp_path / "out" / "summary.csv").exists()

"""The library runs on numpy alone: importing it, a `coverentropy run` of the
sample config, and the Nelder-Mead searches of `principles` (an in-repo
port) load no scipy module.  scipy is only the tests' oracle."""

import json
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


def test_searches_load_no_scipy(tmp_path):
    doc = json.loads(SAMPLE.read_text())
    doc["tasks"] = [{"kind": "variational", "cover": "overlap2",
                     "conditioner": "whole", "n_max": 3, "starts": 1,
                     "max_iter": 5}]
    config = tmp_path / "variational.json"
    config.write_text(json.dumps(doc))
    out = _fresh_python(
        "import sys\n"
        "import coverentropy as ce\n"
        "from coverentropy import cli\n"
        "gm = ce.golden_mean()\n"
        "U = ce.family_of_words(gm, 2, [['00', '10'], ['01', '10']], 'cover')\n"
        "beta = ce.cylinder_partition(gm, 1)\n"
        "mu = ce.markov(gm, [[0.9, 0.1], [1.0, 0.0]])\n"
        "ce.variational_search(gm, U, beta, n_max=3, starts=1, max_iter=5)\n"
        "ce.minmax_check(gm, U, beta, [mu], n_max=3, refine_starts=1, refine_iter=5)\n"
        f"status = cli.main(['run', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        f"print(status, {SCIPY_LOADED})"
    )
    assert out == "0 []"
    assert (tmp_path / "out" / "summary.csv").exists()

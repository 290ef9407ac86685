"""The runner forwards only the options that a task or a flag sets, so the
library's defaults apply to the rest and every option that is set arrives."""

import csv
import inspect

from coverentropy import cli, dynamic_entropy, principles
from test_config_cli import write_config


def summary(out):
    return list(csv.DictReader(open(out / "summary.csv")))


def default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_tolerance_reaches_ergodic_check(tmp_path):
    task = {"kind": "ergodic_check", "measure": "parry", "family": "letters",
            "conditioner": "whole", "n_max": 4}
    path = write_config(tmp_path, [task, dict(task, tolerance=0.25)])
    assert cli.run(path, tmp_path / "task") == 0
    unset, given = summary(tmp_path / "task")
    assert given["tolerance"] == "0.25"
    assert float(unset["tolerance"]) < 0.25  # the library's own rule
    assert cli.run(path, tmp_path / "flag", tolerance=0.5) == 0
    assert [r["tolerance"] for r in summary(tmp_path / "flag")] == ["0.5", "0.5"]


def test_unset_options_take_the_library_defaults(tmp_path):
    tasks = [
        {"kind": "power_check", "measure": "parry", "cover": "letters",
         "conditioner": "whole", "M": 2},
        {"kind": "ergodic_check", "measure": "parry", "family": "letters",
         "conditioner": "whole"},
    ]
    path = write_config(tmp_path, tasks)
    assert cli.run(path, tmp_path / "out") == 0
    power, ergodic = summary(tmp_path / "out")
    check = dynamic_entropy.power_identity_check
    assert power["n_max"] == str(default(check, "n_max"))
    assert power["tolerance"] == str(default(check, "tolerance"))
    check = principles.ergodic_additivity_check
    assert ergodic["n_max"] == str(default(check, "n_max"))

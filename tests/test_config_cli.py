import csv
import json
import math
from pathlib import Path

import pytest

from coverentropy import cli, config, static_entropy


BASE_CONFIG = {
    "seed": 11,
    "system": {"kind": "sft", "transition": [[1, 1], [1, 0]]},
    "measures": {
        "parry": {
            "kind": "markov",
            "P": [[0.6180339887498949, 0.3819660112501051], [1.0, 0.0]],
        },
        "lopsided": {"kind": "markov", "P": [[0.8, 0.2], [1.0, 0.0]]},
    },
    "families": {
        "letters": {"kind": "partition", "elements": [["0"], ["1"]]},
        "whole": {"kind": "partition", "elements": [["0", "1"]]},
        "overlap": {"kind": "cover", "elements": [["00", "01"], ["01", "10"]]},
    },
    "factor_maps": {
        "identity": {
            "codomain": {"kind": "sft", "transition": [[1, 1], [1, 0]]},
            "block_length": 1,
            "code": {"0": 0, "1": 1},
        }
    },
    "tasks": [],
}


def write_config(tmp_path, tasks, **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["tasks"] = tasks
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_empty_task_list(tmp_path):
    path = write_config(tmp_path, [])
    out = tmp_path / "out"
    assert cli.run(path, out) == 0
    rows = list(csv.reader(open(out / "summary.csv")))
    assert len(rows) == 1  # header only


def test_static_task_writes_nine_decimals(tmp_path):
    tasks = [{"kind": "static", "measure": "parry", "cover": "overlap",
              "conditioner": "letters"}]
    path = write_config(tmp_path, tasks)
    out = tmp_path / "out"
    assert cli.run(path, out) == 0
    rows = list(csv.reader(open(out / "task_00_static.csv")))
    assert rows[0] == ["quantity", "value", "method"]
    value = rows[1][1]
    assert len(value.split(".")[1]) == 9


def test_unresolved_name_exits_2(tmp_path, capsys):
    tasks = [{"kind": "static", "measure": "mu7", "cover": "overlap",
              "conditioner": "letters"}]
    path = write_config(tmp_path, tasks)
    assert cli.run(path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "NAME_UNRESOLVED" in err and "task 0" in err


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.run(path, tmp_path / "out") == 2


def test_unknown_task_kind_rejected(tmp_path):
    path = write_config(tmp_path, [{"kind": "frobnicate"}])
    assert cli.run(path, tmp_path / "out") == 2


def test_estimate_tasks_and_summary(tmp_path):
    tasks = [
        {"kind": "h_top", "cover": "letters", "conditioner": "whole", "n_max": 6},
        {"kind": "h_minus", "measure": "parry", "cover": "letters",
         "conditioner": "whole", "n_max": 6},
        {"kind": "count", "cover": "overlap", "conditioner": "whole"},
        {"kind": "power_check", "measure": "parry", "cover": "letters",
         "conditioner": "whole", "M": 2, "n_max": 2},
    ]
    path = write_config(tmp_path, tasks)
    out = tmp_path / "out"
    assert cli.run(path, out) == 0
    est = json.loads((out / "task_01_h_minus.json").read_text())
    assert est["quantity"] == "joined_cover_rate"
    assert len(est["sequence"]) == 6
    rows = list(csv.reader(open(out / "summary.csv")))
    assert len(rows) == 5
    assert rows[3][1] == "count"


def test_bits_option_rescales_exactly(tmp_path):
    tasks = [{"kind": "h_top", "cover": "letters", "conditioner": "whole",
              "n_max": 5}]
    path = write_config(tmp_path, tasks)
    cli.run(path, tmp_path / "nats")
    cli.run(path, tmp_path / "bits", bits=True)
    nats = list(csv.reader(open(tmp_path / "nats" / "task_00_h_top.csv")))
    bits = list(csv.reader(open(tmp_path / "bits" / "task_00_h_top.csv")))
    for (n_row, b_row) in zip(nats[1:], bits[1:]):
        assert float(b_row[1]) == pytest.approx(
            float(n_row[1]) / math.log(2), abs=1e-9
        )


def test_run_is_deterministic(tmp_path):
    tasks = [
        {"kind": "h_minus", "measure": "lopsided", "cover": "overlap",
         "conditioner": "letters", "n_max": 4},
        {"kind": "bracket", "measure": "lopsided", "cover": "overlap",
         "conditioner": "letters", "n_max": 4, "windows": [2]},
    ]
    path = write_config(tmp_path, tasks)
    assert cli.run(path, tmp_path / "a") == 0
    assert cli.run(path, tmp_path / "b") == 0
    for name in ("task_00_h_minus.csv", "task_01_bracket.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_text() == (
            tmp_path / "b" / name
        ).read_text()


def test_factor_check_task(tmp_path):
    tasks = [
        {"kind": "factor_check", "factor": "identity", "measure": "parry",
         "cover": "letters", "conditioner": "whole", "n_max": 4},
    ]
    path = write_config(tmp_path, tasks)
    out = tmp_path / "out"
    assert cli.run(path, out) == 0
    rep = json.loads((out / "task_00_factor_check.json").read_text())
    assert rep["verdict"] == "holds_within_tol"


def test_codomain_family_reference(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["families"]["cod_letters"] = {
        "kind": "partition",
        "elements": [["0"], ["1"]],
        "on": "identity",
    }
    doc["tasks"] = [
        {"kind": "factor_check", "factor": "identity", "measure": "parry",
         "cover": "cod_letters", "conditioner": "whole", "n_max": 3}
    ]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.run(path, tmp_path / "out") == 0


def test_permutation_config(tmp_path):
    doc = {
        "system": {"kind": "permutation", "mapping": [1, 0, 3, 4, 2]},
        "measures": {"uni": {"kind": "cycles", "weights": [0.4, 0.6]}},
        "families": {
            "pair": {"kind": "partition", "elements": [[0, 1], [2, 3, 4]]},
            "whole": {"kind": "partition", "elements": [[0, 1, 2, 3, 4]]},
        },
        "tasks": [
            {"kind": "static", "measure": "uni", "cover": "pair",
             "conditioner": "whole"},
            {"kind": "ergodic_check", "measure": "uni", "family": "pair",
             "conditioner": "whole", "n_max": 6},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.run(path, tmp_path / "out") == 0


def test_main_entrypoint_run(tmp_path):
    path = write_config(tmp_path, [])
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "static", "measure": "parry", "cover": "overlap"},
        {"kind": "h_minus", "cover": "letters", "conditioner": "whole"},
        {"kind": "minmax", "cover": "overlap", "conditioner": "letters"},
        {"kind": "minmax", "cover": "overlap", "conditioner": "letters",
         "measures": []},
        {"kind": "h_top", "cover": "letters", "conditioner": "whole", "n_max": 1},
        {"kind": "h_top", "cover": "letters", "conditioner": "whole", "n_max": "6"},
        ["h_top", "letters", "whole"],
    ],
)
def test_invalid_task_exits_2(tmp_path, capsys, task):
    path = write_config(tmp_path, [task])
    assert cli.run(path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "BAD_CONFIG" in err and "task 0" in err


def test_variational_on_permutation_system_exits_2(tmp_path, capsys):
    doc = {
        "system": {"kind": "permutation", "mapping": [1, 0, 2]},
        "families": {
            "pair": {"kind": "cover", "elements": [[0, 1], [1, 2]]},
            "whole": {"kind": "partition", "elements": [[0, 1, 2]]},
        },
        "tasks": [{"kind": "variational", "cover": "pair", "conditioner": "whole",
                   "n_max": 3}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.run(path, tmp_path / "out") == 2
    assert "BAD_CONFIG" in capsys.readouterr().err


def test_n_max_override_below_two_exits_2(tmp_path):
    tasks = [{"kind": "h_top", "cover": "letters", "conditioner": "whole",
              "n_max": 5}]
    path = write_config(tmp_path, tasks)
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--n-max", "1"])
    assert code == 2


@pytest.mark.parametrize("budget", ["many", -1, True])
def test_bad_budget_exits_2(tmp_path, capsys, budget):
    # the budget reaches the finer-partition enumeration, which compares it
    # with the assignment count; anything but a non-negative int is refused
    # with the document, not met there as a TypeError
    tasks = [{"kind": "h_plus", "measure": "parry", "cover": "overlap",
              "conditioner": "letters", "n_max": 2, "budget": budget}]
    path = write_config(tmp_path, tasks)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "BAD_CONFIG" in err and "task 0" in err and "budget" in err


TASKS = {
    "static": {"measure": "parry", "cover": "overlap", "conditioner": "letters"},
    "count": {"cover": "overlap", "conditioner": "whole"},
    "h_minus": {"measure": "parry", "cover": "letters", "conditioner": "whole"},
    "h_plus": {"measure": "parry", "cover": "overlap", "conditioner": "letters"},
    "h_top": {"cover": "letters", "conditioner": "whole"},
    "power_check": {"measure": "parry", "cover": "letters", "conditioner": "whole",
                    "M": 2},
    "factor_check": {"factor": "identity", "measure": "parry", "cover": "letters",
                     "conditioner": "whole"},
    "variational": {"cover": "letters", "conditioner": "whole"},
    "minmax": {"cover": "overlap", "conditioner": "whole",
               "measures": ["parry", "lopsided"]},
    "bracket": {"measure": "lopsided", "cover": "overlap", "conditioner": "letters"},
    "ergodic_check": {"measure": "parry", "family": "letters",
                      "conditioner": "whole"},
    "factor_cond": {"measure": "lopsided", "factor": "identity", "cover": "overlap"},
}


def a_task(kind, **keys):
    return {"kind": kind, **TASKS[kind], "n_max": 3, **keys}


@pytest.mark.parametrize(
    "task, key",
    [
        # a value of another type, which the library would meet only in use
        (a_task("h_plus", window="x"), "window"),
        (a_task("bracket", windows="ab"), "windows"),
        (a_task("bracket", windows=3), "windows"),
        (a_task("bracket", windows=[]), "windows"),
        (a_task("bracket", tolerance="x"), "tolerance"),
        (a_task("power_check", M="two"), "M"),
        (a_task("variational", starts="two"), "starts"),
        (a_task("static", cover=["overlap"]), "cover"),
        (a_task("h_top", n_max=None), "n_max"),
        # a number out of its key's range; a float M is not rounded
        (a_task("power_check", M=2.7), "M"),
        (a_task("power_check", M=0), "M"),
        (a_task("ergodic_check", tolerance=-1), "tolerance"),
        (a_task("bracket", tolerance=float("nan")), "tolerance"),
        # a key without a rule, a missing kind and an unhashable one
        (a_task("h_top", windw=2), "windw"),
        ({"cover": "letters", "conditioner": "whole"}, "kind"),
        (dict(a_task("h_top"), kind=["h_top"]), "kind"),
    ],
)
def test_bad_task_key_exits_2(tmp_path, capsys, task, key):
    path = write_config(tmp_path, [task])
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "BAD_CONFIG" in err and "task 0" in err and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"seed": "abc"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"measures": []}, "measures"),
        ({"families": {"letters": "0 1"}}, "families"),
        ({"tasks": {}}, "tasks"),
        ({"comment": "x"}, "comment"),
    ],
)
def test_bad_document_key_exits_2(tmp_path, capsys, overrides, key):
    path = write_config(tmp_path, **{"tasks": [a_task("h_top")], **overrides})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "BAD_CONFIG" in err and "document" in err and key in err
    assert "task 0" not in err


@pytest.mark.parametrize("flag", [["--n-max", "1"], ["--tolerance", "-0.5"],
                                  ["--tolerance", "nan"], ["--seed", "-1"]])
def test_bad_override_exits_2(tmp_path, capsys, flag):
    path = write_config(tmp_path, [a_task("ergodic_check")])
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o"),
                     *flag]) == 2
    assert "BAD_CONFIG" in capsys.readouterr().err


# a valid value for every option, different from each library default
SET_OPTIONS = {"n_max": 4, "window": 2, "windows": [2], "budget": 500,
               "tolerance": 0.5, "starts": 1, "max_iter": 5}


@pytest.mark.parametrize("kind", list(config.TASK_KINDS))
def test_every_option_set_runs(tmp_path, kind):
    options = {key: SET_OPTIONS[key] for key in config.TASK_OPTIONS[kind]}
    path = write_config(tmp_path, [{"kind": kind, **TASKS[kind], **options}])
    out = tmp_path / "out"
    assert cli.run(path, out) == 0
    (row,) = csv.DictReader(open(out / "summary.csv"))
    if "n_max" in options:
        assert row["n_max"] == "4"
    if "tolerance" in options:
        assert row["tolerance"] == "0.5"


def test_minmax_budget_reaches_the_enumeration(tmp_path):
    # two finer partitions at window 2: a budget of one refuses them, and the
    # check falls back to the ordered-difference partitions
    task = a_task("minmax", window=2, budget=1)
    path = write_config(tmp_path, [task])
    out = tmp_path / "out"
    assert cli.run(path, out) == 0
    rep = json.loads((out / "task_00_minmax.json").read_text())
    assert rep["details"]["used_ext_fallback"] is True


def readme_tables():
    """Each table of the README, by its first header cell, as rows of cells
    with the backquotes taken off."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tables, rows = {}, None
    for line in readme.splitlines():
        cells = [c.strip().replace("`", "") for c in line.strip("|").split("|")]
        if not line.startswith("|"):
            rows = None
        elif rows is None:
            rows = tables[cells[0]] = []
        elif cells[0].strip("-"):
            rows.append(cells)
    return tables


def test_readme_tables_match_config():
    tables = readme_tables()

    def names(cell):
        return tuple(n.strip() for n in cell.split(",")) if cell != "—" else ()

    assert {row[0]: (names(row[1]), names(row[2])) for row in tables["kind"]} == {
        kind: (keys, config.TASK_OPTIONS[kind])
        for kind, keys in config.TASK_KINDS.items()
    }
    for header, rules in (("task key", config.TASK_RULES),
                          ("document key", config.DOCUMENT_RULES)):
        assert dict(tables[header]) == {key: rule for key, (rule, _) in rules.items()}


@pytest.mark.parametrize(
    "kind", [k for k, keys in config.TASK_KINDS.items() if "conditioner" in keys]
)
def test_cover_as_conditioner_exits_2(tmp_path, capsys, kind):
    # every kind conditions on a partition; a cover there is an input error,
    # reported with exit 2, not a traceback
    task = {"kind": kind, "measure": "parry", "cover": "overlap", "family": "overlap",
            "conditioner": "overlap", "factor": "identity", "M": 2,
            "measures": ["parry"], "n_max": 3}
    path = write_config(tmp_path, [task])
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "task 0 input error" in err and "partition" in err


def test_letter_outside_the_alphabet_exits_2(tmp_path, capsys):
    # on the 2-letter golden mean, "02" used to be read as the word 10
    fams = dict(BASE_CONFIG["families"],
                bad={"kind": "cover", "elements": [["02"], ["00", "01", "10"]]})
    path = write_config(tmp_path, [], families=fams)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "INVALID_FAMILY" in err and "outside" in err


@pytest.mark.parametrize("measure, message", [
    ({"kind": "markov", "P": [[1.0], [1.0]]}, "P must have shape (2, 2)"),
    ({"kind": "markov", "P": [[0.5, 0.5]]}, "P must have shape (2, 2)"),
    ({"kind": "markov", "P": [[0.8, 0.2], [1.0, 0.0]], "pi": [1.0]}, "pi must have shape (2,)"),
    ({"kind": "bernoulli", "p": [1.0]}, "p must have shape (2,)"),
], ids=["P-column", "P-row", "pi-short", "p-short"])
def test_mis_shaped_measure_exits_2(tmp_path, capsys, measure, message):
    # these used to end in an IndexError or a matmul error traceback
    path = write_config(tmp_path, [], measures=dict(BASE_CONFIG["measures"], parry=measure))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "INVALID_MEASURE" in err and message in err


def test_family_without_elements_exits_2(tmp_path, capsys):
    fams = dict(BASE_CONFIG["families"], empty={"kind": "cover", "elements": []})
    path = write_config(tmp_path, [], families=fams)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "INVALID_FAMILY" in err and "needs at least one element" in err


def test_route_disagreement_still_exits_1(tmp_path, capsys, monkeypatch):
    # a RouteDisagreement is an EntropyError, but it stays an identity
    # violation: exit 1 and a FAILED row in the summary
    def disagree(*args, **kwargs):
        raise static_entropy.RouteDisagreement("tampered route")

    monkeypatch.setattr(static_entropy, "conditional_cover_entropy", disagree)
    tasks = [{"kind": "static", "measure": "parry", "cover": "overlap",
              "conditioner": "letters"}]
    path = write_config(tmp_path, tasks)
    out = tmp_path / "out"
    assert cli.run(path, out) == 1
    assert "identity violation" in capsys.readouterr().err
    rows = list(csv.reader(open(out / "summary.csv")))
    assert rows[1][2] == "FAILED"

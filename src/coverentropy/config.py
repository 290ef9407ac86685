"""Experiment configuration: one JSON document naming a system, measures,
families, factor maps, and a task list.  Words are written as digit strings;
permutation carriers use point-index lists.

Errors carry machine-readable codes so the runner can map them to exit
statuses: BAD_CONFIG (malformed document), NAME_UNRESOLVED (dangling
reference), INVALID_FAMILY / INVALID_MEASURE / INVALID_SYSTEM (object fails
its invariants).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import families, measures, systems

# every task kind with the keys its runner reads without a default
TASK_KINDS = {
    "static": ("measure", "cover", "conditioner"),
    "count": ("cover", "conditioner"),
    "h_minus": ("measure", "cover", "conditioner"),
    "h_plus": ("measure", "cover", "conditioner"),
    "h_top": ("cover", "conditioner"),
    "power_check": ("measure", "cover", "conditioner", "M"),
    "factor_check": ("factor", "measure", "cover", "conditioner"),
    "variational": ("cover", "conditioner"),
    "minmax": ("measures", "cover", "conditioner"),
    "bracket": ("measure", "cover", "conditioner"),
    "ergodic_check": ("measure", "family", "conditioner"),
    "factor_cond": ("measure", "factor", "cover"),
}


class ConfigError(ValueError):
    def __init__(self, code: str, message: str, task_index=None):
        prefix = f"task {task_index}: " if task_index is not None else ""
        super().__init__(f"[{code}] {prefix}{message}")
        self.code = code
        self.task_index = task_index


@dataclass
class ExperimentConfig:
    system: systems.SymbolicSystem
    measures: dict
    families: dict
    factor_maps: dict
    tasks: list[dict]
    seed: int = 0

    def measure(self, name: str, task_index=None):
        return _resolve(self.measures, name, "measure", task_index)

    def family(self, name: str, task_index=None) -> families.SetFamily:
        return _resolve(self.families, name, "family", task_index)

    def factor_map(self, name: str, task_index=None) -> systems.FactorMap:
        return _resolve(self.factor_maps, name, "factor map", task_index)


def _resolve(table, name, what, task_index):
    if name not in table:
        raise ConfigError(
            "NAME_UNRESOLVED", f"{what} {name!r} is not defined", task_index
        )
    return table[name]


def _build_system(desc) -> systems.SymbolicSystem:
    try:
        kind = desc["kind"]
        if kind == "full_shift":
            return systems.full_shift(int(desc["alphabet_size"]))
        if kind == "sft":
            return systems.sft(desc["transition"])
        if kind == "permutation":
            return systems.permutation(desc["mapping"])
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError("BAD_CONFIG", f"system descriptor missing {e}") from e
    except (ValueError, TypeError) as e:
        raise ConfigError("INVALID_SYSTEM", str(e)) from e
    raise ConfigError("BAD_CONFIG", f"unknown system kind {desc.get('kind')!r}")


def _build_measure(sys, desc):
    try:
        kind = desc["kind"]
        if kind == "bernoulli":
            return measures.bernoulli(sys, desc["p"])
        if kind == "markov":
            return measures.markov(sys, desc["P"], desc.get("pi"))
        if kind == "cycles":
            return measures.cycle_measure(sys, desc["weights"])
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError("BAD_CONFIG", f"measure descriptor missing {e}") from e
    except (ValueError, TypeError) as e:
        raise ConfigError("INVALID_MEASURE", str(e)) from e
    raise ConfigError("BAD_CONFIG", f"unknown measure kind {desc.get('kind')!r}")


def _build_family(sys, desc) -> families.SetFamily:
    try:
        kind = desc["kind"]
        elements = desc["elements"]
        if sys.is_word_system:
            lengths = {len(str(w)) for elem in elements for w in elem}
            if len(lengths) != 1:
                raise ConfigError(
                    "INVALID_FAMILY", "family words must share one window length"
                )
            window = desc.get("window", lengths.pop())
            return families.family_of_words(sys, window, elements, kind)
        return families.family_of_points(sys, elements, kind)
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError("BAD_CONFIG", f"family descriptor missing {e}") from e
    except (ValueError, TypeError) as e:
        raise ConfigError("INVALID_FAMILY", str(e)) from e


def _build_factor_map(sys, desc) -> systems.FactorMap:
    try:
        codomain = _build_system(desc["codomain"])
        b = int(desc["block_length"])
        blocks = systems.word_universe(sys, b)
        table = desc["code"]
        code = []
        for i in range(blocks.count):
            key = "".join(str(v) for v in blocks.word(i))
            if key not in table:
                raise ConfigError(
                    "BAD_CONFIG", f"code missing block {key!r}"
                )
            code.append(int(table[key]))
        return systems.FactorMap(sys, codomain, b, tuple(code))
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError("BAD_CONFIG", f"factor map descriptor missing {e}") from e
    except (ValueError, TypeError) as e:
        raise ConfigError("INVALID_SYSTEM", str(e)) from e


def _check_task(task, i, sys):
    if not isinstance(task, dict):
        raise ConfigError("BAD_CONFIG", "a task must be an object", i)
    kind = task.get("kind")
    if kind not in TASK_KINDS:
        raise ConfigError("BAD_CONFIG", f"unknown task kind {kind!r}", i)
    missing = [key for key in TASK_KINDS[kind] if key not in task]
    if missing:
        raise ConfigError(
            "BAD_CONFIG", f"{kind} task is missing {', '.join(missing)}", i
        )
    if kind == "variational" and not sys.is_word_system:
        raise ConfigError("BAD_CONFIG", "variational needs a word system", i)
    grid = task.get("measures")
    if kind == "minmax" and not (isinstance(grid, list) and grid):
        raise ConfigError("BAD_CONFIG", "minmax needs a non-empty measures list", i)
    n_max = task.get("n_max")
    if n_max is not None and (type(n_max) is not int or n_max < 2):
        raise ConfigError(
            "BAD_CONFIG", f"n_max must be an integer >= 2, not {n_max!r}", i
        )


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError("BAD_CONFIG", f"cannot read config: {e}") from e
    if not isinstance(doc, dict) or "system" not in doc:
        raise ConfigError("BAD_CONFIG", "config must be an object with a system")
    sys = _build_system(doc["system"])
    meas = {
        name: _build_measure(sys, d) for name, d in doc.get("measures", {}).items()
    }
    maps = {
        name: _build_factor_map(sys, d)
        for name, d in doc.get("factor_maps", {}).items()
    }
    fams = {}
    for name, d in doc.get("families", {}).items():
        carrier_sys = sys
        on = d.get("on")
        if on is not None:  # families may live on a factor map's codomain
            if on not in maps:
                raise ConfigError(
                    "NAME_UNRESOLVED", f"family {name!r} refers to factor {on!r}"
                )
            carrier_sys = maps[on].codomain
        fams[name] = _build_family(carrier_sys, d)
    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list):
        raise ConfigError("BAD_CONFIG", "tasks must be a list")
    for i, task in enumerate(tasks):
        _check_task(task, i, sys)
    return ExperimentConfig(
        system=sys,
        measures=meas,
        families=fams,
        factor_maps=maps,
        tasks=tasks,
        seed=int(doc.get("seed", 0)),
    )

"""Experiment configuration: one JSON document naming a system, measures,
families, factor maps, and a task list.  Words are written as digit strings;
permutation carriers use point-index lists.

Three tables hold the task schema: `TASK_KINDS` (the names and values a kind
needs), `TASK_OPTIONS` (the options it forwards when they are set) and
`TASK_RULES` (what every task key may hold); `DOCUMENT_RULES` does the same
for the document's own keys.  `load_config` checks every key present, so a
bad value is refused where the document enters.

Errors carry machine-readable codes so the runner can map them to exit
statuses: BAD_CONFIG (malformed document), NAME_UNRESOLVED (dangling
reference), INVALID_FAMILY / INVALID_MEASURE / INVALID_SYSTEM (object fails
its invariants).
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import families, measures, systems

# every task kind with the keys it needs, in the order its library call
# takes them
TASK_KINDS = {
    "static": ("measure", "cover", "conditioner"),
    "count": ("cover", "conditioner"),
    "h_minus": ("measure", "cover", "conditioner"),
    "h_plus": ("measure", "cover", "conditioner"),
    "h_top": ("cover", "conditioner"),
    "power_check": ("measure", "cover", "conditioner", "M"),
    "factor_check": ("factor", "measure", "cover", "conditioner"),
    "variational": ("cover", "conditioner"),
    "minmax": ("cover", "conditioner", "measures"),
    "bracket": ("measure", "cover", "conditioner"),
    "ergodic_check": ("measure", "family", "conditioner"),
    "factor_cond": ("measure", "factor", "cover"),
}

# the options each kind forwards when a task or a run override sets them;
# the library's own defaults stand for the rest
TASK_OPTIONS = {
    "static": (),
    "count": (),
    "h_minus": ("n_max",),
    "h_plus": ("n_max", "window", "budget"),
    "h_top": ("n_max",),
    "power_check": ("n_max", "tolerance"),
    "factor_check": ("n_max", "tolerance"),
    "variational": ("n_max", "starts", "max_iter", "tolerance"),
    "minmax": ("n_max", "window", "budget", "tolerance"),
    "bracket": ("n_max", "windows", "tolerance"),
    "ergodic_check": ("n_max", "tolerance"),
    "factor_cond": ("n_max", "windows"),
}


def _integer(least):
    return f"an integer >= {least}", lambda v: type(v) is int and v >= least


def _list_of(what, holds):
    return (f"a non-empty list of {what}",
            lambda v: isinstance(v, list) and len(v) > 0 and all(map(holds, v)))


_NAME = "a name", lambda v: isinstance(v, str)
_OBJECTS = "an object of objects", lambda v: isinstance(v, dict) and all(
    isinstance(d, dict) for d in v.values()
)

# what every key may hold: (the rule as the error states it, its test);
# bools are not integers here, although Python counts them as such
TASK_RULES = {
    "kind": ("one of " + ", ".join(TASK_KINDS),
             lambda v: isinstance(v, str) and v in TASK_KINDS),
    "measure": _NAME,
    "cover": _NAME,
    "conditioner": _NAME,
    "family": _NAME,
    "factor": _NAME,
    "measures": _list_of("names", _NAME[1]),
    "M": _integer(1),
    "n_max": _integer(2),
    "window": _integer(1),
    "windows": _list_of("integers >= 1", _integer(1)[1]),
    "budget": _integer(0),
    "starts": _integer(1),
    "max_iter": _integer(1),
    "tolerance": ("a finite number >= 0",
                  lambda v: type(v) in (int, float) and 0 <= v < math.inf),
}
DOCUMENT_RULES = {
    "seed": _integer(0),
    "system": ("an object", lambda v: isinstance(v, dict)),
    "measures": _OBJECTS,
    "families": _OBJECTS,
    "factor_maps": _OBJECTS,
    "tasks": ("a list", lambda v: isinstance(v, list)),
}

# the document section that a task's name keys refer to
_SECTIONS = {"measure": "measures", "cover": "families", "conditioner": "families",
             "family": "families", "factor": "factor_maps"}


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
    overrides: dict = field(default_factory=dict)

    def arguments(self, i) -> list:
        """Task i's keys of `TASK_KINDS`, names resolved, in call order."""
        task = self.tasks[i]
        return [self._resolve(key, task[key], i) for key in TASK_KINDS[task["kind"]]]

    def options(self, i) -> dict:
        """The options of task i that it or a run override sets."""
        given = {**self.tasks[i], **self.overrides}
        return {key: given[key] for key in TASK_OPTIONS[given["kind"]] if key in given}

    def _resolve(self, key, value, i):
        if key == "measures":
            return [self._resolve("measure", name, i) for name in value]
        if key not in _SECTIONS:
            return value
        table = getattr(self, _SECTIONS[key])
        if value not in table:
            raise ConfigError("NAME_UNRESOLVED", f"{key} {value!r} is not defined", i)
        return table[value]


def _check_keys(obj, rules, where, i=None):
    """Refuse a key without a rule, or a value its rule does not hold."""
    for key, value in obj.items():
        if key not in rules:
            raise ConfigError("BAD_CONFIG", f"unknown {where}key {key!r}", i)
        rule, holds = rules[key]
        if not holds(value):
            raise ConfigError(
                "BAD_CONFIG", f"{where}{key} must be {rule}, not {value!r}", i
            )


@contextlib.contextmanager
def _descriptor(what, code):
    """Report a descriptor's missing key as BAD_CONFIG and the rejection of
    the object it describes under `code`."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError("BAD_CONFIG", f"{what} descriptor missing {e}") from e
    except (ValueError, TypeError) as e:
        raise ConfigError(code, str(e)) from e


def _build_system(desc) -> systems.SymbolicSystem:
    with _descriptor("system", "INVALID_SYSTEM"):
        kind = desc["kind"]
        if kind == "full_shift":
            return systems.full_shift(int(desc["alphabet_size"]))
        if kind == "sft":
            return systems.sft(desc["transition"])
        if kind == "permutation":
            return systems.permutation(desc["mapping"])
    raise ConfigError("BAD_CONFIG", f"unknown system kind {kind!r}")


def _build_measure(sys, desc):
    with _descriptor("measure", "INVALID_MEASURE"):
        kind = desc["kind"]
        if kind == "bernoulli":
            return measures.bernoulli(sys, desc["p"])
        if kind == "markov":
            return measures.markov(sys, desc["P"], desc.get("pi"))
        if kind == "cycles":
            return measures.cycle_measure(sys, desc["weights"])
    raise ConfigError("BAD_CONFIG", f"unknown measure kind {kind!r}")


def _build_family(sys, desc) -> families.SetFamily:
    with _descriptor("family", "INVALID_FAMILY"):
        kind = desc["kind"]
        elements = desc["elements"]
        if sys.is_word_system:
            lengths = {len(str(w)) for elem in elements for w in elem}
            if len(lengths) > 1:
                raise ConfigError(
                    "INVALID_FAMILY", "family words must share one window length"
                )
            window = desc.get("window", min(lengths, default=1))  # no words: refused
            return families.family_of_words(sys, window, elements, kind)
        return families.family_of_points(sys, elements, kind)


def _build_factor_map(sys, desc) -> systems.FactorMap:
    with _descriptor("factor map", "INVALID_SYSTEM"):
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


def _check_task(task, i, sys):
    if not isinstance(task, dict):
        raise ConfigError("BAD_CONFIG", "a task must be an object", i)
    _check_keys(task, TASK_RULES, "", i)
    kind = task.get("kind")
    missing = [key for key in ("kind",) + TASK_KINDS.get(kind, ()) if key not in task]
    if missing:
        raise ConfigError("BAD_CONFIG", f"task is missing {', '.join(missing)}", i)
    if kind == "variational" and not sys.is_word_system:
        raise ConfigError("BAD_CONFIG", "variational needs a word system", i)


def load_config(path, seed=None, n_max=None, tolerance=None) -> ExperimentConfig:
    """The checked document at `path`.  A `seed` that is given stands for the
    document's, and an `n_max` or `tolerance` for every task's."""
    _check_keys({} if seed is None else {"seed": seed}, DOCUMENT_RULES, "override ")
    overrides = {key: v for key, v in (("n_max", n_max), ("tolerance", tolerance))
                 if v is not None}
    _check_keys(overrides, TASK_RULES, "override ")
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ConfigError("BAD_CONFIG", f"cannot read config: {e}") from e
    if not isinstance(doc, dict) or "system" not in doc:
        raise ConfigError("BAD_CONFIG", "config must be an object with a system")
    _check_keys(doc, DOCUMENT_RULES, "document ")
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
        on = d.get("on")  # families may live on a factor map's codomain
        if on is not None and not (isinstance(on, str) and on in maps):
            raise ConfigError(
                "NAME_UNRESOLVED", f"family {name!r} refers to factor {on!r}"
            )
        fams[name] = _build_family(sys if on is None else maps[on].codomain, d)
    tasks = doc.get("tasks", [])
    for i, task in enumerate(tasks):
        _check_task(task, i, sys)
    return ExperimentConfig(
        system=sys,
        measures=meas,
        families=fams,
        factor_maps=maps,
        tasks=tasks,
        seed=doc.get("seed", 0) if seed is None else seed,
        overrides=overrides,
    )

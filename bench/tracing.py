"""Per-layer tracing from outside the library.

`Tracer.install()` replaces the public functions listed in `LAYERS` by
wrappers that record one span (name, start, end, parent) per call, and
`uninstall()` puts the originals back, so untraced passes run the library
unchanged.  A function is replaced wherever a module of the package holds
it, which also catches calls made inside its own module (they resolve
through module globals) and names imported with `from ... import`.

`bitsets` is deliberately not wrapped: it runs about a million times per
pass in inner loops, and its cost stays inside the self time of the
`static_entropy` function that called it.  Private helpers are likewise
folded into the self time of their public caller.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

import coverentropy
from coverentropy.static_entropy import HEURISTIC

LAYERS = {
    "systems": ("word_universe", "power_system"),
    "families": ("dynamical_join", "join", "extend_window", "ustar_enumerate", "pullback"),
    "measures": ("weights_for", "stationary_of", "markov", "power_measure"),
    "static_entropy": ("conditional_cover_entropy", "conditional_entropy",
                       "covering_number", "covering_number_exhaustive", "cover_entropy"),
    "dynamic_entropy": ("subadditive_estimate", "joined_cover_rate", "covering_rate",
                        "entropy_rate", "refining_partition_rate", "power_identity_check"),
    "principles": ("variational_search", "factor_invariance_check", "cover_rate_bracket",
                   "ergodic_additivity_check", "factor_conditioned_profile", "pushforward"),
    "verify": ("run_property",),
    "config": ("load_config",),
    "cli": ("run",),
}
# rate and principle functions also report the time spent below them
TOTAL_LAYERS = ("dynamic_entropy", "principles")

NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
CCE = "static_entropy.conditional_cover_entropy"
CE = "static_entropy.conditional_entropy"
JOIN = "families.dynamical_join"
SUBADD = "dynamic_entropy.subadditive_estimate"

# what a span keeps of its result: whether the cover entropy was certified,
# and how many windows a subadditive estimate evaluated
OUTCOMES = {
    CCE: lambda value: int(value.method != HEURISTIC),
    SUBADD: lambda est: len(est.entries),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name index, start, end, parent index, outcome]
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "coverentropy"
                                         or name.startswith("coverentropy."))]
        for key, name in enumerate(NAMES):
            layer, fn = name.split(".")
            original = getattr(getattr(coverentropy, layer), fn)
            wrapper = self._wrap(key, original, OUTCOMES.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, key, fn, outcome):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if outcome is not None:
                span[4] = outcome(result)
            return result

        return wrapper

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def pass_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass: calls and self time of every
    wrapped function, total time of rate and principle functions (outermost
    spans only, so recursion is not counted twice), and the three ratios."""
    n = len(NAMES)
    calls, self_s, total_s = [0] * n, [0.0] * n, [0.0] * n
    child = [0.0] * len(spans)
    for key, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (key, t0, t1, parent, _) in enumerate(spans):
        calls[key] += 1
        self_s[key] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != key:
            p = spans[p][3]
        if p < 0:
            total_s[key] += t1 - t0
    out = {}
    for key, name in enumerate(NAMES):
        out[f"{name}.calls"] = calls[key]
        out[f"{name}.self_s"] = self_s[key]
        if name.split(".")[0] in TOTAL_LAYERS:
            out[f"{name}.total_s"] = total_s[key]
    cce, ce_key = NAMES.index(CCE), NAMES.index(CE)
    certified = sum(s[4] for s in spans if s[0] == cce)
    below_cce = sum(s[2] - s[1] for s in spans if s[0] == ce_key and s[3] >= 0
                    and spans[s[3]][0] == cce)
    windows = sum(s[4] for s in spans if s[0] == NAMES.index(SUBADD))
    cce_total = total_s[cce]
    out["static_entropy.conditional_cover_entropy.certified_ratio"] = (
        certified / calls[cce] if calls[cce] else 0.0)
    out["static_entropy.route_b_share"] = below_cce / cce_total if cce_total else 0.0
    out["families.dynamical_join.calls_per_window"] = (
        calls[NAMES.index(JOIN)] / windows if windows else 0.0)
    out["trace.wall_s"] = wall_s
    out["trace.self_sum_s"] = sum(self_s)
    out["trace.spans"] = len(spans)
    return out


def write_spans(path, passes: list[list]) -> None:
    """One JSON line per span: pass, name, start, end, parent, outcome."""
    with gzip.open(path, "wt") as fh:
        for k, spans in enumerate(passes):
            for key, t0, t1, parent, outcome in spans:
                fh.write(json.dumps([k, NAMES[key], t0, t1, parent, outcome]) + "\n")

"""The four benchmark workloads: their inputs, their library calls and the
checks that every output must pass.

Each workload is a closed loop with a single caller: one process, one
thread, and the next library call is issued only after the previous one has
returned.  `build(seed, small)` makes the inputs (systems, measures and
window-1 families) and returns the pass as a list of `Op`s; running every
op in order is one timed pass.  Seed 0 reproduces the acceptance-scenario
inputs; any other seed draws the weights (and, for `small_batch`, the
property instances) from the fixed ranges below, and the library receives
only the generated inputs.

References come from closed forms wherever one exists, from an exhaustive
ordering oracle written here for the small windows of `cover_search`, and
otherwise from values recorded by `record_references.py` at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import coverentropy as ce
from coverentropy import cli, principles, systems, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
CLI_CONFIG = ROOT / "demos" / "config" / "sample_experiment.json"

TOL = 1e-9
GOLDEN = (1 + math.sqrt(5)) / 2
LOG2 = math.log(2.0)

# drawn input ranges for seeds other than 0
FULL2_P = (0.3, 0.7)       # Bernoulli(p, 1-p) on the full 2-shift
GOLDEN_Q = (0.4, 0.8)      # P[0, 0] of a Markov measure on the golden mean
SHIFT3_A = (0.22, 0.36)    # Bernoulli(a, 1-2a, a) on the 3-shift

# window sizes: the full pass, and the reduced one used by the smoke test
SIZES = {
    "partition_rates": {
        False: {"full2_joined": 10, "full2_count": 12, "gm_joined": 13,
                "gm_count": 15, "gm_rate": 14},
        True: {"full2_joined": 6, "full2_count": 8, "gm_joined": 7,
               "gm_count": 9, "gm_rate": 8},
    },
    "cover_search": {
        False: {"shift3": 4, "full2_cover": 8},
        True: {"shift3": 3, "full2_cover": 4},
    },
    "variational": {
        False: {"n_max": 10, "max_iter": 30},
        True: {"n_max": 5, "max_iter": 6},
    },
    "small_batch": {
        False: {"static.route_equality": 1000, "static.entropy_axioms": 1000,
                "static.counting_axioms": 1000, "static.counting_exactness": 500,
                "static.concavity_in_measure": 500},
        True: {"static.route_equality": 40, "static.entropy_axioms": 40,
               "static.counting_axioms": 40, "static.counting_exactness": 20,
               "static.concavity_in_measure": 20},
    },
}


@dataclass
class Op:
    """One library call of a pass, with the check of its output.

    `check(result)` returns a list of problems (empty when correct);
    `entries(result)` gives (exact, total) window entries returned,
    `evals(result)` the evaluations the call performed, and `params` the
    drawn inputs that go into the run record."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    entries: Callable[[Any], tuple[int, int]] = lambda r: (0, 0)
    evals: Callable[[Any], int] = lambda r: 0
    params: dict = field(default_factory=dict)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**64)


def clear_library_caches() -> None:
    """Forget word universes, so that every pass builds the same ones."""
    systems.word_universe.cache_clear()


# ---------------------------------------------------------------------------
# closed forms and the ordering oracle


def shannon(p) -> float:
    return -sum(x * math.log(x) for x in p if x > 0.0)


def markov_block_entropy(pi, P, N: int) -> float:
    """H of the N-cylinders of a stationary Markov chain:
    H(pi) + (N - 1) * (-sum_ij pi_i P_ij log P_ij)."""
    rate = -sum(
        pi[i] * P[i][j] * math.log(P[i][j])
        for i in range(len(P)) for j in range(len(P)) if P[i][j] > 0.0
    )
    return shannon(pi) + (N - 1) * rate


def log_word_count(A, N: int) -> float:
    """log(1' A^(N-1) 1), the log number of admissible N-words."""
    A = np.asarray(A, dtype=np.int64)
    ones = np.ones(len(A), dtype=np.int64)
    return math.log(int(ones @ np.linalg.matrix_power(A, N - 1) @ ones))


@functools.lru_cache(maxsize=None)
def ordering_oracle(letter_sets, p, N: int) -> float:
    """min over orderings of the elements of the N-fold joined letter cover
    of the Shannon entropy of the ordered-difference partition, under the
    Bernoulli(p) measure, by full enumeration.  Independent of the library;
    affordable while the joined cover has at most 8 elements."""
    k = len(p)
    words = list(itertools.product(range(k), repeat=N))
    w = np.array([math.prod(p[a] for a in word) for word in words])
    elems = list(itertools.product(range(len(letter_sets)), repeat=N))
    memb = np.array(
        [[all(word[t] in letter_sets[e[t]] for t in range(N)) for word in words]
         for e in elems]
    )
    best = math.inf
    perms = itertools.permutations(range(len(elems)))
    while chunk := list(itertools.islice(perms, 5040)):  # bounded memory
        first = np.argmax(memb[np.array(chunk)], axis=1)  # first holder's position
        masses = np.stack([(first == t) @ w for t in range(len(elems))], axis=1)
        logs = np.log(np.where(masses > 0.0, masses, 1.0))
        best = min(best, float((-(masses * logs).sum(axis=1)).min()))
    return best


# ---------------------------------------------------------------------------
# generic checks


def _estimate_entries(est) -> tuple[int, int]:
    return sum(e.exact for e in est.entries), len(est.entries)


def _expect_sequence(n_max: int, value_of: Callable[[int], float]):
    """Every window N = 1..n_max is certified and equals value_of(N) to TOL."""

    def check(est) -> list[str]:
        problems = []
        if [e.N for e in est.entries] != list(range(1, n_max + 1)):
            return [f"windows {[e.N for e in est.entries]} != 1..{n_max}"]
        for e in est.entries:
            want = value_of(e.N)
            if not abs(e.value - want) <= TOL:
                problems.append(f"a_{e.N} = {e.value!r}, expected {want!r}")
            if not e.exact:
                problems.append(f"a_{e.N} not certified")
        return problems

    return check


def _match_recorded(est, recorded) -> list[str]:
    """Recorded [N, value, exact] rows: an exact entry must match to TOL; a
    heuristic one is an upper bound that may only go down or become exact."""
    if recorded is None:
        return []
    problems = []
    got = {e.N: e for e in est.entries}
    for N, value, exact in recorded:
        e = got.get(N)
        if e is None:
            problems.append(f"window {N} missing")
        elif exact and not (e.exact and abs(e.value - value) <= TOL):
            problems.append(f"a_{N} = {e.value!r} (exact={e.exact}), recorded {value!r}")
        elif not exact and e.value > value + TOL:
            problems.append(f"a_{N} = {e.value!r} above recorded bound {value!r}")
    return problems


def recorded_rows(est) -> list:
    return [[e.N, e.value, e.exact] for e in est.entries]


# ---------------------------------------------------------------------------
# partition_rates: criteria 4 and 5


def partition_rates(seed: int, small: bool, refs: dict) -> list[Op]:
    n = SIZES["partition_rates"][small]
    if seed == 0:
        p, q = 0.5, 1 / GOLDEN
    else:
        rng = _rng(seed)
        p, q = float(rng.uniform(*FULL2_P)), float(rng.uniform(*GOLDEN_Q))
    fs = ce.full_shift(2)
    cyl, X = ce.cylinder_partition(fs, 1), ce.trivial_partition(fs, 1)
    ber = ce.bernoulli(fs, [p, 1 - p])
    gm = ce.golden_mean()
    P = [[q, 1 - q], [1.0, 0.0]]
    mk = ce.markov(gm, P)
    pi = [float(x) for x in mk.pi]
    cg, Xg = ce.cylinder_partition(gm, 1), ce.trivial_partition(gm, 1)
    Pf = [[p, 1 - p], [p, 1 - p]]
    full = [[1, 1], [1, 1]]
    golden = [[1, 1], [1, 0]]

    def rate_op(label, call, n_max, value_of):
        return Op(label, call, _expect_sequence(n_max, value_of),
                  _estimate_entries, lambda r: len(r.entries), {"p": p, "q": q})

    return [
        rate_op("full2.joined_cover_rate",
                lambda: ce.joined_cover_rate(ber, cyl, X, n_max=n["full2_joined"]),
                n["full2_joined"], lambda N: markov_block_entropy([p, 1 - p], Pf, N)),
        rate_op("full2.covering_rate",
                lambda: ce.covering_rate(cyl, X, n_max=n["full2_count"]),
                n["full2_count"], lambda N: log_word_count(full, N)),
        rate_op("golden.joined_cover_rate",
                lambda: ce.joined_cover_rate(mk, cg, Xg, n_max=n["gm_joined"]),
                n["gm_joined"], lambda N: markov_block_entropy(pi, P, N)),
        rate_op("golden.covering_rate",
                lambda: ce.covering_rate(cg, Xg, n_max=n["gm_count"]),
                n["gm_count"], lambda N: log_word_count(golden, N)),
        rate_op("golden.entropy_rate",
                lambda: ce.entropy_rate(mk, cg, Xg, n_max=n["gm_rate"]),
                n["gm_rate"], lambda N: markov_block_entropy(pi, P, N)),
    ]


# ---------------------------------------------------------------------------
# cover_search: criterion 7 (and criterion 6's full-shift cover)

SHIFT3_LETTERS = (frozenset({0, 1}), frozenset({1, 2}))
ORACLE_MAX_WINDOW = 3


def _shift3_check(p, n_max, recorded):
    def check(est) -> list[str]:
        oracle = {N: ordering_oracle(SHIFT3_LETTERS, p, N)
                  for N in range(1, min(n_max, ORACLE_MAX_WINDOW) + 1)}
        problems = []
        if [e.N for e in est.entries] != list(range(1, n_max + 1)):
            return [f"windows {[e.N for e in est.entries]} != 1..{n_max}"]
        vals = {e.N: e.value for e in est.entries}
        for e in est.entries:
            if e.N in oracle:
                want = oracle[e.N]
                if e.exact and not abs(e.value - want) <= TOL:
                    problems.append(f"a_{e.N} = {e.value!r}, oracle {want!r}")
                if not e.exact and e.value < want - TOL:
                    problems.append(f"bound a_{e.N} = {e.value!r} below oracle {want!r}")
            else:
                # joining the minimizers of two shorter windows bounds a_N
                bound = min(vals[i] + vals[e.N - i] for i in range(1, e.N))
                if e.value > bound + TOL:
                    problems.append(f"a_{e.N} = {e.value!r} above subadditive bound {bound!r}")
        return problems + _match_recorded(est, recorded)

    return check


def cover_search(seed: int, small: bool, refs: dict) -> list[Op]:
    n = SIZES["cover_search"][small]
    if seed == 0:
        weights3, p = [(1 / 3, 1 / 3, 1 / 3), (0.25, 0.5, 0.25)], 0.5
    else:
        rng = _rng(seed)
        a, b = rng.uniform(*SHIFT3_A, size=2)
        weights3 = [(a, 1 - 2 * a, a), (b, 1 - 2 * b, b)]
        weights3 = [tuple(float(x) for x in w) for w in weights3]
        p = float(rng.uniform(*FULL2_P))
    recorded = refs if seed == 0 else {}
    ops = []
    fs3 = ce.full_shift(3)
    U3 = ce.family_of_words(fs3, 1, [["0", "1"], ["1", "2"]], "cover")
    X3 = ce.trivial_partition(fs3, 1)
    for i, w in enumerate(weights3):
        mu = ce.bernoulli(fs3, list(w))
        label = f"shift3_{i}.joined_cover_rate"
        ops.append(Op(
            label,
            lambda mu=mu: ce.joined_cover_rate(mu, U3, X3, n_max=n["shift3"],
                                               node_budget=20000),
            _shift3_check(w, n["shift3"], recorded.get(label)),
            _estimate_entries, lambda r: len(r.entries), {"weights": list(w)},
        ))
    fs = ce.full_shift(2)
    Uf = ce.family_of_words(fs, 2, [["00", "10"], ["01", "11"], ["10", "01"]], "cover")
    bf = ce.cylinder_partition(fs, 1)
    ber = ce.bernoulli(fs, [p, 1 - p])
    h = shannon([p, 1 - p])
    # every atom of the joined conditioner meets two words that no joined
    # element holds together, so a_N = H(p) for every N
    ops.append(Op(
        "full2_cover.joined_cover_rate",
        lambda: ce.joined_cover_rate(ber, Uf, bf, n_max=n["full2_cover"]),
        _expect_sequence(n["full2_cover"], lambda N: h),
        _estimate_entries, lambda r: len(r.entries), {"p": p},
    ))
    return ops


# ---------------------------------------------------------------------------
# variational: criterion 6


def variational(seed: int, small: bool, refs: dict) -> list[Op]:
    n = SIZES["variational"][small]
    lib_seed = 7 if seed == 0 else int(_rng(seed).integers(1, 2**31 - 1))
    n_max = n["n_max"]
    recorded = refs if seed == 0 else {}
    gm = ce.golden_mean()
    Ug = ce.family_of_words(gm, 2, [["00", "10"], ["01", "10"]], "cover")
    bg = ce.cylinder_partition(gm, 1)

    def check(rep) -> list[str]:
        # given the first N letters only the last letter of the window is
        # open, and no joined element holds both choices: a_N = pi_0 H(P_0.)
        # under the measure found, and N(U^N | beta^N) = 2 for every N
        P, pi = np.asarray(rep.details["best_P"]), np.asarray(rep.details["best_pi"])
        best = rep.estimates["best_measure"]
        problems = _expect_sequence(
            n_max, lambda N: float(pi[0]) * shannon(P[0]))(best)
        problems += _expect_sequence(
            n_max, lambda N: LOG2)(rep.estimates["combinatorial"])
        sup = math.log(GOLDEN) / n_max  # max over q of pi_0 H(q) is log(golden)
        if not rep.rhs <= sup + TOL:
            problems.append(f"best rate {rep.rhs!r} above the supremum {sup!r}")
        if not rep.rhs >= 0.95 * sup:
            problems.append(f"best rate {rep.rhs!r} far below the supremum {sup!r}")
        if not abs(rep.lhs - LOG2 / n_max) <= TOL:
            problems.append(f"combinatorial rate {rep.lhs!r} != log 2 / {n_max}")
        if sum(t["evaluations"] for t in rep.details["trace"]) < 1:
            problems.append("no objective evaluations in the trace")
        return problems + _match_recorded(best, recorded.get("best_measure"))

    def entries(rep):
        pairs = [_estimate_entries(e) for e in rep.estimates.values()]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)

    return [Op(
        "golden_cover.variational_search",
        lambda: principles.variational_search(
            gm, Ug, bg, n_max=n_max, starts=1, max_iter=n["max_iter"], seed=lib_seed
        ),
        check, entries, lambda rep: sum(t["evaluations"] for t in rep.details["trace"]),
        {"seed": lib_seed},
    )]


# ---------------------------------------------------------------------------
# small_batch: criteria 1-3 and 12, plus one in-process `coverentropy run`


def _collect_sequences(obj, out: list) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "sequence":
                out.append(value)
            else:
                _collect_sequences(value, out)
    elif isinstance(obj, list):
        for value in obj:
            _collect_sequences(value, out)


def _same_summary(rows, recorded) -> list[str]:
    if recorded is None:
        return []
    if len(rows) != len(recorded):
        return [f"summary has {len(rows)} rows, recorded {len(recorded)}"]
    problems = []
    for r, (got, want) in enumerate(zip(rows, recorded)):
        if len(got) != len(want):
            problems.append(f"summary row {r} has {len(got)} columns, recorded {len(want)}")
        for c, (g, w) in enumerate(zip(got, want)):
            try:
                same = g == w or abs(float(g) - float(w)) <= TOL
            except ValueError:
                same = False
            if not same:
                problems.append(f"summary row {r} column {c}: {g!r}, recorded {w!r}")
    return problems


def small_batch(seed: int, small: bool, refs: dict) -> list[Op]:
    counts = SIZES["small_batch"][small]
    prop_seed = 42 if seed == 0 else int(_rng(seed).integers(0, 2**31 - 1))
    specs = {s.name: s for s in verify.PROPERTIES}
    ops = []
    for name, count in counts.items():
        spec = specs[name]

        def check(res, name=name, count=count):
            if res.passed and res.tested == count:
                return []
            return [f"{name}: passed={res.passed} tested={res.tested}/{count} "
                    f"counterexample={res.counterexample}"]

        ops.append(Op(
            f"verify.{name}",
            lambda spec=spec, count=count: verify.run_property(spec, prop_seed, count),
            check, evals=lambda res: res.tested, params={"seed": prop_seed},
        ))
    outdir = WORK / "cli_out"
    shutil.rmtree(outdir, ignore_errors=True)

    def summary():
        with open(outdir / "summary.csv", newline="") as fh:
            return list(csv.reader(fh))

    def check_cli(code):
        if code != 0:
            return [f"coverentropy run exited {code}"]
        return _same_summary(summary(), refs.get("cli_summary"))

    def cli_entries(code):
        sequences = []
        for path in sorted(outdir.glob("task_*.json")):
            _collect_sequences(json.loads(path.read_text()), sequences)
        rows = [row for seq in sequences for row in seq]
        return sum(bool(row[3]) for row in rows), len(rows)

    ops.append(Op(
        "cli.run",
        lambda: cli.main(["run", "--config", str(CLI_CONFIG), "--out", str(outdir)]),
        check_cli, cli_entries, lambda code: len(summary()) - 1,
    ))
    return ops


WORKLOADS = {
    "partition_rates": partition_rates,
    "cover_search": cover_search,
    "variational": variational,
    "small_batch": small_batch,
}

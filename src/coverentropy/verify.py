"""Randomized property suites and the named acceptance scenarios.

Properties run on small randomly generated instances (point carriers up to 8
points, tiny word systems) against brute-force oracles; failures are shrunk
greedily before being reported.  The named scenarios are the deterministic
desk-scale checks of the library's headline identities and principles.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import (
    bitsets,
    dynamic_entropy,
    families,
    measures,
    principles,
    static_entropy,
    systems,
)
from .families import COVER, PARTITION

LOG2 = math.log(2.0)
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)
H_THIRD = math.log(3.0) - (2.0 / 3.0) * LOG2  # shannon of (1/3, 2/3)


@dataclass
class CheckResult:
    name: str
    passed: bool
    tested: int
    detail: str = ""
    counterexample: Optional[dict] = None


# ---------------------------------------------------------------------------
# random point-carrier instances


def rand_point_instance(
    rng: np.random.Generator,
    max_points: int = 8,
    max_elements: int = 4,
    n_families: int = 1,
    ustar_cap: Optional[int] = None,
) -> dict:
    """A permutation system, a rational cycle measure, one or more random
    covers, and a couple of random partitions, as a plain serializable dict."""
    n = int(rng.integers(3, max_points + 1))
    perm = list(rng.permutation(n))
    covers = []
    for _ in range(n_families):
        while True:
            d = int(rng.integers(2, max_elements + 1))
            labels = rng.integers(0, d, size=n)
            labels[rng.integers(0, n)] = 0  # keep element 0 nonempty-ish
            elems = [set(np.nonzero(labels == m)[0].tolist()) for m in range(d)]
            for m in range(d):
                extra = rng.random(n) < 0.25
                elems[m] |= set(np.nonzero(extra)[0].tolist())
            if any(not e for e in elems):
                continue
            total = 1
            for x in range(n):
                total *= sum(1 for e in elems if x in e)
            if ustar_cap is not None and total > ustar_cap:
                continue
            covers.append([sorted(e) for e in elems])
            break
    parts = []
    for _ in range(2):
        d = int(rng.integers(1, max_elements + 1))
        labels = rng.integers(0, d, size=n)
        parts.append([sorted(np.nonzero(labels == m)[0].tolist()) for m in range(d)])
    n_cycles = len(systems.permutation_cycles(systems.permutation(perm)))
    cycle_weights = [int(rng.integers(1, 10)) for _ in range(n_cycles)]
    return {
        "perm": [int(v) for v in perm],
        "cycle_weights": cycle_weights,
        "covers": covers,
        "partitions": parts,
    }


def build_point_instance(inst: dict):
    sys = systems.permutation(inst["perm"])
    cw = np.array(inst["cycle_weights"], dtype=float)
    mu = measures.cycle_measure(sys, cw / cw.sum())
    covers = [
        families.family_of_points(sys, elems, COVER) for elems in inst["covers"]
    ]
    parts = [
        families.family_of_points(
            sys, [e for e in elems], PARTITION
        )
        for elems in inst["partitions"]
    ]
    return sys, mu, covers, parts


def shrink_point_instance(inst: dict, still_fails) -> dict:
    """Greedy shrink: drop points, then merge cover elements, as long as the
    property keeps failing."""
    current = inst
    improved = True
    while improved:
        improved = False
        n = len(current["perm"])
        for p in range(n):
            if len(current["perm"]) <= 2:
                break
            cand = _drop_point(current, p)
            if cand is not None and still_fails(cand):
                current = cand
                improved = True
                break
        if improved:
            continue
        for ci, cov in enumerate(current["covers"]):
            if len(cov) <= 2:
                continue
            for a, b in itertools.combinations(range(len(cov)), 2):
                cand = json.loads(json.dumps(current))
                merged = sorted(set(cov[a]) | set(cov[b]))
                cand["covers"][ci] = [
                    e for j, e in enumerate(cov) if j not in (a, b)
                ] + [merged]
                if still_fails(cand):
                    current = cand
                    improved = True
                    break
            if improved:
                break
    return current


def _drop_point(inst: dict, p: int) -> Optional[dict]:
    perm = inst["perm"]
    n = len(perm)
    keep = [x for x in range(n) if x != p]
    relabel = {x: i for i, x in enumerate(keep)}
    new_perm = []
    for x in keep:
        y = perm[x]
        while y == p:
            y = perm[y]
        new_perm.append(relabel[y])
    if sorted(new_perm) != list(range(n - 1)):
        return None
    out = {"perm": new_perm}
    sys = systems.permutation(new_perm)
    n_cycles = len(systems.permutation_cycles(sys))
    out["cycle_weights"] = (inst["cycle_weights"] * n_cycles)[:n_cycles]
    covers = []
    for cov in inst["covers"]:
        elems = [[relabel[x] for x in e if x != p] for e in cov]
        if any(not e for e in elems):
            return None
        covers.append(elems)
    out["covers"] = covers
    parts = []
    for part in inst["partitions"]:
        elems = [[relabel[x] for x in e if x != p] for e in part]
        parts.append(elems)
    out["partitions"] = parts
    return out


def _refine_partition(rng, part_elems, n):
    """A partition refining the given one (split random cells)."""
    out = []
    for cell in part_elems:
        if len(cell) >= 2 and rng.random() < 0.6:
            cut = int(rng.integers(1, len(cell)))
            out.append(sorted(cell[:cut]))
            out.append(sorted(cell[cut:]))
        else:
            out.append(list(cell))
    return [e for e in out]


def _coarsen_cover(rng, cover_elems):
    """A cover coarser than the given one (supersets of its elements)."""
    d = len(cover_elems)
    take = max(2, d - 1) if d > 2 else d
    idx = list(rng.permutation(d))[:take]
    out = []
    for i in idx:
        e = set(cover_elems[i])
        j = int(rng.integers(0, d))
        if rng.random() < 0.7:
            e |= set(cover_elems[j])
        out.append(sorted(e))
    union = set().union(*map(set, cover_elems))
    covered = set().union(*map(set, out))
    if covered != union:
        out.append(sorted(union - covered | set(out[-1])))
    return out


# ---------------------------------------------------------------------------
# properties


@dataclass
class PropertySpec:
    name: str
    run: Callable[[np.random.Generator], Optional[dict]]
    fast_count: int = 100
    full_count: int = 1000


def _counterexample(inst: dict, check: Callable[..., bool]) -> Optional[dict]:
    """Shrink `inst` and return it when `check(candidate, sys, mu, covers,
    parts)` reports a failure for it, else None.  A candidate the builder
    refuses is not a counterexample; any exception raised inside `check` is
    one, so a route disagreement or any other internal error fails the
    property instead of passing it, and the counterexample names it under
    "error"."""

    def fails(candidate):
        candidate.pop("error", None)
        try:
            built = build_point_instance(candidate)
        except (families.FamilyError, measures.MeasureError):
            return False
        try:
            return bool(check(candidate, *built))
        except Exception as exc:
            candidate["error"] = f"{type(exc).__name__}: {exc}"
            return True

    if fails(inst):
        return shrink_point_instance(inst, fails)
    return None


def _prop_route_equality(rng) -> Optional[dict]:
    def check(candidate, sys, mu, covers, parts):
        static_entropy.conditional_cover_entropy(
            mu, covers[0], parts[0], ustar_budget=4096
        )
        return False

    return _counterexample(rand_point_instance(rng, ustar_cap=4096), check)


def _prop_counting_axioms(rng) -> Optional[dict]:
    def check(candidate, sys, mu, covers, parts):
        U, V = covers[0], covers[1]
        beta = parts[0]
        n = sys.point_count
        rng2 = np.random.default_rng(7)
        finer_beta = families.family_of_points(
            sys, _refine_partition(rng2, candidate["partitions"][0], n), PARTITION
        )
        N = static_entropy.covering_number
        n_ub = N(U, beta)
        # N >= 1, and N == 1 iff beta refines U
        if n_ub < 1:
            return True
        if (n_ub == 1) != families.finer(beta, U):
            return True
        # one-step preimage invariance
        tU = families.dynamical_join(U, 1, 1)
        tb = families.dynamical_join(beta, 1, 1)
        if N(tU, tb) != n_ub:
            return True
        # cover monotonicity: U finer than W implies N(U|beta) >= N(W|beta)
        W = families.family_of_points(
            sys, _coarsen_cover(rng2, candidate["covers"][0]), COVER
        )
        if families.finer(U, W) and N(U, beta) < N(W, beta):
            return True
        # conditioner monotonicity
        if N(U, finer_beta) > N(U, beta):
            return True
        # submultiplicativity under join
        return N(families.join(U, V), beta) > N(U, beta) * N(V, beta)

    return _counterexample(rand_point_instance(rng, n_families=2), check)


def _prop_entropy_axioms(rng) -> Optional[dict]:
    def check(candidate, sys, mu, covers, parts):
        U, V = covers[0], covers[1]
        beta = parts[0]
        n = sys.point_count
        rng2 = np.random.default_rng(11)
        finer_beta = families.family_of_points(
            sys, _refine_partition(rng2, candidate["partitions"][0], n), PARTITION
        )
        H = lambda u, b: static_entropy.conditional_cover_entropy(
            mu, u, b, ustar_budget=0
        ).nats
        h_ub = H(U, beta)
        tol = 1e-9
        if h_ub < -tol:
            return True
        if h_ub > math.log(static_entropy.covering_number(U, beta)) + tol:
            return True
        if families.finer(beta, U) and h_ub > tol:
            return True
        tU = families.dynamical_join(U, 1, 1)
        tb = families.dynamical_join(beta, 1, 1)
        if abs(H(tU, tb) - h_ub) > tol:
            return True
        if H(U, finer_beta) > h_ub + tol:
            return True
        return H(families.join(U, V), beta) > h_ub + H(V, beta) + tol

    return _counterexample(rand_point_instance(rng, n_families=2), check)


def _prop_counting_exactness(rng) -> Optional[dict]:
    def check(candidate, sys, mu, covers, parts):
        U, beta = covers[0], parts[0]
        return static_entropy.covering_number(
            U, beta
        ) != static_entropy.covering_number_exhaustive(U, beta)

    inst = rand_point_instance(rng, max_points=10, max_elements=12, n_families=1)
    return _counterexample(inst, check)


def _prop_concavity(rng) -> Optional[dict]:
    inst = rand_point_instance(rng)
    inst["cycle_weights_2"] = [
        int(rng.integers(1, 10)) for _ in inst["cycle_weights"]
    ]
    inst["t"] = float(rng.choice([0.25, 0.5, 0.75]))

    def check(candidate, sys, mu, covers, parts):
        cw2 = np.array(
            candidate.get("cycle_weights_2", candidate["cycle_weights"]),
            dtype=float,
        )
        nu = measures.cycle_measure(sys, cw2 / cw2.sum())
        t = candidate.get("t", 0.5)
        mixed = measures.InvariantMeasure(
            measures.PERMUTATION,
            sys,
            point_weights=t * mu.point_weights + (1 - t) * nu.point_weights,
        )
        alpha, beta = parts[0], parts[1]
        lhs = static_entropy.conditional_entropy(mixed, alpha, beta).nats
        rhs = (
            t * static_entropy.conditional_entropy(mu, alpha, beta).nats
            + (1 - t) * static_entropy.conditional_entropy(nu, alpha, beta).nats
        )
        return lhs < rhs - 1e-9

    return _counterexample(inst, check)


def _prop_nested_atom_entropy(rng) -> Optional[dict]:
    # A subset of B implies mu(A) H_{mu_A}(U) <= mu(B) H_{mu_B}(U)
    def check(candidate, sys, mu, covers, parts):
        U = covers[0]
        n = sys.point_count
        rng2 = np.random.default_rng(13)
        b_mask = 0
        for x in range(n):
            if rng2.random() < 0.7:
                b_mask |= 1 << x
        if b_mask == 0:
            return False
        a_mask = b_mask
        for x in bitsets.iter_bits(b_mask):
            if rng2.random() < 0.4:
                a_mask &= ~(1 << x)
        if a_mask == 0:
            return False

        def side(mask):
            cond = measures.condition_on(mu, mask, sys, None)
            if cond.is_zero:
                return 0.0
            return cond.base_mass * static_entropy.cover_entropy(cond, U).nats

        return side(a_mask) > side(b_mask) + 1e-9

    return _counterexample(rand_point_instance(rng), check)


def _prop_ext_ustar(rng) -> Optional[dict]:
    def check(candidate, sys, mu, covers, parts):
        U = covers[0]
        exts = list(families.ext_partitions(U))
        stars = list(families.ustar_enumerate(U, 4096))
        for fam in exts + stars:
            if not families.finer(fam, U):
                return True
        # every ext output appears among the finer-partition assignments
        # after realigning cells to the element indices
        star_keys = {tuple(f.elements) for f in stars}
        for order, fam in zip(itertools.permutations(range(len(U))), exts):
            cells = [0] * len(U)
            for elem_index, cell in zip(order, fam.elements):
                cells[elem_index] = cell
            if tuple(cells) not in star_keys:
                return True
        # the exact minimizer agrees with the exhaustive minimum
        w = measures.family_weights(mu, U)
        best = min(
            sum(static_entropy.phi(measures.mask_mass(w, m)) for m in f.elements)
            for f in stars
        )
        got = static_entropy.cover_entropy(mu, U).nats
        return abs(best - got) > 1e-12

    return _counterexample(rand_point_instance(rng, ustar_cap=2048), check)


def _prop_delta_pseudometric(rng) -> Optional[dict]:
    inst = rand_point_instance(rng, n_families=3)
    # pad families to one shared element count
    d = max(len(c) for c in inst["covers"])
    n = len(inst["perm"])
    for cov in inst["covers"]:
        while len(cov) < d:
            cov.append(list(range(n)))

    def check(candidate, sys, mu, covers, parts):
        A, B, C = covers[:3]
        if not len(A) == len(B) == len(C):
            return False  # a shrinking merge left a family shorter
        dAB = families.family_delta(mu, A, B).value
        dBA = families.family_delta(mu, B, A).value
        dAC = families.family_delta(mu, A, C).value
        dCB = families.family_delta(mu, C, B).value
        if abs(dAB - dBA) > 1e-12:
            return True
        if dAB > dAC + dCB + 1e-9:
            return True
        return dAB > 2 * len(A) + 1e-12

    return _counterexample(inst, check)


def _prop_decompose_mix(rng) -> Optional[dict]:
    def check(candidate, sys, mu, covers, parts):
        comps = measures.ergodic_decompose(mu)
        back = measures.mix(comps) if comps else mu
        return np.max(np.abs(back.point_weights - mu.point_weights)) > 1e-12

    return _counterexample(rand_point_instance(rng), check)


def _rand_word_system(rng):
    if rng.random() < 0.5:
        return systems.full_shift(int(rng.integers(2, 4)))
    while True:
        k = int(rng.integers(2, 4))
        t = (rng.random((k, k)) < 0.7).astype(int)
        try:
            sys = systems.sft(t.tolist())
        except systems.SystemError:
            continue
        if len(measures.recurrent_classes(t)) == 1:
            return sys


def _rand_markov(rng, sys):
    t = np.array(sys.transition, dtype=float)
    raw = rng.random(t.shape) * t
    raw[t.sum(axis=1) > 0] += 1e-3 * t[t.sum(axis=1) > 0]
    P = raw / np.maximum(raw.sum(axis=1, keepdims=True), 1e-300)
    return measures.markov(sys, P)


def _prop_shift_invariance(rng) -> Optional[dict]:
    sys = _rand_word_system(rng)
    mu = _rand_markov(rng, sys)
    n = int(rng.integers(1, 4))
    uni = systems.word_universe(sys, n)
    mask = 0
    for i in range(uni.count):
        if rng.random() < 0.5:
            mask |= 1 << i
    if mask == 0:
        return None
    fam = families.SetFamily(
        sys, n, COVER, (mask, bitsets.full_mask(uni.count))
    )
    # the one-step preimage of the marked set, read at window n+1
    shifted = families.view_in_window(fam, 1, n + 1)
    m0 = measures.set_mass(mu, sys, n, mask)
    m1 = measures.set_mass(mu, sys, n + 1, shifted.elements[0])
    if abs(m0 - m1) > 1e-12:
        return {
            "system": sys.kind,
            "transition": sys.transition,
            "P": mu.P.tolist(),
            "window": n,
            "mass_gap": m1 - m0,
        }
    return None


def _prop_pullback_join(rng) -> Optional[dict]:
    gm = systems.golden_mean()
    vertex = systems.sft([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    phi = systems.FactorMap(gm, vertex, 2, (0, 1, 2))
    uni = systems.word_universe(vertex, 1)
    full = bitsets.full_mask(uni.count)

    def rand_cover():
        while True:
            masks = []
            for _ in range(int(rng.integers(2, 4))):
                m = 0
                for i in range(uni.count):
                    if rng.random() < 0.5:
                        m |= 1 << i
                if m:
                    masks.append(m)
            if masks and (lambda u: u == full)(int(np.bitwise_or.reduce(masks))):
                return families.SetFamily(vertex, 1, COVER, tuple(masks))

    U, V = rand_cover(), rand_cover()
    lhs = families.pullback(phi, families.join(U, V))
    rhs = families.join(families.pullback(phi, U), families.pullback(phi, V))
    if set(lhs.elements) != set(rhs.elements):
        return {"U": U.elements, "V": V.elements}
    return None


def _prop_word_closure(rng) -> Optional[dict]:
    sys = _rand_word_system(rng)
    n = int(rng.integers(1, 5))
    words = set(systems.admissible_words(sys, n))
    longer = systems.admissible_words(sys, n + 1)
    for w in longer:
        if w[:-1] not in words or w[1:] not in words:
            return {"transition": sys.transition, "word": w}
    return None


def _prop_power_bijection(rng) -> Optional[dict]:
    sys = _rand_word_system(rng)
    M = int(rng.integers(2, 4))
    n = int(rng.integers(1, 3))
    pow_sys = systems.power_system(sys, M)
    a = len(systems.admissible_words(pow_sys, n))
    b = len(systems.admissible_words(sys, n * M))
    if a != b:
        return {"transition": sys.transition, "M": M, "n": n, "pow": a, "base": b}
    return None


def _prop_growth_wobble(rng) -> Optional[dict]:
    sys = _rand_word_system(rng)
    c1 = len(systems.admissible_words(sys, 1))
    for n in range(2, 9):
        g_n = systems.word_count_growth(sys, n)
        g_next = systems.word_count_growth(sys, n + 1)
        if g_next > g_n + math.log(max(c1, 2)) / (n + 1) + 1e-12:
            return {"transition": sys.transition, "n": n}
    return None


def _prop_rate_below_counting(rng) -> Optional[dict]:
    # per-window H(U joins | beta joins) <= log N(U joins | beta joins)
    sys = _rand_word_system(rng)
    mu = _rand_markov(rng, sys)
    uni = systems.word_universe(sys, 1)
    full = bitsets.full_mask(uni.count)
    masks = []
    for _ in range(2):
        m = 0
        for i in range(uni.count):
            if rng.random() < 0.6:
                m |= 1 << i
        masks.append(m or 1)
    rest = full & ~(masks[0] | masks[1])
    if rest:
        masks.append(rest)
    U = families.SetFamily(sys, 1, COVER, tuple(masks))
    beta = families.trivial_partition(sys, 1)
    h = dynamic_entropy.joined_cover_rate(mu, U, beta, n_max=3, node_budget=5000)
    c = dynamic_entropy.covering_rate(U, beta, n_max=3)
    for eh, ec in zip(h.entries, c.entries):
        if eh.exact and eh.value > ec.value + 1e-9:
            return {
                "transition": sys.transition,
                "U": U.elements,
                "window": eh.N,
                "H": eh.value,
                "logN": ec.value,
            }
    return None


PROPERTIES = [
    PropertySpec("static.route_equality", _prop_route_equality, 100, 1000),
    PropertySpec("static.counting_axioms", _prop_counting_axioms, 100, 1000),
    PropertySpec("static.entropy_axioms", _prop_entropy_axioms, 100, 1000),
    PropertySpec("static.counting_exactness", _prop_counting_exactness, 100, 500),
    PropertySpec("static.concavity_in_measure", _prop_concavity, 100, 500),
    PropertySpec("static.nested_atom_entropy", _prop_nested_atom_entropy, 100, 500),
    PropertySpec("families.ext_ustar_refinement", _prop_ext_ustar, 60, 300),
    PropertySpec("families.delta_pseudometric", _prop_delta_pseudometric, 100, 1000),
    PropertySpec("families.pullback_join", _prop_pullback_join, 40, 200),
    PropertySpec("measures.shift_invariance", _prop_shift_invariance, 100, 1000),
    PropertySpec("measures.decompose_mix_roundtrip", _prop_decompose_mix, 100, 500),
    PropertySpec("systems.word_closure", _prop_word_closure, 60, 300),
    PropertySpec("systems.power_bijection", _prop_power_bijection, 60, 300),
    PropertySpec("systems.growth_wobble", _prop_growth_wobble, 40, 200),
    PropertySpec("dynamic.rate_below_counting", _prop_rate_below_counting, 30, 150),
]


def run_property(spec: PropertySpec, seed: int, count: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    for i in range(count):
        try:  # an error escaping the property, not just `_counterexample`, fails it
            ce = spec.run(rng)
        except Exception as exc:
            ce = {"error": f"{type(exc).__name__}: {exc}"}
        if ce is not None:
            return CheckResult(spec.name, False, i + 1, "counterexample", ce)
    return CheckResult(spec.name, True, count)


# ---------------------------------------------------------------------------
# named acceptance scenarios (criteria 4..11; 1..3 and 12 are the counted
# properties above, run at full counts by the acceptance suite)


def _golden_parry():
    gm = systems.golden_mean()
    phi_r = (1 + math.sqrt(5)) / 2
    return gm, measures.markov(gm, [[1 / phi_r, 1 / phi_r**2], [1.0, 0.0]])


def scenario_full_shift_generator() -> CheckResult:
    fs = systems.full_shift(2)
    cyl = families.cylinder_partition(fs, 1)
    X = families.trivial_partition(fs, 1)
    top = dynamic_entropy.covering_rate(cyl, X, n_max=12)
    ok = top.exactness == dynamic_entropy.EXACT_CONSTANT and (
        abs(top.running_inf - LOG2) <= 1e-9
    )
    ber = measures.bernoulli(fs, [0.5, 0.5])
    est = dynamic_entropy.joined_cover_rate(ber, cyl, X, n_max=12)
    per_window = all(abs(e.value - e.N * LOG2) <= 1e-9 for e in est.entries)
    passed = ok and per_window
    return CheckResult(
        "full_shift_generator",
        passed,
        2,
        f"h_top={top.running_inf:.9f} ({top.exactness}), "
        f"max |a_N - N log 2| = {max(abs(e.value - e.N * LOG2) for e in est.entries):.2e}",
    )


def scenario_golden_mean_rates() -> CheckResult:
    gm, parry = _golden_parry()
    cyl = families.cylinder_partition(gm, 1)
    X = families.trivial_partition(gm, 1)
    top = dynamic_entropy.covering_rate(cyl, X, n_max=15)
    top_ok = abs(top.running_inf - LOG_GOLDEN) <= 5e-2
    est = dynamic_entropy.joined_cover_rate(parry, cyl, X, n_max=3)
    inc_ok = abs(est.increments[-1] - LOG_GOLDEN) <= 1e-6
    return CheckResult(
        "golden_mean_rates",
        top_ok and inc_ok,
        2,
        f"h_top={top.running_inf:.6f} (target {LOG_GOLDEN:.6f} ± 5e-2), "
        f"increment@3={est.increments[-1]:.9f} (± 1e-6)",
    )


def scenario_variational_principle(seed: int = 7) -> CheckResult:
    t0 = time.time()
    fs = systems.full_shift(2)
    cylf = families.cylinder_partition(fs, 1)
    Xf = families.trivial_partition(fs, 1)
    rep_f = principles.variational_search(
        fs, cylf, Xf, n_max=8, starts=4, max_iter=100, seed=seed, tolerance=1e-3
    )
    gm, _ = _golden_parry()
    cylg = families.cylinder_partition(gm, 1)
    Xg = families.trivial_partition(gm, 1)
    rep_g = principles.variational_search(
        gm, cylg, Xg, n_max=10, starts=6, max_iter=120, seed=seed, tolerance=2e-2
    )
    phi_r = (1 + math.sqrt(5)) / 2
    row = np.asarray(rep_g.details["best_P"])[0]
    row_ok = abs(row[0] - 1 / phi_r) <= 2e-2 and abs(row[1] - 1 / phi_r**2) <= 2e-2

    # conditional case: overlapping 2-window covers conditioned on the
    # 1-cylinder generator (the finite-window gap between the counting and
    # measure sides decays like c/n_max, hence the deeper golden-mean run)
    Uf = families.family_of_words(
        fs, 2, [["00", "10"], ["01", "11"], ["10", "01"]], COVER
    )
    bf = families.cylinder_partition(fs, 1)
    rep_fc = principles.variational_search(
        fs, Uf, bf, n_max=6, starts=2, max_iter=50, seed=seed, tolerance=2e-2
    )
    Ug = families.family_of_words(gm, 2, [["00", "10"], ["01", "10"]], COVER)
    bg = families.cylinder_partition(gm, 1)
    rep_gc = principles.variational_search(
        gm, Ug, bg, n_max=13, starts=2, max_iter=50, seed=seed, tolerance=2e-2
    )
    # validate the winning measures' rate entries against the exhaustive
    # finer-partition route at small windows
    for rep, U, b, sysname in (
        (rep_fc, Uf, bf, fs),
        (rep_gc, Ug, bg, gm),
    ):
        mu_best = measures.markov(
            sysname, rep.details["best_P"], rep.details["best_pi"]
        )
        dynamic_entropy.joined_cover_rate(
            mu_best, U, b, n_max=3, ustar_budget=20000
        )

    passed = (
        rep_f.verdict == principles.HOLDS
        and rep_g.verdict == principles.HOLDS
        and row_ok
        and rep_fc.verdict == principles.HOLDS
        and rep_gc.verdict == principles.HOLDS
    )
    return CheckResult(
        "variational_principle",
        passed,
        4,
        f"full-shift gap={rep_f.gap:.2e}, golden gap={rep_g.gap:.4f}, "
        f"row=({row[0]:.4f},{row[1]:.4f}), conditional gaps="
        f"{rep_fc.gap:.4f}/{rep_gc.gap:.4f}, {time.time() - t0:.0f}s",
    )


def scenario_plus_minus_bracket() -> CheckResult:
    """Criterion 7 as literally specified.  The spec's expected constant
    0.636514 assumes the product partition minimizes the joined covers, which
    the exhaustive finer-partition oracle refutes from window 2 on (see the
    decisions ledger); the numerical assertions below are therefore expected
    to fail, and the machinery reports the true certified values instead."""
    fs3 = systems.full_shift(3)
    mu = measures.bernoulli(fs3, [1 / 3, 1 / 3, 1 / 3])
    U = families.family_of_words(fs3, 1, [["0", "1"], ["1", "2"]], COVER)
    X = families.trivial_partition(fs3, 1)
    rep = principles.cover_rate_bracket(
        mu, U, X, n_max=6, windows=(1, 2), node_budget=20000, tolerance=2e-2
    )
    width_ok = rep.gap <= 2e-2
    ends_ok = abs(rep.lhs - H_THIRD) <= 2e-2 and abs(rep.rhs - H_THIRD) <= 2e-2
    return CheckResult(
        "plus_minus_bracket",
        width_ok and ends_ok,
        1,
        f"minus={rep.lhs:.6f} plus={rep.rhs:.6f} width={rep.gap:.4f} "
        f"(spec target {H_THIRD:.6f} ± 2e-2; see ledger: criterion defect)",
    )


def scenario_factor_invariance() -> CheckResult:
    gm, parry = _golden_parry()
    idc = systems.identity_code(gm)
    cylg = families.cylinder_partition(gm, 1)
    Xg = families.trivial_partition(gm, 1)
    rep1 = principles.factor_invariance_check(idc, parry, cylg, Xg, n_max=6)

    vertex = systems.sft([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    code = systems.FactorMap(gm, vertex, 2, (0, 1, 2))
    U = families.family_of_words(vertex, 1, [["0", "1"], ["1", "2"]], COVER)
    bcyl = families.cylinder_partition(vertex, 1)
    rep2 = principles.factor_invariance_check(code, parry, U, bcyl, n_max=6)
    cylv = families.cylinder_partition(vertex, 1)
    Yv = families.trivial_partition(vertex, 1)
    rep3 = principles.factor_invariance_check(code, parry, cylv, Yv, n_max=6)

    gaps = [rep1.gap, rep2.gap, rep3.gap]
    passed = all(g <= 1e-9 for g in gaps)
    return CheckResult(
        "factor_invariance", passed, 3, f"max gap = {max(gaps):.2e}"
    )


def scenario_power_identity() -> CheckResult:
    fs = systems.full_shift(2)
    ber = measures.bernoulli(fs, [0.5, 0.5])
    cylf = families.cylinder_partition(fs, 1)
    Xf = families.trivial_partition(fs, 1)
    gm, parry = _golden_parry()
    cylg = families.cylinder_partition(gm, 1)
    Xg = families.trivial_partition(gm, 1)
    gaps = []
    for M in (1, 2, 3):
        gaps.append(dynamic_entropy.power_identity_check(ber, cylf, Xf, M, 3).max_gap)
        gaps.append(dynamic_entropy.power_identity_check(parry, cylg, Xg, M, 3).max_gap)
    # an overlapping conditioned cover stays in certified territory at M = 2
    Ug = families.family_of_words(gm, 2, [["00", "01"], ["01", "10"]], COVER)
    bg = families.cylinder_partition(gm, 1)
    gaps.append(dynamic_entropy.power_identity_check(parry, Ug, bg, 2, 2).max_gap)
    passed = all(g <= 1e-9 for g in gaps)
    return CheckResult("power_identity", passed, len(gaps), f"max gap = {max(gaps):.2e}")


def _two_block_components():
    blk = systems.sft([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
    P = [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]]
    c1 = measures.InvariantMeasure(
        measures.MARKOV, blk, pi=np.array([0.5, 0.5, 0, 0]), P=np.array(P, dtype=float)
    )
    c2 = measures.InvariantMeasure(
        measures.MARKOV, blk, pi=np.array([0, 0, 0.5, 0.5]), P=np.array(P, dtype=float)
    )
    return blk, [
        measures.ErgodicComponent(0.3, c1),
        measures.ErgodicComponent(0.7, c2),
    ]


def scenario_ergodic_additivity() -> CheckResult:
    blk, comps = _two_block_components()
    alpha = families.cylinder_partition(blk, 1)
    X = families.trivial_partition(blk, 1)
    rep_p = principles.ergodic_additivity_check(comps, alpha, X, n_max=8)
    part_ok = rep_p.verdict == principles.HOLDS and rep_p.gap <= 1e-6

    U = families.family_of_words(blk, 1, [["0", "1"], ["1", "2"], ["2", "3"]], COVER)
    rep_c = principles.ergodic_additivity_check(
        comps, U, X, n_max=5, node_budget=20000
    )
    cover_ok = rep_c.verdict != principles.VIOLATED and (
        rep_c.details["concavity_slack"] >= -1e-9
    )
    return CheckResult(
        "ergodic_additivity",
        part_ok and cover_ok,
        2,
        f"partition gap={rep_p.gap:.2e}, cover concavity slack="
        f"{rep_c.details['concavity_slack']:.2e} ({rep_c.verdict})",
    )


def scenario_minmax(seed: int = 5) -> CheckResult:
    fs = systems.full_shift(2)
    cylf = families.cylinder_partition(fs, 1)
    Xf = families.trivial_partition(fs, 1)
    grid_f = [
        measures.bernoulli(fs, [0.5, 0.5]),
        measures.bernoulli(fs, [0.3, 0.7]),
    ]
    rep1 = principles.minmax_check(fs, cylf, Xf, grid_f, n_max=8, seed=seed)

    fs3 = systems.full_shift(3)
    U3 = families.family_of_words(fs3, 1, [["0", "1"], ["1", "2"]], COVER)
    X3 = families.trivial_partition(fs3, 1)
    grid_3 = [
        measures.bernoulli(fs3, [1 / 3, 1 / 3, 1 / 3]),
        measures.bernoulli(fs3, [0.25, 0.5, 0.25]),
    ]
    rep2 = principles.minmax_check(
        fs3, U3, X3, grid_3, n_max=5, window=1, seed=seed, refine_starts=1
    )

    gm, _ = _golden_parry()
    Ug = families.family_of_words(gm, 2, [["00", "10"], ["01", "10"]], COVER)
    bg = families.cylinder_partition(gm, 1)
    grid_g = [measures.markov(gm, [[0.5, 0.5], [1, 0]]), _golden_parry()[1]]
    rep3 = principles.minmax_check(
        gm, Ug, bg, n_max=5, window=2, measure_grid=grid_g, seed=seed, refine_starts=1
    )
    # the criterion-6 conditional full-shift cover
    Ufc = families.family_of_words(
        fs, 2, [["00", "10"], ["01", "11"], ["10", "01"]], COVER
    )
    bfc = families.cylinder_partition(fs, 1)
    rep4 = principles.minmax_check(
        fs, Ufc, bfc, n_max=5, window=2, measure_grid=grid_f, seed=seed,
        refine_starts=1,
    )
    gaps = [rep1.gap, rep2.gap, rep3.gap, rep4.gap]
    passed = all(g <= 1e-9 for g in gaps)
    return CheckResult(
        "minmax_bound",
        passed,
        len(gaps),
        f"gaps: {', '.join(f'{g:.3e}' for g in gaps)} (all must be <= 1e-9)",
    )


SCENARIOS = [
    scenario_full_shift_generator,
    scenario_golden_mean_rates,
    scenario_variational_principle,
    scenario_plus_minus_bracket,
    scenario_factor_invariance,
    scenario_power_identity,
    scenario_ergodic_additivity,
    scenario_minmax,
]


def verify_suite(level: str = "fast", seed: int = 42) -> int:
    """Run the randomized property suites (fast: 100 instances per property,
    full: the acceptance counts) plus the named scenarios; print a pass/fail
    matrix and return a process exit status."""
    t0 = time.time()
    failures = 0
    print(f"== property suites ({level}, seed {seed}) ==")
    for i, spec in enumerate(PROPERTIES):
        count = spec.fast_count if level == "fast" else spec.full_count
        res = run_property(spec, seed + i, count)
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark}  {res.name}  ({res.tested} instances)")
        if not res.passed:
            failures += 1
            print("      counterexample:", json.dumps(res.counterexample))
    print("== named scenarios ==")
    for fn in SCENARIOS:
        try:
            res = fn()
        except Exception as exc:
            res = CheckResult(fn.__name__.removeprefix("scenario_"), False, 0,
                              f"{type(exc).__name__}: {exc}")
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark}  {res.name}  {res.detail}")
        if not res.passed:
            failures += 1
    print(f"== {failures} failure(s), {time.time() - t0:.1f}s ==")
    return 0 if failures == 0 else 1

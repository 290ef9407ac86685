"""Theorem-level verification harness.

Each check compares two computable sides of an identity, inequality, or
variational principle and issues a deliberately one-sided verdict: per-window
exact identities may come out `violated`, but statements about true limits
are only ever `holds_within_tol` or `bracket_open`, because every estimate
here is an upper bound of its limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import dynamic_entropy, families, measures, static_entropy, systems
from .dynamic_entropy import RATE_NODE_BUDGET_DEFAULT
from .families import SetFamily
from .systems import FactorMap

HOLDS = "holds_within_tol"
BRACKET_OPEN = "bracket_open"
VIOLATED = "violated"

IDENTITY_TOL = 1e-9
BRACKET_TOL = 2e-2


@dataclass(frozen=True)
class PrincipleReport:
    name: str
    lhs_label: str
    rhs_label: str
    lhs: float
    rhs: float
    gap: float
    verdict: str
    tolerance: float
    n_max: int
    details: dict = field(default_factory=dict)
    estimates: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs_label": self.lhs_label,
            "rhs_label": self.rhs_label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "n_max": self.n_max,
            "details": _jsonable(self.details),
            "estimates": {
                k: v.to_json_dict() for k, v in self.estimates.items() if v is not None
            },
        }

    def summary_row(self, scale: float = 1.0) -> tuple:
        return (
            self.name,
            self.lhs * scale,
            self.rhs * scale,
            self.gap * scale,
            self.verdict,
            self.n_max,
            self.tolerance,
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# factor maps


def pushforward(phi: FactorMap, mu: measures.InvariantMeasure):
    """The image measure under a sliding-block code.  Injective codes give an
    exactly representable Markov measure on the codomain; otherwise an exact
    lazily-transported cylinder-mass measure is returned."""
    if mu.system != phi.domain:
        raise measures.MeasureError("measure does not live on the code's domain")
    if mu.kind != measures.MARKOV:
        raise measures.MeasureError("pushforward applies to Markov measures")
    image = measures.PushforwardMeasure(phi, mu)
    cod = phi.codomain
    if not (phi.is_injective or cod.alphabet_size == 1):
        return image
    # the image is Markov: P[a, c] = mu[ac] / mu[a] from its 1- and 2-words;
    # a letter without mass moves uniformly, one without successors not at all
    pi = measures.weights_for(image, cod, 1)
    pairs = systems.word_universe(cod, 2).array.astype(np.intp)
    P = np.zeros((cod.alphabet_size, cod.alphabet_size))
    P[pairs[:, 0], pairs[:, 1]] = measures.weights_for(image, cod, 2)
    seen = pi > 0
    P[seen] /= pi[seen, None]
    allowed = cod.transition_array()[~seen]
    P[~seen] = allowed / np.maximum(allowed.sum(axis=1, keepdims=True), 1)
    return measures.InvariantMeasure(measures.MARKOV, cod, pi=pi, P=P)


def factor_invariance_check(
    phi: FactorMap,
    mu: measures.InvariantMeasure,
    U: SetFamily,
    beta: SetFamily,
    n_max: int = 6,
    node_budget: int = RATE_NODE_BUDGET_DEFAULT,
    tolerance: float = IDENTITY_TOL,
) -> PrincipleReport:
    """Per-window equality of the codomain quantities with their pullbacks:
    both the entropy sequences and the log covering-number sequences must
    match exactly under mu -> mu o phi^{-1}."""
    deepest = n_max + max(U.window, beta.window) - 1
    if not phi.is_onto_window(deepest):
        raise systems.SystemError(
            "code is not onto the codomain through window "
            f"{deepest}; the counting invariance needs a genuine factor map"
        )
    nu = pushforward(phi, mu)
    pull_U = families.pullback(phi, U)
    pull_beta = families.pullback(phi, beta)

    cod_h = dynamic_entropy.joined_cover_rate(nu, U, beta, n_max, node_budget)
    dom_h = dynamic_entropy.joined_cover_rate(
        mu, pull_U, pull_beta, n_max, node_budget
    )
    cod_n = dynamic_entropy.covering_rate(U, beta, n_max)
    dom_n = dynamic_entropy.covering_rate(pull_U, pull_beta, n_max)

    gaps = [
        abs(a.value - b.value)
        for a, b in zip(cod_h.entries, dom_h.entries)
    ] + [
        abs(a.value - b.value)
        for a, b in zip(cod_n.entries, dom_n.entries)
    ]
    gap = max(gaps)
    verdict = HOLDS if gap <= tolerance else VIOLATED
    return PrincipleReport(
        "factor_invariance",
        "codomain sequences",
        "pullback sequences",
        cod_h.running_inf,
        dom_h.running_inf,
        gap,
        verdict,
        tolerance,
        n_max,
        details={"per_window_gaps": gaps, "block_length": phi.block_length},
        estimates={
            "codomain_entropy": cod_h,
            "pullback_entropy": dom_h,
            "codomain_counting": cod_n,
            "pullback_counting": dom_n,
        },
    )


# ---------------------------------------------------------------------------
# measure-space search


def _measure_parameterization(sys: systems.SymbolicSystem):
    """Free rows (states with several allowed successors) and a builder
    mapping unconstrained reals through softmax onto the open simplex of each
    row.  The chain is irreducible because every allowed edge gets positive
    probability."""
    allowed = np.array(sys.transition, dtype=bool)
    free = [(s, np.flatnonzero(row)) for s, row in enumerate(allowed) if row.sum() > 1]
    dim = sum(len(cols) for _, cols in free)
    # P is positive on exactly the allowed edges (unless a softmax entry
    # underflows), so its recurrent classes are those of the system
    classes = measures.recurrent_classes(allowed)

    def build(theta: np.ndarray) -> measures.InvariantMeasure:
        P = allowed.astype(float)
        pos = 0
        for s, cols in free:
            z = theta[pos : pos + len(cols)]
            pos += len(cols)
            z = z - z.max()
            ez = np.exp(z)
            P[s, cols] = ez / ez.sum()
        if len(classes) == 1 and np.all(P[allowed] > 0.0):
            measures._check_rows_stochastic(P)
            pi = measures._stationary_on_class(P, classes[0])
        else:
            pi = measures.stationary_of(P)
        return measures.InvariantMeasure(measures.MARKOV, sys, pi=pi, P=P)

    return dim, build


def _nelder_mead(f, x0: np.ndarray, maxiter: int, xatol: float, fatol: float):
    """Minimize f from x0 by the Nelder-Mead simplex method (Nelder & Mead,
    Comput. J. 7, 1965) with fixed settings: reflection 1, expansion 2,
    contraction and shrink 1/2, and a first simplex of x0 plus x0 with one
    coordinate scaled by 1.05 (set to 0.00025 where it is 0).  It stops after
    `maxiter` iterations, counting from 1, or once every vertex lies within
    `xatol` of the best in each coordinate and within `fatol` of it in value.
    Step for step, and so in every bit of the result, this is
    scipy.optimize.minimize(f, x0, method="Nelder-Mead", options={"maxiter":
    maxiter, "xatol": xatol, "fatol": fatol}): the same arithmetic, f called
    on a copy of each vertex, and the same sorts (scipy's sort twice after
    the first simplex).  Returns (x, fun, nfev): the best vertex, its value
    as np.float64, and the number of calls of f."""
    nfev = 0

    def call(x):
        nonlocal nfev
        nfev += 1
        return f(np.copy(x))

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((N + 1,), np.inf)
    for k in range(N + 1):
        fsim[k] = call(sim[k])
    sim, fsim = ordered(*ordered(sim, fsim))

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]  # reflection
        fxr = call(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]  # expansion
            fxe = call(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                fxc = call(xc)
                accepted = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                fxc = call(xc)
                accepted = fxc < fsim[-1]
            if accepted:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = call(sim[j])
        iterations += 1
        sim, fsim = ordered(sim, fsim)
    return sim[0], np.min(fsim), nfev


def variational_search(
    sys: systems.SymbolicSystem,
    U: SetFamily,
    beta: SetFamily,
    n_max: int = 6,
    starts: int = 8,
    max_iter: int = 120,
    seed: int = 0,
    node_budget: int = RATE_NODE_BUDGET_DEFAULT,
    tolerance: float = BRACKET_TOL,
) -> PrincipleReport:
    """Maximize the joined-cover rate over Markov measures (softmax rows on
    the allowed edges) and compare the supremum estimate against the
    combinatorial rate.  Each of `starts` seeded starting points runs a
    Nelder-Mead simplex search (`_nelder_mead`: reflection 1, expansion 2,
    contraction and shrink 1/2) for at most `max_iter` iterations, with
    xatol 1e-4 and fatol 1e-10.  Both sides are upper-bound estimates, so the
    verdict is never `violated`."""
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    classes = measures.recurrent_classes(sys.transition_array())
    if len(classes) != 1:
        raise measures.MeasureError(
            "variational search needs an irreducible transition graph"
        )
    dim, build = _measure_parameterization(sys)
    rng = np.random.default_rng(seed)
    start_seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(starts)]

    def objective(theta):
        mu = build(np.asarray(theta))
        est = dynamic_entropy.joined_cover_rate(
            mu, U, beta, n_max, node_budget, ustar_budget=0
        )
        return -est.running_inf

    trace = []
    best_val, best_theta = -math.inf, np.zeros(max(dim, 1))
    for s_seed in start_seeds:
        theta0 = np.random.default_rng(s_seed).normal(size=dim) if dim else np.zeros(1)
        if dim:
            theta, fun, evals = _nelder_mead(objective, theta0, max_iter, 1e-4, 1e-10)
            val = -fun
        else:
            val, theta, evals = -objective(theta0), theta0, 1
        trace.append({"seed": s_seed, "value": val, "evaluations": evals})
        if val > best_val:
            best_val, best_theta = val, theta

    best_mu = build(best_theta) if dim else build(np.zeros(0))
    sup_est = dynamic_entropy.joined_cover_rate(
        best_mu, U, beta, n_max, node_budget, ustar_budget=0
    )
    top_est = dynamic_entropy.covering_rate(U, beta, n_max)
    gap = top_est.running_inf - sup_est.running_inf
    verdict = HOLDS if gap <= tolerance else BRACKET_OPEN
    return PrincipleReport(
        "variational_principle",
        "combinatorial rate",
        "best measure rate",
        top_est.running_inf,
        sup_est.running_inf,
        gap,
        verdict,
        tolerance,
        n_max,
        details={
            "best_P": best_mu.P,
            "best_pi": best_mu.pi,
            "starts": starts,
            "start_seeds": start_seeds,
            "trace": trace,
        },
        estimates={"combinatorial": top_est, "best_measure": sup_est},
    )


def minmax_check(
    sys: systems.SymbolicSystem,
    U: SetFamily,
    beta: SetFamily,
    measure_grid: Sequence[measures.InvariantMeasure],
    n_max: int = 6,
    window: Optional[int] = None,
    budget: int = families.USTAR_BUDGET_DEFAULT,
    refine_starts: int = 2,
    refine_iter: int = 60,
    seed: int = 0,
    tolerance: float = IDENTITY_TOL,
) -> PrincipleReport:
    """Conservative check of min over finer partitions of sup over measures
    of the partition rate against the combinatorial rate.  The inner sup is
    under-approximated (finite grid plus simplex refinement) and the outer
    inf restricted to window-built partitions, so computed minmax <= true
    minmax; the verdict compares it against the combinatorial estimate.
    The refinement runs `refine_starts` Nelder-Mead simplex searches
    (`_nelder_mead`: reflection 1, expansion 2, contraction and shrink 1/2)
    per candidate from seeded random points, each for at most `refine_iter`
    iterations with xatol 1e-3 and fatol 1e-9."""
    measure_grid = list(measure_grid)  # read once per candidate
    if not measure_grid:
        raise ValueError("measure_grid must hold at least one measure")
    if refine_starts < 0:
        raise ValueError(f"refine_starts must be >= 0, got {refine_starts}")

    window, candidates, used_fallback = families._finer_candidates(U, window, budget)
    candidates = list(candidates)

    dim, build = _measure_parameterization(sys) if sys.is_word_system else (0, None)
    rng = np.random.default_rng(seed)

    rows = []
    minmax = math.inf
    for alpha in candidates:
        sup_val = max(
            dynamic_entropy.entropy_rate(mu, alpha, beta, n_max).running_inf
            for mu in measure_grid
        )
        if dim and refine_starts:
            def neg_rate(theta):
                mu = build(np.asarray(theta))
                return -dynamic_entropy.entropy_rate(mu, alpha, beta, n_max).running_inf

            for _ in range(refine_starts):
                _, fun, _ = _nelder_mead(
                    neg_rate, rng.normal(size=dim), refine_iter, 1e-3, 1e-9
                )
                sup_val = max(sup_val, -fun)
        rows.append(sup_val)
        minmax = min(minmax, sup_val)

    top_est = dynamic_entropy.covering_rate(U, beta, n_max)
    gap = minmax - top_est.running_inf
    verdict = HOLDS if gap <= tolerance else BRACKET_OPEN
    return PrincipleReport(
        "minmax_bound",
        "min over partitions of sup over measures",
        "combinatorial rate",
        minmax,
        top_est.running_inf,
        gap,
        verdict,
        tolerance,
        n_max,
        details={
            "window": window,
            "candidate_count": len(candidates),
            "per_candidate_sup": rows,
            "used_ext_fallback": used_fallback,
        },
        estimates={"combinatorial": top_est},
    )


def cover_rate_bracket(
    mu,
    U: SetFamily,
    beta: SetFamily,
    n_max: int = 6,
    windows: Sequence[int] = (1, 2),
    budget: int = families.USTAR_BUDGET_DEFAULT,
    node_budget: int = RATE_NODE_BUDGET_DEFAULT,
    tolerance: float = BRACKET_TOL,
) -> PrincipleReport:
    """Bracket the two cover-rate definitions: the joined-cover rate from
    below the candidate class and the refining-partition rate from above.
    The candidate infimum is window-restricted, so the bracket can stay open;
    equality of the true limits is never asserted, only a closing width."""
    minus = dynamic_entropy.joined_cover_rate(
        mu, U, beta, n_max, node_budget, ustar_budget=0
    )
    plus_results = [
        dynamic_entropy.refining_partition_rate(mu, U, beta, n_max, w, budget)
        for w in windows
    ]
    plus_vals = [r.value for r in plus_results]
    for earlier, later in zip(plus_vals, plus_vals[1:]):
        if later > earlier + 1e-9:
            raise static_entropy.EntropyError(
                "refining-partition rate increased with window"
            )
    best_plus = min(plus_vals)
    minus_val = (
        minus.certified_running_inf
        if minus.certified_running_inf is not None
        else minus.running_inf
    )
    width = abs(best_plus - minus_val)
    verdict = HOLDS if width <= tolerance else BRACKET_OPEN
    return PrincipleReport(
        "cover_rate_bracket",
        "joined-cover rate",
        "refining-partition rate",
        minus_val,
        best_plus,
        width,
        verdict,
        tolerance,
        n_max,
        details={
            "windows": list(windows),
            "per_window_values": plus_vals,
            "candidate_counts": [r.candidate_count for r in plus_results],
            "joined_exactness": minus.exactness,
            "certified_n_max": minus.certified_n_max,
        },
        estimates={
            "joined_cover": minus,
            "best_refining": plus_results[int(np.argmin(plus_vals))].estimate,
        },
    )


def ergodic_additivity_check(
    components: Sequence[measures.ErgodicComponent],
    fam: SetFamily,
    beta: SetFamily,
    n_max: int = 8,
    node_budget: int = RATE_NODE_BUDGET_DEFAULT,
    tolerance: Optional[float] = None,
) -> PrincipleReport:
    """Rate of the mixture versus the weighted sum of component rates.

    For partitions the identity is tested at the limit through the increment
    proxies (the running averages differ by H(component weights)/N, which the
    increments cancel exactly); covers are reported as a bracket.  The per-
    window concavity direction mixed >= weighted sum is asserted either way."""
    mixed = measures.mix(components)
    is_partition = fam.kind == families.PARTITION

    def rate(m):
        if is_partition:
            return dynamic_entropy.entropy_rate(m, fam, beta, n_max)
        return dynamic_entropy.joined_cover_rate(
            m, fam, beta, n_max, node_budget, ustar_budget=0
        )

    mixed_est = rate(mixed)
    comp_ests = [rate(c.measure) for c in components]
    weights = [c.weight for c in components]

    per_window_weighted = [
        sum(w * e.entries[i].value for w, e in zip(weights, comp_ests))
        for i in range(n_max)
    ]
    concavity_slack = min(
        m.value - s for m, s in zip(mixed_est.entries, per_window_weighted)
    )
    concavity_ok = concavity_slack >= -IDENTITY_TOL

    mixed_proxy = mixed_est.limit_proxy
    weighted_proxy = sum(w * e.limit_proxy for w, e in zip(weights, comp_ests))
    gap = abs(mixed_proxy - weighted_proxy)
    if tolerance is None:
        tolerance = max(2 * mixed_est.stabilization_gap, 1e-6)
    if not concavity_ok:
        verdict = VIOLATED
    else:
        verdict = HOLDS if gap <= tolerance else BRACKET_OPEN
    return PrincipleReport(
        "ergodic_additivity",
        "mixture rate (limit proxy)",
        "weighted component rates",
        mixed_proxy,
        weighted_proxy,
        gap,
        verdict,
        tolerance,
        n_max,
        details={
            "weights": weights,
            "per_window_mixed": [e.value for e in mixed_est.entries],
            "per_window_weighted": per_window_weighted,
            "concavity_slack": concavity_slack,
            "family_kind": fam.kind,
        },
        estimates={"mixture": mixed_est},
    )


def factor_conditioned_profile(
    mu,
    phi: FactorMap,
    U: SetFamily,
    windows: Sequence[int] = (1, 2, 3),
    n_max: int = 6,
    node_budget: int = RATE_NODE_BUDGET_DEFAULT,
) -> PrincipleReport:
    """Window-w approximations of conditioning on the factor sigma-algebra:
    condition on pullbacks of the codomain w-cylinder partitions.  Both the
    static values and the rate estimates must be nonincreasing in w."""
    statics = []
    rates = []
    for w in windows:
        beta_w = families.pullback(
            phi, families.cylinder_partition(phi.codomain, w)
        )
        Uw, bw = families.align_windows(U, beta_w)
        statics.append(
            static_entropy.conditional_cover_entropy(
                mu, Uw, bw, node_budget=node_budget, ustar_budget=0
            ).nats
        )
        rates.append(
            dynamic_entropy.joined_cover_rate(
                mu, Uw, bw, n_max, node_budget, ustar_budget=0
            )
        )
    for seq in (statics, [r.running_inf for r in rates]):
        for earlier, later in zip(seq, seq[1:]):
            if later > earlier + IDENTITY_TOL:
                raise static_entropy.EntropyError(
                    "factor-conditioned sequence increased with window"
                )
    verdict = HOLDS
    return PrincipleReport(
        "factor_conditioned_profile",
        f"static values over windows {list(windows)}",
        "rate estimates",
        statics[-1],
        rates[-1].running_inf,
        0.0,
        verdict,
        IDENTITY_TOL,
        n_max,
        details={
            "windows": list(windows),
            "static_values": statics,
            "rate_values": [r.running_inf for r in rates],
        },
        estimates={f"rate_w{w}": r for w, r in zip(windows, rates)},
    )

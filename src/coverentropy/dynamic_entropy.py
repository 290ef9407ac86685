"""Subadditive-limit entropy rates with certified estimate objects.

Every quantity here is a limit lim a_N / N = inf a_N / N of a subadditive
sequence, so each computed a_N / N is a certified upper bound of the true
value.  Estimates carry the full sequence, the running infimum, a
stabilization gap, per-entry exactness, and the increment sequence
a_N - a_{N-1} (for partitions conditioned on the trivial partition the
increments are the classical conditional estimator and converge much
faster; Markov chains reach the exact rate at N = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import families, measures, static_entropy, systems
from .families import PARTITION, SetFamily
from .static_entropy import HEURISTIC

SUBADD_TOL = 1e-9
CONSTANT_TOL = 1e-9

# the one-shot static default (10^7 nodes) would let a single uncertifiable
# window grind for a very long time inside rate loops; estimates degrade to
# flagged upper bounds anyway, so rates cap the search much earlier
RATE_NODE_BUDGET_DEFAULT = 50_000

EXACT_CONSTANT = "exact_constant"
UPPER_BOUND_CERTIFIED = "upper_bound_certified"
TRUNCATED = "truncated"

N_MAX_COVER_DEFAULT = 8
N_MAX_PARTITION_DEFAULT = 14
N_MAX_COUNTING_DEFAULT = 15


class SubadditivityError(ValueError):
    """A computed sequence violated a_{N+M} <= a_N + a_M beyond tolerance;
    all sequences here are provably subadditive, so this means a bug."""


@dataclass(frozen=True)
class EstimateEntry:
    N: int
    value: float
    per_step: float
    exact: bool


@dataclass(frozen=True)
class EntropyEstimate:
    quantity: str
    params: dict
    entries: tuple[EstimateEntry, ...]
    n_max: int
    exactness: str

    @property
    def running_inf(self) -> float:
        return min(e.per_step for e in self.entries)

    @property
    def certified_running_inf(self) -> Optional[float]:
        vals = [e.per_step for e in self.entries if e.exact]
        return min(vals) if vals else None

    @property
    def certified_n_max(self) -> int:
        n = 0
        for e in self.entries:
            if not e.exact:
                break
            n = e.N
        return n

    @property
    def stabilization_gap(self) -> float:
        last, prev = self.entries[-1], self.entries[-2]
        return abs(last.per_step - prev.per_step)

    @property
    def increments(self) -> tuple[float, ...]:
        vals = [e.value for e in self.entries]
        return tuple(b - a for a, b in zip(vals, vals[1:]))

    @property
    def limit_proxy(self) -> float:
        """Last increment: for partition sequences this is the classical
        conditional estimator of the limit (exact for Markov data from
        N = 2); still only a proxy for covers."""
        return self.increments[-1]

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "params": self.params,
            "sequence": [[e.N, e.value, e.per_step, e.exact] for e in self.entries],
            "running_inf": self.running_inf,
            "certified_running_inf": self.certified_running_inf,
            "gap": self.stabilization_gap,
            "increments": list(self.increments),
            "exactness": self.exactness,
            "n_max": self.n_max,
        }

    def csv_rows(self, scale: float = 1.0) -> list[tuple]:
        return [(e.N, e.value * scale, e.per_step * scale) for e in self.entries]


def subadditive_estimate(
    a: Callable[[int], float | tuple[float, bool]],
    n_max: int,
    quantity: str = "",
    params: Optional[dict] = None,
) -> EntropyEstimate:
    """Evaluate a(1..n_max), audit subadditivity on the exact entries, and
    assemble the estimate.  `a` may return a bare value (taken as exact) or a
    (value, exact) pair."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    entries = []
    for N in range(1, n_max + 1):
        out = a(N)
        value, exact = out if isinstance(out, tuple) else (float(out), True)
        entries.append(EstimateEntry(N, float(value), float(value) / N, exact))
    _audit_subadditivity(entries)
    all_exact = all(e.exact for e in entries)
    pers = [e.per_step for e in entries]
    if all_exact and max(pers) - min(pers) <= CONSTANT_TOL:
        exactness = EXACT_CONSTANT
    elif all_exact:
        exactness = UPPER_BOUND_CERTIFIED
    else:
        exactness = TRUNCATED
    return EntropyEstimate(
        quantity, dict(params or {}), tuple(entries), n_max, exactness
    )


def _audit_subadditivity(entries):
    vals = {e.N: e for e in entries}
    for N in vals:
        for M in vals:
            e = vals.get(N + M)
            if e is None:
                continue
            if not (vals[N].exact and vals[M].exact and e.exact):
                continue
            if e.value > vals[N].value + vals[M].value + SUBADD_TOL:
                raise SubadditivityError(
                    f"a_{N + M} = {e.value} exceeds a_{N} + a_{M} = "
                    f"{vals[N].value + vals[M].value} (N={N}, M={M})"
                )


# ---------------------------------------------------------------------------
# the dynamical sequences


def _joined_pair(U: SetFamily, beta: SetFamily, N: int) -> tuple[SetFamily, SetFamily]:
    """Aligned N-fold dynamical joins of a family and its conditioner,
    memoized on the family instances.  A rate loop asks for N = 1, 2, ... in
    turn, and `dynamical_join` keeps each family's joins on it and steps
    each new one from the one before: O(1) offset lookups per window instead
    of N."""
    key = ("joined_pair", id(beta), N)
    got = U._cache.get(key)
    if got is not None and got[0] is beta:
        return got[1], got[2]
    uj, bj = families.align_windows(
        families.dynamical_join(U, 0, N - 1), families.dynamical_join(beta, 0, N - 1)
    )
    U._cache[key] = (beta, uj, bj)
    return uj, bj


def entropy_rate(
    mu, alpha: SetFamily, beta: SetFamily, n_max: int = N_MAX_PARTITION_DEFAULT
) -> EntropyEstimate:
    """h(alpha | beta, T) for partitions, via the subadditive sequence
    a_N = H(alpha joins | beta joins)."""
    if alpha.kind != PARTITION or beta.kind != PARTITION:
        raise static_entropy.EntropyError("entropy_rate needs partitions")

    def a(N):
        aj, bj = _joined_pair(alpha, beta, N)
        return static_entropy.conditional_entropy(mu, aj, bj).nats

    return subadditive_estimate(
        a, n_max, "partition_entropy_rate", {"n_max": n_max}
    )


def joined_cover_rate(
    mu,
    U: SetFamily,
    beta: SetFamily,
    n_max: int = N_MAX_COVER_DEFAULT,
    node_budget: int = RATE_NODE_BUDGET_DEFAULT,
    ustar_budget: int = 0,
) -> EntropyEstimate:
    """The subadditive-limit cover rate: a_N = H(U joins | beta joins).
    Entries fall back to flagged upper bounds when an inner minimization
    cannot be certified; the estimate is then marked truncated."""

    def a(N):
        uj, bj = _joined_pair(U, beta, N)
        v = static_entropy.conditional_cover_entropy(
            mu, uj, bj, node_budget=node_budget, ustar_budget=ustar_budget
        )
        return v.nats, v.method != HEURISTIC

    return subadditive_estimate(a, n_max, "joined_cover_rate", {"n_max": n_max})


def covering_rate(
    U: SetFamily, beta: SetFamily, n_max: int = N_MAX_COUNTING_DEFAULT
) -> EntropyEstimate:
    """Combinatorial (topological, for open covers) conditional entropy:
    a_N = log N(U joins | beta joins)."""

    def a(N):
        uj, bj = _joined_pair(U, beta, N)
        return math.log(static_entropy.covering_number(uj, bj))

    return subadditive_estimate(a, n_max, "covering_rate", {"n_max": n_max})


@dataclass(frozen=True)
class RefinementSearchResult:
    """Outcome of minimizing the partition rate over the finer-partition
    class of a cover at a given window."""

    estimate: EntropyEstimate
    best_partition: SetFamily
    window: int
    candidate_count: int
    used_ext_fallback: bool

    @property
    def value(self) -> float:
        return self.estimate.running_inf


def refining_partition_rate(
    mu,
    U: SetFamily,
    beta: SetFamily,
    n_max: int = N_MAX_COVER_DEFAULT,
    window: Optional[int] = None,
    budget: int = families.USTAR_BUDGET_DEFAULT,
) -> RefinementSearchResult:
    """Minimum of entropy_rate over the partitions finer than U (element-wise
    containment) built at the given window; monotone nonincreasing in the
    window.  On budget refusal the candidate class degrades to the
    ordered-difference partitions and the result says so."""
    window, candidates, used_fallback = families._finer_candidates(U, window, budget)

    best = None
    count = 0
    for alpha in candidates:
        count += 1
        est = entropy_rate(mu, alpha, beta, n_max)
        if best is None or est.running_inf < best[0].running_inf - 1e-15:
            best = (est, alpha)
    est, alpha = best
    return RefinementSearchResult(est, alpha, window, count, used_fallback)


@dataclass(frozen=True)
class PowerIdentityReport:
    """Per-matched-N comparison of the base-system cover rate with the
    M-block power-system rate (an exact identity per matched window)."""

    M: int
    pairs: tuple[tuple[int, float, float], ...]  # (N, a_{N*M} base, a_N power)
    max_gap: float
    tolerance: float
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "pairs": [list(p) for p in self.pairs],
            "max_gap": self.max_gap,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


def power_identity_check(
    mu,
    U: SetFamily,
    beta: SetFamily,
    M: int,
    n_max: int = 3,
    node_budget: int = RATE_NODE_BUDGET_DEFAULT,
    tolerance: float = 1e-9,
) -> PowerIdentityReport:
    """Check a_{N*M}(base) == a_N(M-block power system) for N = 1..n_max,
    where both sides are the joined-cover conditional entropies on matched
    data.  The identity is exact per matched N."""
    mu_pow = measures.power_measure(mu, M)
    # the M-th-power side conditions the M-fold joins, not the bare families
    U_pow = block_recode(families.dynamical_join(U, 0, M - 1), M)
    beta_pow = block_recode(families.dynamical_join(beta, 0, M - 1), M)

    pairs = []
    for N in range(1, n_max + 1):
        uj, bj = _joined_pair(U, beta, N * M)
        lhs = static_entropy.conditional_cover_entropy(
            mu, uj, bj, node_budget=node_budget, ustar_budget=0
        ).nats
        upj, bpj = _joined_pair(U_pow, beta_pow, N)
        rhs = static_entropy.conditional_cover_entropy(
            mu_pow, upj, bpj, node_budget=node_budget, ustar_budget=0
        ).nats
        pairs.append((N, lhs, rhs))
    max_gap = max(abs(l - r) for _, l, r in pairs)
    verdict = "holds_within_tol" if max_gap <= tolerance else "violated"
    return PowerIdentityReport(M, tuple(pairs), max_gap, tolerance, verdict)


def block_recode(U: SetFamily, M: int) -> SetFamily:
    """A word family re-read on the M-block power system.  Power n-words
    biject order-preservingly with base (n*M)-words, so U read through the
    prefix of each (n*M)-word, the window extended to a block multiple,
    transfers unchanged."""
    if M == 1:
        return U
    if not U.system.is_word_system:
        raise families.FamilyError("block recoding applies to word carriers")
    pow_sys = systems.power_system(U.system, M)
    n = -(-U.window // M)
    assert (
        systems.word_universe(pow_sys, n).count
        == systems.word_universe(U.system, n * M).count
    )
    idx = families._subword_indices(U.system, U.window, 0, n * M)
    return families._read_through(U, pow_sys, n, idx)

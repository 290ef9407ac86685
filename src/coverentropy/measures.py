"""Invariant measures on symbolic systems and their conditional and ergodic
structure: Markov/Bernoulli measures on (sub)shifts, cycle-weighted measures
on permutation systems, conditional measures on carrier subsets, and the
finite ergodic decomposition into recurrent classes / cycles.

All logarithms downstream are natural; this module only deals in masses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bitsets, systems
from .systems import SymbolicSystem

MARKOV = "markov"
PERMUTATION = "permutation"

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
TRANSIENT_TOL = 1e-10


class MeasureError(ValueError):
    pass


class ReducibleChainError(MeasureError):
    """Refusal for stationary_of on a chain with several recurrent classes;
    callers should use ergodic_decompose instead."""

    def __init__(self, classes):
        super().__init__(
            f"chain has {len(classes)} recurrent classes; decompose it instead"
        )
        self.classes = classes


def recurrent_classes(P: np.ndarray) -> list[list[int]]:
    """Recurrent classes of a (sub)stochastic matrix: strongly connected
    components with no positive edge leaving them and at least one internal
    edge (a dead state is transient, not a class)."""
    pos = P > 0
    comp = systems._strong_components(pos)
    src, dst = comp[np.argwhere(pos).T]
    # a component with an edge and no edge leaving it has an internal edge
    closed = np.setdiff1d(src, src[src != dst])
    return sorted(np.flatnonzero(comp == c).tolist() for c in closed)


def stationary_of(P) -> np.ndarray:
    """The unique stationary probability vector of a chain with a single
    recurrent class (transient states get mass 0)."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise MeasureError(f"P must be a square matrix, not of shape {P.shape}")
    _check_rows_stochastic(P)
    classes = recurrent_classes(P)
    if len(classes) != 1:
        raise ReducibleChainError(classes)
    return _stationary_on_class(P, classes[0])


def _stationary_on_class(P: np.ndarray, cls: list[int]) -> np.ndarray:
    """The stationary vector of P, given that `cls` is its only recurrent
    class."""
    sub = P[np.ix_(cls, cls)]
    n = len(cls)
    A = sub.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    x = np.linalg.solve(A, b)
    x = np.clip(x, 0.0, None)
    x = x / x.sum()
    # lazy-chain refinement cleans ill-conditioned solves and is safe for
    # periodic classes (same fixed point, always aperiodic)
    for _ in range(200):
        if np.max(np.abs(x @ sub - x)) <= 1e-13:
            break
        x = 0.5 * (x @ sub + x)
        x = np.clip(x, 0.0, None)
        x /= x.sum()
    pi = np.zeros(len(P))
    pi[cls] = x
    if np.max(np.abs(pi @ P - pi)) > STATIONARY_TOL:
        raise MeasureError("stationary solve failed tolerance 1e-10")
    return pi


def _check_rows_stochastic(P: np.ndarray):
    if not np.all(np.isfinite(P)):
        raise MeasureError("transition matrix has a non-finite entry")
    for i, row in enumerate(P):
        if np.any(row < 0):
            raise MeasureError(f"negative transition probability in row {i}")
        s = row.sum()
        if s != 0.0 and abs(s - 1.0) > ROW_SUM_TOL:
            raise MeasureError(f"row {i} sums to {s}, not 1")


@dataclass(frozen=True, eq=False)
class InvariantMeasure:
    """Shift-invariant measure: Markov (pi, P) on a word system or cycle
    weights on a permutation system.  Immutable; hash is by identity."""

    kind: str
    system: SymbolicSystem
    pi: Optional[np.ndarray] = None
    P: Optional[np.ndarray] = None
    point_weights: Optional[np.ndarray] = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == MARKOV:
            if not self.system.is_word_system:
                raise MeasureError("Markov measures live on word systems")
            P, pi = self.P, self.pi
            _check_rows_stochastic(P)
            t = self.system.transition
            if np.any((P > 0) & ~np.array(t, dtype=bool)):
                raise MeasureError("P positive on a forbidden transition")
            if (
                not np.all(np.isfinite(pi))
                or np.any(pi < -1e-15)
                or abs(pi.sum() - 1.0) > 1e-10
            ):
                raise MeasureError("pi is not a probability vector")
            if np.max(np.abs(pi @ P - pi)) > STATIONARY_TOL:
                raise MeasureError("pi is not stationary for P (tolerance 1e-10)")
            zero_rows = np.where(P.sum(axis=1) == 0)[0]
            if np.any(pi[zero_rows] > 1e-15):
                raise MeasureError("positive mass on a state with no exit row")
        elif self.kind == PERMUTATION:
            if self.system.kind != systems.PERMUTATION:
                raise MeasureError("cycle measures live on permutation systems")
            w = self.point_weights
            # the least of 0 and the weights is 0 only when no weight is
            # negative or NaN, and an infinity fails the sum, so two
            # reductions check finiteness too
            if not (w.min(initial=0.0) >= 0.0 and abs(w.sum() - 1.0) <= 1e-10):
                raise MeasureError("point weights are not a probability vector")
            vals = w.tolist()
            for cyc in systems.permutation_cycles(self.system):
                on_cycle = [vals[x] for x in cyc]
                if max(on_cycle) - min(on_cycle) > 1e-12:
                    raise MeasureError("weights not constant on a cycle")
        else:
            raise MeasureError(f"unknown measure kind {self.kind!r}")


def _per_letter(sys: SymbolicSystem, name: str, x, ndim: int) -> np.ndarray:
    """x as floats, one entry per letter of a word system on each of ndim axes."""
    x, shape = np.asarray(x, dtype=float), (sys.alphabet_size,) * ndim
    if sys.is_word_system and x.shape != shape:
        raise MeasureError(f"{name} must have shape {shape} for the letters, not {x.shape}")
    return x


def markov(sys: SymbolicSystem, P, pi=None) -> InvariantMeasure:
    P = _per_letter(sys, "P", P, 2)
    pi = stationary_of(P) if pi is None else _per_letter(sys, "pi", pi, 1)
    return InvariantMeasure(MARKOV, sys, pi=pi, P=P)


def bernoulli(sys: SymbolicSystem, p) -> InvariantMeasure:
    """Memoryless measure: every row of P equals p (full shifts)."""
    p = _per_letter(sys, "p", p, 1)
    P = np.tile(p, (sys.alphabet_size, 1))
    return InvariantMeasure(MARKOV, sys, pi=p.copy(), P=P)


def cycle_measure(sys: SymbolicSystem, cycle_weights) -> InvariantMeasure:
    """Weights are total masses per canonical cycle, spread uniformly."""
    if sys.kind != systems.PERMUTATION:
        raise MeasureError("cycle measures live on permutation systems")
    cycles = systems.permutation_cycles(sys)
    cw = np.asarray(cycle_weights, dtype=float)
    if len(cw) != len(cycles):
        raise MeasureError(f"need one weight per cycle ({len(cycles)} cycles)")
    w = [0.0] * sys.point_count
    for cyc, mass in zip(cycles, cw.tolist()):
        share = mass / len(cyc)
        for x in cyc:
            w[x] = share
    return InvariantMeasure(PERMUTATION, sys, point_weights=np.array(w))


def uniform_cycle_measure(sys: SymbolicSystem) -> InvariantMeasure:
    n = sys.point_count
    return InvariantMeasure(
        PERMUTATION, sys, point_weights=np.full(n, 1.0 / n)
    )


@dataclass(frozen=True, eq=False)
class ConditionalMeasure:
    """Measure induced on a carrier subset; the distinguished Zero measure
    (base_mass 0, all-zero weights) when the subset is null."""

    system: SymbolicSystem
    window: Optional[int]
    atom: int
    weights: np.ndarray
    base_mass: float

    @property
    def is_zero(self) -> bool:
        return self.base_mass == 0.0


@dataclass(frozen=True, eq=False)
class PushforwardMeasure:
    """Image measure μ∘φ⁻¹ of a Markov measure under a sliding-block code,
    evaluated exactly by transporting preimage masses window by window."""

    kind = "pushforward"
    phi: systems.FactorMap
    base: "InvariantMeasure"
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def system(self) -> SymbolicSystem:
        return self.phi.codomain


def cylinder_mass(mu: InvariantMeasure, word) -> float:
    """π_{w_0} ∏ P_{w_i w_{i+1}} for an admissible word."""
    if mu.kind != MARKOV:
        raise MeasureError("cylinder masses apply to Markov measures")
    word = tuple(int(v) for v in word)
    t = mu.system.transition
    for a, b in zip(word, word[1:]):
        if not t[a][b]:
            raise systems.SystemError(f"word {word} is not admissible")
    mass = float(mu.pi[word[0]])
    for a, b in zip(word, word[1:]):
        mass *= float(mu.P[a, b])
    return mass


def weights_for(mu, system: SymbolicSystem, window: Optional[int]) -> np.ndarray:
    """Mass of every universe element (admissible window-words, or points)."""
    if isinstance(mu, ConditionalMeasure):
        if mu.system != system or mu.window != window:
            raise MeasureError("conditional measure lives on another carrier")
        return mu.weights
    if isinstance(mu, PushforwardMeasure):
        if system != mu.system:
            raise MeasureError("measure lives on another system")
        key = ("weights", window)
        w = mu._cache.get(key)
        if w is None:
            b = mu.phi.block_length
            dom_w = weights_for(mu.base, mu.phi.domain, window + b - 1)
            idx = mu.phi.image_indices(window)
            count = systems.word_universe(mu.system, window).count
            w = np.bincount(idx, weights=dom_w, minlength=count)
            mu._cache[key] = w
        return w
    if mu.system != system:
        raise MeasureError("measure lives on another system")
    if mu.kind == PERMUTATION:
        if window is not None:
            raise MeasureError("point measures have no word windows")
        return mu.point_weights
    key = ("weights", window)
    w = mu._cache.get(key)
    if w is None:
        uni = systems.word_universe(system, window)
        arr = uni.array.astype(np.int64)
        w = mu.pi[arr[:, 0]].astype(float)
        if window > 1:
            w = w * np.prod(mu.P[arr[:, :-1], arr[:, 1:]], axis=1)
        mu._cache[key] = w
    return w


def family_weights(mu, family) -> np.ndarray:
    return weights_for(mu, family.system, family.window)


def mask_mass(weights: np.ndarray, mask: int) -> float:
    """Total weight of the universe elements in `mask`."""
    if mask == 0:
        return 0.0
    return float(weights[bitsets.bools_from_mask(mask, len(weights))].sum())


def set_mass(mu, system: SymbolicSystem, window: Optional[int], mask: int) -> float:
    return mask_mass(weights_for(mu, system, window), mask)


def condition_on(
    mu, mask: int, system: SymbolicSystem, window: Optional[int]
) -> ConditionalMeasure:
    """μ_B: weights w ↦ μ([w])/μ(B) inside B; the Zero measure if μ(B)=0."""
    w = weights_for(mu, system, window)
    sel = bitsets.bools_from_mask(mask, len(w))
    base = float(w[sel].sum())
    out = np.zeros_like(w)
    if base > 0.0:
        out[sel] = w[sel] / base
    else:
        base = 0.0
    return ConditionalMeasure(system, window, mask, out, base)


@dataclass(frozen=True)
class ErgodicComponent:
    weight: float
    measure: InvariantMeasure


def ergodic_decompose(mu: InvariantMeasure) -> list[ErgodicComponent]:
    """One component per recurrent class (Markov) or cycle (permutation);
    weights are the class masses.  Transient mass beyond 1e-10 is an error:
    stationarity forces it to vanish."""
    if mu.kind == PERMUTATION:
        out = []
        for cyc in systems.permutation_cycles(mu.system):
            mass = float(mu.point_weights[list(cyc)].sum())
            if mass <= 0.0:
                continue
            w = np.zeros_like(mu.point_weights)
            w[list(cyc)] = 1.0 / len(cyc)
            out.append(
                ErgodicComponent(
                    mass, InvariantMeasure(PERMUTATION, mu.system, point_weights=w)
                )
            )
        return out
    classes = recurrent_classes(mu.P)
    recurrent = sorted(s for cls in classes for s in cls)
    transient_mass = float(mu.pi.sum() - mu.pi[recurrent].sum())
    if transient_mass > TRANSIENT_TOL:
        raise MeasureError(
            f"stationary vector carries transient mass {transient_mass:.3e}"
        )
    out = []
    for cls in classes:
        mass = float(mu.pi[cls].sum())
        if mass <= 0.0:
            continue
        pi_c = np.zeros_like(mu.pi)
        pi_c[cls] = mu.pi[cls] / mass
        out.append(
            ErgodicComponent(mass, InvariantMeasure(MARKOV, mu.system, pi=pi_c, P=mu.P))
        )
    return out


def mix(components) -> InvariantMeasure:
    """Convex combination of ergodic components with pairwise-disjoint
    supports; inverse of ergodic_decompose on its outputs."""
    components = list(components)
    total = sum(c.weight for c in components)
    if abs(total - 1.0) > 1e-12:
        raise MeasureError(f"component weights sum to {total}, not 1")
    sys0 = components[0].measure.system
    if any(c.measure.system != sys0 for c in components):
        raise MeasureError("components live on different systems")
    if len(components) == 1:
        return components[0].measure
    if components[0].measure.kind == PERMUTATION:
        w = np.zeros(sys0.point_count)
        for c in components:
            support = c.measure.point_weights > 0
            if np.any(w[support] > 0):
                raise MeasureError("component supports overlap")
            w += c.weight * c.measure.point_weights
        return InvariantMeasure(PERMUTATION, sys0, point_weights=w)
    k = sys0.alphabet_size
    pi = np.zeros(k)
    P = np.zeros((k, k))
    owned = np.zeros(k, dtype=bool)
    for c in components:
        support = c.measure.pi > 0
        if np.any(owned & support):
            raise MeasureError("component supports overlap")
        owned |= support
        pi += c.weight * c.measure.pi
        P[support] = c.measure.P[support]
    allowed = np.array(sys0.transition, dtype=bool)
    for s in np.where(~owned)[0]:
        n_ok = allowed[s].sum()
        if n_ok:
            P[s, allowed[s]] = 1.0 / n_ok
    return InvariantMeasure(MARKOV, sys0, pi=pi, P=P)


def power_measure(mu: InvariantMeasure, M: int) -> InvariantMeasure:
    """The measure seen by the M-block power system: the same process read in
    non-overlapping M-blocks (exactly Markov again)."""
    if M < 1:
        raise MeasureError("M must be >= 1")
    if M == 1:
        return mu
    if mu.kind == PERMUTATION:
        return InvariantMeasure(
            PERMUTATION, systems.power_system(mu.system, M),
            point_weights=mu.point_weights.copy(),
        )
    pow_sys = systems.power_system(mu.system, M)
    blocks = systems.word_universe(mu.system, M)
    pi = weights_for(mu, mu.system, M).copy()
    arr = blocks.array.astype(np.int64)
    # P[i, j] = P(last letter of i, first of j) times the steps inside j,
    # multiplied left to right, as a loop over the letters of j would
    P = mu.P[arr[:, -1, None], arr[None, :, 0]]
    for t in range(M - 1):
        P *= mu.P[arr[:, t], arr[:, t + 1]]
    P[pow_sys.transition_array() == 0] = 0.0
    return InvariantMeasure(MARKOV, pow_sys, pi=pi, P=P)

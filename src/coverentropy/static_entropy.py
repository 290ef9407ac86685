"""Per-window (non-limit) entropy quantities.

Shannon entropy of weight vectors, conditional entropy of partitions by two
independent routes, the conditional covering number N(U|beta) by exact set
cover, and the cover entropies H(U) / H(U|beta) via exact minimization over
ordered-difference partitions, cross-checked against the exhaustive
finer-partition minimum whenever that enumeration is affordable.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bitsets, families, measures
from .families import PARTITION, SetFamily

EXACT = "exact"
BRANCH_AND_BOUND = "branch_and_bound"
HEURISTIC = "heuristic_upper_bound"

ROUTE_TOL = 1e-9
NODE_BUDGET_DEFAULT = 10**7
ROUTE_C_AUTO_BUDGET = 2048


class EntropyError(ValueError):
    pass


class RouteDisagreement(EntropyError):
    """Two formulas that must agree did not; this signals an internal bug and
    is never swallowed."""


def phi(x: float) -> float:
    """x -> -x log x on (0, 1], 0 at 0."""
    return -x * math.log(x) if x > 0.0 else 0.0


@dataclass(frozen=True)
class EntropyValue:
    nats: float
    method: str
    certificate: Optional[float]  # gap bound; 0 for exact searches, None unknown

    def __post_init__(self):
        if math.isnan(self.nats):
            raise EntropyError("entropy is NaN")
        if self.nats < -1e-12:
            raise EntropyError(f"negative entropy {self.nats}")


def shannon(weights) -> EntropyValue:
    """Sum of phi over a (sub-)probability vector.  Disjoint families that do
    not cover the space are fine; negative weights are not."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < -1e-15):
        raise EntropyError("negative weight")
    total = float(w.sum())
    if total > 1.0 + 1e-12:
        raise EntropyError(f"weights sum to {total} > 1")
    val = float(sum(phi(float(x)) for x in w if x > 0.0))
    return EntropyValue(val, EXACT, 0.0)


def _element_masses(fam: SetFamily, weights: np.ndarray) -> np.ndarray:
    elems, words = fam.incidence()
    return np.bincount(elems, weights=weights[words], minlength=len(fam))


def conditional_entropy(mu, alpha: SetFamily, beta: SetFamily) -> EntropyValue:
    """H(alpha | beta) for partitions, computed both as H(alpha v beta) -
    H(beta) and as the atom average of conditional entropies; the two must
    agree to 1e-9 and the atom-average value is returned."""
    if alpha.kind != PARTITION or beta.kind != PARTITION:
        raise EntropyError("conditional_entropy needs partitions")
    families._require_same_carrier(alpha, beta)
    w = measures.family_weights(mu, alpha)

    joined = families.join(alpha, beta)
    h_join = float(sum(phi(x) for x in _element_masses(joined, w)))
    h_beta = float(sum(phi(x) for x in _element_masses(beta, w)))
    route_join = h_join - h_beta

    lab_a = families.partition_labels(alpha)
    route_atoms = 0.0
    for b in beta.elements:
        if b == 0:
            continue
        sel = bitsets.bools_from_mask(b, len(w))
        base = float(w[sel].sum())
        if base <= 0.0:
            continue
        cell_masses = np.bincount(lab_a[sel], weights=w[sel])
        route_atoms += base * float(
            sum(phi(float(x) / base) for x in cell_masses[cell_masses > 0.0])
        )

    if abs(route_join - route_atoms) > ROUTE_TOL:
        raise RouteDisagreement(
            f"join route {route_join!r} vs atom route {route_atoms!r}"
        )
    return EntropyValue(max(route_atoms, 0.0), EXACT, 0.0)


def _conditional_entropy_atoms(w, alpha_masks, beta_masks) -> float:
    total = 0.0
    for b in beta_masks:
        base = measures.mask_mass(w, b)
        if base <= 0.0:
            continue
        for a in alpha_masks:
            cell = measures.mask_mass(w, a & b)
            if cell > 0.0:
                total += base * phi(cell / base)
    return total


# ---------------------------------------------------------------------------
# counting: N(U | beta)


def _min_cover_size(universe: int, sets: list[int]) -> int:
    """Exact minimal number of sets whose union contains `universe`.
    Unit propagation plus depth-first branch and bound."""
    sets = [s & universe for s in sets]
    sets = [s for s in dict.fromkeys(sets) if s]
    if not sets:
        raise EntropyError("atom not coverable")  # impossible when invariants hold

    chosen = 0
    # unit propagation: an element covered by exactly one set forces that set
    while universe:
        once = twice = 0
        for s in sets:
            twice |= once & s
            once |= s
        if universe & ~once:
            raise EntropyError("atom not coverable")
        lonely = universe & ~twice
        if not lonely:
            break
        forced = [s for s in sets if s & lonely]
        for s in forced:
            universe &= ~s
        chosen += len(forced)
        sets = [s & universe for s in sets]
        sets = [s for s in dict.fromkeys(sets) if s]

    if universe == 0:
        return chosen

    # dominated-set elimination
    sets.sort(key=lambda s: -s.bit_count())
    kept: list[int] = []
    for s in sets:
        if not any(s & ~t == 0 for t in kept):
            kept.append(s)
    sets = kept

    # greedy upper bound
    ucov, cnt = universe, 0
    while ucov:
        s = max(sets, key=lambda s: (s & ucov).bit_count())
        ucov &= ~s
        cnt += 1
    best = [cnt]

    max_size = max(s.bit_count() for s in sets)

    def dfs(uncov: int, used: int):
        if uncov == 0:
            best[0] = min(best[0], used)
            return
        if used + -(-uncov.bit_count() // max_size) >= best[0]:
            return
        # branch on the uncovered element with fewest candidates
        best_word, holders = None, None
        for w in bitsets.iter_bits(uncov):
            h = [s for s in sets if s & (1 << w)]
            if holders is None or len(h) < len(holders):
                best_word, holders = w, h
                if len(h) == 1:
                    break
        for s in sorted(holders, key=lambda s: -(s & uncov).bit_count()):
            dfs(uncov & ~s, used + 1)

    dfs(universe, 0)
    return chosen + best[0]


def covering_number(U: SetFamily, beta: SetFamily) -> int:
    """N(U|beta): max over nonempty atoms B of the minimal number of
    U-elements needed to cover B.  Always >= 1; equals 1 iff beta refines U."""
    if beta.kind != PARTITION:
        raise EntropyError("conditioner must be a partition")
    families._require_same_carrier(U, beta)
    # each atom is handed only the elements that meet it; every nonempty atom
    # is met because U covers the carrier
    elems, words = U.incidence()
    atoms = families.partition_labels(beta)[words]
    meeting: dict[int, dict[int, None]] = {}
    for atom, e in zip(atoms.tolist(), elems.tolist()):
        meeting.setdefault(atom, {})[e] = None  # elements ascending, once each
    return max(
        _min_cover_size(beta.elements[atom], [U.elements[e] for e in met])
        for atom, met in meeting.items()
    )


def covering_number_exhaustive(U: SetFamily, beta: SetFamily) -> int:
    """Reference oracle: subset enumeration by increasing size (|U| <= 12)."""
    if len(U) > 12:
        raise EntropyError("exhaustive counting oracle is capped at 12 elements")
    if beta.kind != PARTITION:
        raise EntropyError("conditioner must be a partition")
    families._require_same_carrier(U, beta)
    out = 0
    for b in beta.elements:
        if b == 0:
            continue
        found = None
        for size in range(1, len(U) + 1):
            for combo in itertools.combinations(U.elements, size):
                un = 0
                for s in combo:
                    un |= s
                if b & ~un == 0:
                    found = size
                    break
            if found is not None:
                break
        if found is None:
            raise EntropyError("atom not coverable")
        out = max(out, found)
    return out


# ---------------------------------------------------------------------------
# cover entropy: exact minimization over ordered-difference partitions


def _greedy_order_value(memb: np.ndarray, w: np.ndarray, order_rule: str, rng=None):
    """One ordering heuristic ("mass": largest residual mass first, "static"
    or "random"); returns (value, cells as compact bool arrays).  memb is
    (d, m) bool over positive-weight words."""
    d, m = memb.shape
    covered = np.zeros(m, dtype=bool)
    value = 0.0
    cells = [None] * d
    remaining = list(range(d))
    if order_rule == "static":
        remaining.sort(key=lambda i: -float(w[memb[i]].sum()))
    elif order_rule == "random":
        rng.shuffle(remaining)
    while remaining:
        if order_rule == "mass":
            caps = [float(w[memb[i] & ~covered].sum()) for i in remaining]
            pick = remaining[int(np.argmax(caps))]
        else:
            pick = remaining[0]
        remaining.remove(pick)
        cell = memb[pick] & ~covered
        cells[pick] = cell
        cmass = float(w[cell].sum())
        value += phi(cmass)
        covered |= cell
    return value, cells


def _minimize_component(
    memb: np.ndarray, w: np.ndarray, node_budget: int, rng
) -> tuple[float, list[np.ndarray], bool, int]:
    """Exact minimum of sum(phi(cell mass)) over orderings of one overlap
    component.  Best-first search on union-of-prefix states with an
    admissible chord lower bound; falls back to the best greedy/incumbent
    value when the node budget runs out."""
    d, m = memb.shape
    if d == 1:
        return phi(float(w.sum())), [np.ones(m, dtype=bool)], True, 0

    incumbent, inc_cells = math.inf, None
    for rule in ("mass", "static", "random", "random"):
        val, cells = _greedy_order_value(memb, w, rule, rng)
        if val < incumbent - 1e-15:
            incumbent, inc_cells = val, cells

    membmask = [bitsets.mask_from_bools(memb[i]) for i in range(d)]
    full = bitsets.full_mask(m)

    def floor_fill(mrest: float, cmax: float) -> float:
        # min of sum(phi) over {x_i <= cmax, sum = mrest}; using any upper
        # bound on the true max cell capacity keeps it admissible
        if mrest <= 0.0:
            return 0.0
        if cmax <= 0.0:
            return math.inf
        k = int(mrest // cmax)
        return k * phi(cmax) + phi(max(mrest - k * cmax, 0.0))

    def chord_bound(state: int) -> float:
        """Admissible: each final cell mass f_e <= residual cap c_e and phi
        lies above its chord through the origin, so sum(phi) >= sum over
        residual words of weight * min over holders of -log(cap)."""
        res = ~state & full
        if res == 0:
            return 0.0
        rbool = bitsets.bools_from_mask(res, m)
        caps = (memb & rbool) @ w
        pos = caps > 0.0
        lam = np.full(d, np.inf)
        lam[pos] = -np.log(np.minimum(caps[pos], 1.0))
        per_word = np.where(memb[:, rbool], lam[:, None], np.inf).min(axis=0)
        h1 = float((w[rbool] * per_word).sum())
        mrest = float(w[rbool].sum())
        return max(h1, floor_fill(mrest, float(caps.max(initial=0.0))), phi(mrest))

    total_mass = float(w.sum())
    start = 0
    heap = [(chord_bound(start), 0, 0.0, start, True)]
    best_g = {start: 0.0}
    parents: dict[int, tuple[int, int]] = {}
    nodes = 0
    tick = itertools.count(1)
    closed = False
    goal_state = None
    while heap:
        f, _, g, state, fresh = heapq.heappop(heap)
        if g > best_g.get(state, math.inf) + 1e-15:
            continue
        if state == full:
            if g < incumbent - 1e-15:
                incumbent, goal_state = g, state
            closed = True
            break
        if f >= incumbent - 1e-12:
            # nothing cheaper left: the incumbent is optimal
            closed = True
            break
        if not fresh:
            # entry was pushed with the cheap bound; re-check with the chord
            # bound before paying for an expansion
            h = chord_bound(state)
            if g + h > f + 1e-12:
                if g + h < incumbent - 1e-12:
                    heapq.heappush(heap, (g + h, next(tick), g, state, True))
                continue
        nodes += 1
        if nodes > node_budget:
            break
        rbool = bitsets.bools_from_mask(~state & full, m)
        caps = (memb & rbool) @ w
        cmax = float(caps.max(initial=0.0))
        mrest = float(w[rbool].sum())
        for i in range(d):
            cap = float(caps[i])
            if cap <= 0.0:
                continue
            nstate = state | membmask[i]
            ng = g + phi(cap)
            if ng < best_g.get(nstate, math.inf) - 1e-15:
                best_g[nstate] = ng
                parents[nstate] = (state, i)
                nmrest = mrest - cap
                nh = max(floor_fill(nmrest, cmax), phi(max(nmrest, 0.0)))
                nf = ng + nh
                if nf < incumbent - 1e-12:
                    heapq.heappush(heap, (nf, next(tick), ng, nstate, False))
    else:
        closed = True  # heap exhausted: incumbent can no longer be beaten

    if goal_state is not None:
        cells = [np.zeros(m, dtype=bool) for _ in range(d)]
        state = goal_state
        while state != 0:
            prev, i = parents[state]
            cell_mask = membmask[i] & ~prev
            cells[i] = bitsets.bools_from_mask(cell_mask, m)
            state = prev
        return incumbent, cells, True, nodes
    return incumbent, inc_cells, closed, nodes


def _overlap_components(memb: np.ndarray, w: np.ndarray) -> list[list[int]]:
    """The rows of `memb` grouped into positive-overlap components: rows i
    and j are linked when w[memb[i] & memb[j]].sum() > 0.  Components come in
    order of their smallest row, rows ascending inside each."""
    d = len(memb)
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # two rows overlap positively iff they share a positive-weight word, and
    # chaining each word's consecutive holders connects all of them
    cols, rows = np.nonzero(memb[:, w > 0.0].T)
    link = np.nonzero(cols[1:] == cols[:-1])[0]
    for i, j in zip(rows[link].tolist(), rows[link + 1].tolist()):
        a, b = find(i), find(j)
        if a != b:
            parent[a] = b
    comps: dict[int, list[int]] = {}
    for i in range(d):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


def _solve_compact(
    memb: np.ndarray, w: np.ndarray, node_budget: int, rng
) -> tuple[float, list[np.ndarray], bool, int]:
    """Exact ordering minimization on a compact universe: split the rows of
    `memb` into positive-overlap components (their ordered-difference masses
    do not interact) and solve each.  Returns per-row cell indicators."""
    d, m = memb.shape
    value = 0.0
    closed = True
    nodes = 0
    cells = [np.zeros(m, dtype=bool) for _ in range(d)]
    # the "random" greedy passes draw from the shared rng component by
    # component, so this order fixes the heuristic upper bounds
    for comp in _overlap_components(memb, w):
        sup = memb[comp].any(axis=0) & (w > 0.0)
        sub = memb[comp][:, sup]
        ws = w[sup]
        val, comp_cells, comp_closed, comp_nodes = _minimize_component(
            sub, ws, node_budget, rng
        )
        value += val
        closed = closed and comp_closed
        nodes += comp_nodes
        sup_idx = np.nonzero(sup)[0]
        for row, cell in zip(comp, comp_cells):
            if cell.any():
                cells[row][sup_idx[cell]] = True
    return value, cells, closed, nodes


def cover_entropy(
    mu_or_cond, U: SetFamily, node_budget: int = NODE_BUDGET_DEFAULT
) -> EntropyValue:
    """H(U) under a (possibly conditional) measure: H(U|{X}), the minimum
    Shannon entropy over ordered-difference partitions of U, solved exactly
    unless the search budget runs out (then a flagged upper bound)."""
    X = families.trivial_partition(U.system, U.window)
    return conditional_cover_entropy(mu_or_cond, U, X, node_budget, ustar_budget=0)


def conditional_cover_entropy(
    mu,
    U: SetFamily,
    beta: SetFamily,
    node_budget: int = NODE_BUDGET_DEFAULT,
    ustar_budget: int = ROUTE_C_AUTO_BUDGET,
) -> EntropyValue:
    """H(U|beta) = sum over atoms B of mu(B) H_{mu_B}(U).

    Route A computes the per-atom minimizations directly; route B glues the
    per-atom minimizers into one finer partition of X and runs the partition
    formula on it; route C (when the finer-partition enumeration fits
    `ustar_budget`) takes the exhaustive minimum.  All routes must agree to
    1e-9 whenever the searches are exact."""
    if beta.kind != PARTITION:
        raise EntropyError("conditioner must be a partition")
    families._require_same_carrier(U, beta)
    if U.kind == PARTITION:
        # a partition is its own only ordered-difference partition, so the
        # glued partition of route B is U and the partition formula is exact
        return EntropyValue(conditional_entropy(mu, U, beta).nats, EXACT, 0.0)
    w = measures.family_weights(mu, U)
    rng = np.random.default_rng(0)
    size = U.universe_size

    lab_b = families.partition_labels(beta)
    base_masses = np.bincount(lab_b, weights=w, minlength=len(beta))

    # the memberships on positive-weight words, grouped by atom.  An atom's
    # block has its active elements as rows and its positive-weight words as
    # columns, both ascending; each pair gets its row and column rank.
    elems, words = U.incidence()
    pos = w[words] > 0.0
    atoms = lab_b[words[pos]]
    order = np.argsort(atoms, kind="stable")
    atoms, elems, words = atoms[order], elems[pos][order], words[pos][order]
    row_keys, row_of = np.unique(atoms * len(U) + elems, return_inverse=True)
    col_keys, col_of = np.unique(atoms * size + words, return_inverse=True)
    row_atoms, row_elems = np.divmod(row_keys, len(U))
    col_atoms, col_words = np.divmod(col_keys, size)
    bounds = np.arange(len(beta) + 1)
    pair_cut = np.searchsorted(atoms, bounds)
    row_cut = np.searchsorted(row_atoms, bounds)
    col_cut = np.searchsorted(col_atoms, bounds)
    row_of = row_of - row_cut[atoms]
    col_of = col_of - col_cut[atoms]

    route_a = 0.0
    glue = [0] * len(U)
    method = EXACT
    for b_idx in range(len(beta)):
        base = float(base_masses[b_idx])
        if base <= 0.0:
            continue
        active = row_elems[row_cut[b_idx] : row_cut[b_idx + 1]]
        idx = col_words[col_cut[b_idx] : col_cut[b_idx + 1]]
        if len(active) == 1:
            glue[int(active[0])] |= bitsets.mask_from_indices(idx)
            continue  # a single element carries the atom: zero entropy
        pairs = slice(pair_cut[b_idx], pair_cut[b_idx + 1])
        memb = np.zeros((len(active), len(idx)), dtype=bool)
        memb[row_of[pairs], col_of[pairs]] = True
        val, cells, closed, _ = _solve_compact(memb, w[idx] / base, node_budget, rng)
        route_a += base * val
        if not closed:
            method = HEURISTIC
        for i, cell in zip(active, cells):
            if cell.any():
                glue[int(i)] |= bitsets.mask_from_indices(idx[cell])
    if method == EXACT:
        method = BRANCH_AND_BOUND

    # words in null atoms still need a home for the glued partition
    leftover = bitsets.full_mask(size) & ~_union(glue)
    for m, elem in enumerate(U.elements):
        if leftover == 0:
            break
        grab = leftover & elem
        glue[m] |= grab
        leftover &= ~grab
    glued = SetFamily(U.system, U.window, PARTITION, tuple(glue))
    route_b = conditional_entropy(mu, glued, beta).nats

    if abs(route_a - route_b) > ROUTE_TOL:
        raise RouteDisagreement(
            f"per-atom route {route_a!r} vs glued-partition route {route_b!r}"
        )

    if method != HEURISTIC and ustar_budget > 0:
        enum = families.ustar_enumerate(U, ustar_budget)
        if not enum.refused:
            route_c = min(
                _conditional_entropy_atoms(w, alpha.elements, beta.elements)
                for alpha in enum
            )
            if abs(route_a - route_c) > ROUTE_TOL:
                raise RouteDisagreement(
                    f"per-atom route {route_a!r} vs exhaustive minimum {route_c!r}"
                )

    cert = None if method == HEURISTIC else 0.0
    return EntropyValue(max(route_a, 0.0), method, cert)


def _union(masks) -> int:
    u = 0
    for m in masks:
        u |= m
    return u

"""Per-window (non-limit) entropy quantities.

Shannon entropy of weight vectors, conditional entropy of partitions by two
independent routes, the conditional covering number N(U|beta) by exact set
cover (by counting labels when U is a partition), and the cover entropies
H(U) / H(U|beta) via exact minimization over ordered-difference partitions,
cross-checked against the exhaustive finer-partition minimum whenever that
enumeration is affordable.

A partition enters every entropy formula here as one label per word, never
as masks: `conditional_entropy` passes the cached `families.partition_labels`,
route B of `conditional_cover_entropy` writes the glued minimizer's labels
straight from the per-atom solutions, and route C scores every finer
partition at once from the rows of `families.UStarEnumeration.labels`.  One
`np.unique` of the label pairs (and candidates) gives the cells of the joins
with beta, so no partition is built as a family, and the cost is linear in
the labels whatever the number of atoms.

H(U|beta) is a minimization in each atom.  An element that holds the same
positive-weight words of an atom as an earlier element gets an empty cell
there in every ordering, so it leaves the atom before the overlap components
are found, whatever their size, and d below counts distinct elements.  The
components of all atoms, whose orderings do not interact, are found in one
union-find.  Every component of at most DP_MAX = 16 elements is solved
exactly, batched over components of one size D, in groups small enough that
one solve holds a bounded amount of memory; components of at most 4 elements
share groups, each solved at the size of its largest component.  A zeta
transform gives the masses.  For D <= _ORDER_MAX = 5, one vectorised pass of
gathers then sums the step costs of all D! orderings and takes the least;
for larger D, a layered subset DP in the style of Held-Karp finds it in
O(D 2^D) per component, whatever the number of words.  Both return the same
minima bit for bit.  On a 2-core x86_64 VM the enumeration took a third to a
half of the DP's time at D = 4 and 5, and lost to it past about 30
components at D = 6 and past one at D = 7.  Neither reads the node budget.  Only a component
of more than DP_MAX elements goes to `_minimize_component`: a mass-greedy
incumbent, then a best-first search that returns the greedy value as a
flagged upper bound when the budget runs out.  In the acceptance scenarios
that happens in criterion 7's windows 5 and 6 (32 and 64 elements) and in
four components of 31 to 63 elements in criterion 10, which the search
closes at its root.

All of that up to the masses depends only on the family pair and on which
words have positive weight.  `_solve_plan` builds it in one Python pass over
the positive-weight memberships, and only its finished fields become arrays,
so that a one-shot solve on a few memberships pays a few numpy calls.  U
keeps one plan, keyed by the conditioner (by identity), the support w > 0
and DP_MAX and _DP_CHUNK.  A rate loop over measures of one support, such as
`principles.variational_search` (every allowed transition positive), then
only bins the masses, runs the DPs, glues and checks the routes per measure.
"""

from __future__ import annotations

import functools
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


def _phi_sum(x: np.ndarray) -> float:
    """Sum of phi over the entries of x, in one vectorised pass."""
    x = x[x > 0.0]
    return float(np.sum(-x * np.log(x)))


def shannon(weights) -> EntropyValue:
    """Sum of phi over a (sub-)probability vector.  Disjoint families that do
    not cover the space are fine; negative weights are not."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < -1e-15):
        raise EntropyError("negative weight")
    total = float(w.sum())
    if total > 1.0 + 1e-12:
        raise EntropyError(f"weights sum to {total} > 1")
    return EntropyValue(_phi_sum(w), EXACT, 0.0)


def _partition_entropy(w, lab_a, n_a: int, lab_b) -> float:
    """H(alpha | beta) for partitions given by one label per word (alpha's
    in 0..n_a-1), computed both as H(alpha v beta) - H(beta) and as the sum
    of mu(B) phi(mu(C) / mu(B)) over the cells C of the join, B the atom
    holding C.  The two must agree to 1e-9; the atom route is returned.
    Only the labels of positive-weight words are read, so a zero-weight word
    may carry any label, -1 included."""
    pos = w > 0.0
    wp = w[pos]
    keys, cell_of = np.unique(lab_b[pos] * n_a + lab_a[pos], return_inverse=True)
    cells = np.bincount(cell_of, weights=wp)
    atoms = np.bincount(lab_b[pos], weights=wp)
    route_join = _phi_sum(cells) - _phi_sum(atoms)
    ratio = cells / atoms[keys // n_a]  # cell mass over its atom's mass
    route_atoms = float(np.sum(-cells * np.log(ratio)))
    if abs(route_join - route_atoms) > ROUTE_TOL:
        raise RouteDisagreement(
            f"join route {route_join!r} vs atom route {route_atoms!r}"
        )
    return route_atoms


def conditional_entropy(mu, alpha: SetFamily, beta: SetFamily) -> EntropyValue:
    """H(alpha | beta) for partitions, computed both as H(alpha v beta) -
    H(beta) and as the atom average of conditional entropies; the two must
    agree to 1e-9 and the atom-average value is returned."""
    if alpha.kind != PARTITION or beta.kind != PARTITION:
        raise EntropyError("conditional_entropy needs partitions")
    families._require_same_carrier(alpha, beta)
    w = measures.family_weights(mu, alpha)
    h = _partition_entropy(
        w, families.partition_labels(alpha), len(alpha), families.partition_labels(beta)
    )
    return EntropyValue(max(h, 0.0), EXACT, 0.0)


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
    U-elements needed to cover B.  Always >= 1; equals 1 iff beta refines U.

    When U is a partition this is the largest number of distinct U-labels
    in one atom, from one `np.unique` of the label pairs: the cells are
    disjoint, so each cell that meets an atom is needed to cover it.  A
    cover goes to the exact set cover of `_min_cover_size`, atom by atom."""
    if beta.kind != PARTITION:
        raise EntropyError("conditioner must be a partition")
    families._require_same_carrier(U, beta)
    if U.kind == PARTITION:
        n = len(U)
        pairs = np.unique(
            families.partition_labels(beta) * n + families.partition_labels(U)
        )
        return int(np.bincount(pairs // n).max())
    # each atom gets the masks, over its own words numbered in order, of the
    # elements that meet it; every nonempty atom is met because U covers
    atoms, size, local = families.partition_labels(beta).tolist(), {}, []
    for atom in atoms:
        local.append(size.get(atom, 0))
        size[atom] = local[-1] + 1
    meeting: dict[int, dict[int, int]] = {}
    for e, w in zip(*(a.tolist() for a in U.incidence())):
        met = meeting.setdefault(atoms[w], {})  # elements ascending
        met[e] = met.get(e, 0) | 1 << local[w]
    return max(_min_cover_size(bitsets.full_mask(size[atom]), list(met.values()))
               for atom, met in meeting.items())


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


def _mass_greedy(memb: np.ndarray, w: np.ndarray):
    """The ordering that always places next the element of largest residual
    mass; returns (value, cells as compact bool arrays).  memb is (d, m) bool
    over positive-weight words."""
    d, m = memb.shape
    covered = np.zeros(m, dtype=bool)
    value = 0.0
    cells = [None] * d
    remaining = list(range(d))
    while remaining:
        caps = [float(w[memb[i] & ~covered].sum()) for i in remaining]
        pick = remaining.pop(int(np.argmax(caps)))
        cell = memb[pick] & ~covered
        cells[pick] = cell
        value += phi(float(w[cell].sum()))
        covered |= cell
    return value, cells


def _minimize_component(
    memb: np.ndarray, w: np.ndarray, node_budget: int
) -> tuple[float, list[np.ndarray], bool, int]:
    """Exact minimum of sum(phi(cell mass)) over orderings of one overlap
    component.  Best-first search on union-of-prefix states with an
    admissible chord lower bound; returns the mass-greedy value, not closed,
    when the node budget runs out."""
    d, m = memb.shape
    incumbent, inc_cells = _mass_greedy(memb, w)

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


def _component_labels(holders, n_rows: int) -> list[int]:
    """The positive-overlap components of rows 0..n_rows-1, given the
    ascending holder rows of each word: rows are linked when they hold a
    common word.  Returns each row's component, numbered in order of the
    components' smallest rows."""
    # a union-find in Python, not scipy.sparse.csgraph: a one-shot solve links
    # a handful of rows, where a scipy or numpy call costs more than the loop
    parent = list(range(n_rows))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # linking each word's holders to its first connects all of them
    for held in holders:
        a = find(held[0])
        for b in map(find, held[1:]):
            if a != b:
                a, b = min(a, b), max(a, b)
                parent[b] = a  # every root is its component's smallest row
    number: dict[int, int] = {}  # roots first appear in ascending order
    return [number.setdefault(find(x), len(number)) for x in range(n_rows)]


# Components of at most DP_MAX elements are solved exactly by batched subset
# DPs, whatever the search budget; larger ones go to `_minimize_component`.
# Components of at most _DP_SHARED elements share groups, padded only to the
# largest of their group, as padding adds +0.0 step costs and keeps the first
# minimal ordering.  One DP holds at most _DP_CHUNK (component, set) entries
# per array and at most _DP_CHUNK (component, set, element) costs at once; for
# D <= _ORDER_MAX it enumerates the D! orderings instead, in row chunks that
# hold at most _DP_CHUNK step costs and _DP_CHUNK (component, ordering) sums.
DP_MAX = 16
_DP_SHARED = 4
_DP_CHUNK = 1 << 16
_ORDER_MAX = 5


@functools.lru_cache(maxsize=None)
def _dp_tables(D: int) -> tuple:
    """The subsets of D elements listed by size, ascending inside a size:
    `sets[q]` is the set at place q, and layer k spans places q0..q1-1.  Each
    set T of layer k has one pair (T, i) per member i; the layer's pairs
    start at p0 and run over the j-th members of all its sets, for j = 0..k-1
    in turn, so they reshape to (k, q1 - q0).  `prev` holds the place of
    T - {i}."""
    dtype = np.min_scalar_type((1 << D) - 1)
    bits = np.arange(1 << D, dtype=dtype)[:, None] >> np.arange(D, dtype=dtype)
    bits &= 1
    size = bits.sum(axis=1)
    sets = np.argsort(size, kind="stable").astype(dtype)
    q = np.searchsorted(size[sets], np.arange(D + 2))
    place = np.empty(1 << D, dtype=dtype)
    place[sets] = np.arange(1 << D)
    prev, layers, p0 = [], [], 0
    for k in range(1, D + 1):
        T = sets[q[k] : q[k + 1]]
        member = np.nonzero(bits[T])[1].reshape(-1, k).T  # (k, sets), ascending
        prev.append(place[T ^ (1 << member)].ravel())
        layers.append((k, int(q[k]), int(q[k + 1]), p0))
        p0 += k * len(T)
    return sets, np.concatenate(prev), layers


@functools.lru_cache(maxsize=None)
def _order_tables(D: int) -> tuple:
    """The D! orderings of D elements, in lexicographic order, as steps.  A
    step (S, i) places element i right after the elements of S; the steps
    are listed by S, then by i, and run from set `src` to set `dst` = S + i.
    `walk[k, o]` is the k-th step of ordering o, and `ranks[o, i]` the place
    of element i in ordering o."""
    orders = np.array(list(itertools.permutations(range(D))))
    src, elem = np.nonzero(~np.arange(1 << D)[:, None] >> np.arange(D) & 1)
    step = np.zeros((1 << D, D), dtype=np.int64)
    step[src, elem] = np.arange(len(src))
    bit = 1 << orders
    walk = step[np.cumsum(bit, axis=1) - bit, orders].T.copy()
    return src, src | 1 << elem, walk, np.argsort(orders, axis=1)


_TINY = np.nextafter(0.0, 1.0)  # least positive double


def _entr(x: np.ndarray) -> np.ndarray:
    """phi(x) = -x log x in place, with round-off below 0 read as 0 and
    0 log 0 as 0.  The kernel is numpy's log, taken at max(x, _TINY), which
    is x itself for every x > 0 and keeps log finite at 0; x is negated
    before the product, so that phi(0) = +0 and phi(1) = -0, as in
    scipy.special.entr.  Five ufunc calls and no branch, because tiny
    solves call this thousands of times."""
    np.maximum(x, 0.0, out=x)
    log = np.log(np.maximum(x, _TINY))
    np.negative(x, out=x)
    x *= log
    return x


def _solve_dp(regions: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum of sum(phi(cell mass)) over the orderings of many
    components of D elements at once.  regions[c, p] is the mass of component
    c's words whose holders are exactly the elements of bit pattern p; an
    element that holds nothing pads a smaller component, and its cell stays
    empty.  Returns each component's minimum and rank[c, i], the place of
    element i in an optimal ordering: a word's cell is its holder of least
    rank.

    Element i, placed right after the elements of S, takes room[S] -
    room[S + i] (see `_room`).  Up to _ORDER_MAX elements, all D! orderings
    are summed at once (`_min_over_orderings`); past that, a layered subset
    DP finds the least sum (`_layered_dp`).  Both take every step cost from
    the same kernel, `_entr`, add the costs in the same order, and a sum's
    rounding is monotone in its first term, so they return the same minima,
    bit for bit; only a tie between orderings may break the other way."""
    room = _room(regions, D)
    if D <= _ORDER_MAX:
        return _min_over_orderings(room, D)
    return _layered_dp(room, D)


def _room(regions: np.ndarray, D: int) -> np.ndarray:
    """room[c, S], the mass of component c's words that no element of S
    holds, by D in-place passes of superset sums."""
    room = regions[:, ::-1].copy()  # room[S] = regions[~S], then superset sums
    for i in range(D):
        v = room.reshape(len(room), -1, 2, 1 << i)
        v[:, :, 0] += v[:, :, 1]
    return room


def _layered_dp(room: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """`_solve_dp` from room: best[T] is the least of best[T - i] + phi of
    element i's step mass over i in T, found one layer of sets at a time, by
    size."""
    n = len(room)
    sets, prev, layers = _dp_tables(D)
    room = room[:, sets]  # from here on a set is addressed by its place
    best = np.zeros((n, 1 << D))
    pred = np.zeros((n, 1 << D), dtype=sets.dtype)  # place of T - i, i last in T
    for k, q0, q1, p0 in layers:
        prev_k = prev[p0 : p0 + k * (q1 - q0)].reshape(k, q1 - q0)
        step = max(1, _DP_CHUNK // (n * k))  # sets per chunk of costs
        for lo in range(q0, q1, step):
            hi = min(lo + step, q1)
            pv = prev_k[:, lo - q0 : hi - q0]
            cand = _entr(room[:, pv] - room[:, None, lo:hi])
            cand += best[:, pv]
            arg = cand.argmin(axis=1)
            np.min(cand, axis=1, out=best[:, lo:hi])
            pred[:, lo:hi] = pv[arg, np.arange(hi - lo)]
    # walk the optimal ordering back from the full set; the element placed
    # at each step is the bit by which consecutive sets differ, and sorting
    # those bits gives each element's place
    chain = np.full((n, D + 1), (1 << D) - 1, dtype=sets.dtype)
    rows = np.arange(n)
    for t in range(D, 0, -1):
        chain[:, t - 1] = pred[rows, chain[:, t]]
    chain = sets[chain]
    return best[:, -1], np.argsort(chain[:, 1:] ^ chain[:, :-1], axis=1)


def _min_over_orderings(room: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """`_solve_dp` from room, for D <= _ORDER_MAX: each ordering's cost is
    the sum of phi of its D steps, added in placing order, and the least of
    the D! sums wins.  Gathers only, so that a component's result never
    depends on the others in its batch."""
    src, dst, walk, ranks = _order_tables(D)
    n = len(room)
    values = np.empty(n)
    rank = np.empty((n, D), dtype=ranks.dtype)
    step = max(1, _DP_CHUNK // max(len(src), len(ranks)))  # components per chunk
    for lo in range(0, n, step):
        r = room[lo : lo + step]
        cost = _entr(r[:, src] - r[:, dst])
        total = cost[:, walk[0]]
        for k in range(1, D):
            total += cost[:, walk[k]]
        arg = total.argmin(axis=1)
        np.min(total, axis=1, out=values[lo : lo + step])
        rank[lo : lo + step] = ranks[arg]
    return values, rank


def cover_entropy(
    mu_or_cond, U: SetFamily, node_budget: int = NODE_BUDGET_DEFAULT
) -> EntropyValue:
    """H(U) under a (possibly conditional) measure: H(U|{X}), the minimum
    Shannon entropy over ordered-difference partitions of U, solved exactly
    unless the search budget runs out (then a flagged upper bound).  {X} is
    kept on U, so that calls on U share the solve plan."""
    X = U._cache.get("trivial_partition")
    if X is None:
        X = families.trivial_partition(U.system, U.window)
        U._cache["trivial_partition"] = X
    return conditional_cover_entropy(mu_or_cond, U, X, node_budget, ustar_budget=0)


@dataclass(slots=True, eq=False)
class _SolvePlan:
    """What H(U|beta) needs of a family pair and a weight support, before any
    mass is read: the overlap components and their atoms, the words the DPs
    read, each DP group's region keys, the gather that gives each word its
    holder of least rank, and the memberships of the larger components."""

    comp_atom: np.ndarray  # each component's atom
    word_ids: np.ndarray  # the DP components' words, ascending
    word_comp: np.ndarray  # the component of each of them
    first: np.ndarray  # where each word's (holder) run starts in the gather
    groups: list  # per DP: (D, components, words, region keys, region count)
    holder_comp: np.ndarray  # the gather: component, slot and element
    holder_slot: np.ndarray  # of every DP holder, by word
    holder_elem: np.ndarray
    big: list  # (component, words, memberships, elements) past DP_MAX


def _solve_plan(U: SetFamily, beta: SetFamily, w: np.ndarray) -> _SolvePlan:
    """The plan of H(U|beta) under any weights w with the same support w > 0;
    only the support is read."""
    ints = functools.partial(np.array, dtype=np.int64)
    elems, words = U.incidence()
    pos = w[words] > 0.0
    atoms = families.partition_labels(beta)[words[pos]]
    rows: dict[tuple, list] = {}  # (atom, element): its positive-weight words
    for a, e, x in zip(atoms.tolist(), elems[pos].tolist(), words[pos].tolist()):
        rows.setdefault((a, e), []).append(x)
    # rows by atom and element; a row that holds the same words as an earlier
    # one (of its atom, as a word lies in one atom) gets an empty cell in every
    # ordering, so it leaves, whatever the size of its component
    kept: dict[tuple, tuple] = {}
    for key in sorted(rows):
        kept.setdefault(tuple(rows[key]), key)
    row_keys = list(kept.values())
    holders: dict[int, list] = {}  # each word's rows, ascending
    for r, held in enumerate(kept):
        for x in held:
            holders.setdefault(x, []).append(r)
    comp_of_row = _component_labels(holders.values(), len(kept))
    # each component's rows, ascending (a row's slot is its rank there), and
    # its size, or 0 past DP_MAX
    comp_rows: list[list] = [[] for _ in range(max(comp_of_row, default=-1) + 1)]
    slot = []
    for r, c in enumerate(comp_of_row):
        slot.append(len(comp_rows[c]))
        comp_rows[c].append(r)
    dims = [len(rs) if len(rs) <= DP_MAX else 0 for rs in comp_rows]

    # each word, ascending: in a component of at most DP_MAX elements, its
    # holder pattern and its run of the gather; in a larger one, its holders
    word_ids, word_comp, first, gather = [], [], [], []
    comp_words: list[list] = [[] for _ in comp_rows]
    for x in sorted(holders):
        held = holders[x]
        c = comp_of_row[held[0]]
        if dims[c]:
            comp_words[c].append((len(word_ids), sum(1 << slot[r] for r in held)))
            word_ids.append(x)
            word_comp.append(c)
            first.append(len(gather))
            gather += held
        else:
            comp_words[c].append((x, held))
    # the components by size, in groups of at most max(1, _DP_CHUNK >> d)
    # components of one size d, or of sizes up to d = _DP_SHARED, so that one
    # DP holds a bounded number of regions; a group is solved at the size D of
    # its last, largest component, and its words run by component, then by word
    order, groups = sorted((c for c, d in enumerate(dims) if d), key=dims.__getitem__), []
    for d, run in itertools.groupby(order, key=lambda c: max(dims[c], _DP_SHARED)):
        run, step = list(run), max(1, _DP_CHUNK >> d)
        groups += [run[i : i + step] for i in range(0, len(run), step)]
    groups = [(D, ints(cs), ints([i for c in cs for i, _ in comp_words[c]]),
               ints([(local << D) + p for local, c in enumerate(cs) for _, p in comp_words[c]]),
               len(cs) << D) for cs in groups for D in [dims[cs[-1]]]]

    # larger components: their memberships, for the best-first search
    big = []
    for c in (c for c, D in enumerate(dims) if not D):
        memb = np.zeros((len(comp_rows[c]), len(comp_words[c])), dtype=bool)
        memb[[slot[r] for _, held in comp_words[c] for r in held],
             [j for j, (_, held) in enumerate(comp_words[c]) for _ in held]] = True
        big.append((c, ints([x for x, _ in comp_words[c]]), memb,
                    ints([row_keys[r][1] for r in comp_rows[c]])))
    return _SolvePlan(
        ints([row_keys[rs[0]][0] for rs in comp_rows]), ints(word_ids), ints(word_comp),
        ints(first), groups, ints([comp_of_row[r] for r in gather]),
        ints([slot[r] for r in gather]), ints([row_keys[r][1] for r in gather]), big,
    )


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
    1e-9 whenever the searches are exact.

    The first call on (U, beta) builds a `_SolvePlan` and keeps it on U, so
    that a later call with weights of the same support only reads masses;
    another conditioner, support, DP_MAX or _DP_CHUNK builds a new one."""
    if beta.kind != PARTITION:
        raise EntropyError("conditioner must be a partition")
    families._require_same_carrier(U, beta)
    if U.kind == PARTITION:
        # a partition is its own only ordered-difference partition, so the
        # glued partition of route B is U and the partition formula is exact
        return conditional_entropy(mu, U, beta)
    w = measures.family_weights(mu, U)
    lab_b = families.partition_labels(beta)
    base_masses = np.bincount(lab_b, weights=w, minlength=len(beta))

    # one plan per family U, for its last conditioner and support, so that a
    # loop over many conditioners holds one plan at a time
    support, limits = w > 0.0, (DP_MAX, _DP_CHUNK)
    got = U._cache.get("solve_plan")
    if not (got and got[0] is beta and got[1] == limits and np.array_equal(got[2], support)):
        got = (beta, limits, support, _solve_plan(U, beta, w))
        U._cache["solve_plan"] = got
    plan = got[3]

    # route A: each component's minimum relative to its atom, weighted by it
    comp_base = base_masses[plan.comp_atom]
    word_mass = w[plan.word_ids] / comp_base[plan.word_comp]
    values = np.zeros(len(comp_base))
    rank = np.zeros((len(comp_base), DP_MAX), dtype=np.int64)
    for D, comps, ws, keys, length in plan.groups:
        regions = np.bincount(keys, weights=word_mass[ws], minlength=length)
        values[comps], rank[comps, :D] = _solve_dp(regions.reshape(-1, 1 << D), D)
    route_a = float(comp_base @ values)
    # route B's glued partition as one U-index per word, each word going to
    # its holder of least rank; words of null atoms and zero-weight words
    # keep -1, as they change neither formula
    glue = np.full(U.universe_size, -1, dtype=np.int64)
    first_holder = rank[plan.holder_comp, plan.holder_slot] * len(U) + plan.holder_elem
    glue[plan.word_ids] = np.minimum.reduceat(first_holder, plan.first) % len(U)

    # larger components: the best-first search, within the node budget
    method = BRANCH_AND_BOUND
    for c, cols, memb, members in plan.big:
        base = float(comp_base[c])
        val, cells, closed, _ = _minimize_component(memb, w[cols] / base, node_budget)
        route_a += base * val
        if not closed:
            method = HEURISTIC
        for e, cell in zip(members, cells):
            glue[cols[cell]] = e
    route_b = _partition_entropy(w, glue, len(U), lab_b)

    if abs(route_a - route_b) > ROUTE_TOL:
        raise RouteDisagreement(
            f"per-atom route {route_a!r} vs glued-partition route {route_b!r}"
        )

    if method != HEURISTIC and ustar_budget > 0:
        enum = families.ustar_enumerate(U, ustar_budget)
        if not enum.refused:
            # every assignment at once, as the (candidate, atom, element) cells
            # of its positive-weight words: O(ustar_budget x words) entries
            pos = w > 0.0
            lab = enum.labels()[:, pos]
            keys = (np.arange(len(lab))[:, None] * len(beta) + lab_b[pos]) * len(U)
            keys, cell_of = np.unique((keys + lab).ravel(), return_inverse=True)
            cells = np.bincount(cell_of, weights=np.tile(w[pos], len(lab)))
            ratio = cells / base_masses[keys // len(U) % len(beta)]
            cand = keys // (len(U) * len(beta))
            route_c = float(np.bincount(cand, weights=-cells * np.log(ratio)).min())
            if abs(route_a - route_c) > ROUTE_TOL:
                raise RouteDisagreement(
                    f"per-atom route {route_a!r} vs exhaustive minimum {route_c!r}"
                )

    cert = None if method == HEURISTIC else 0.0
    return EntropyValue(max(route_a, 0.0), method, cert)

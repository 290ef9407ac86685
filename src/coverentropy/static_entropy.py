"""Per-window (non-limit) entropy quantities.

Shannon entropy of weight vectors, conditional entropy of partitions by two
independent routes, the conditional covering number N(U|beta) by exact set
cover (by counting labels when U is a partition), and the cover entropies
H(U) / H(U|beta) via exact minimization over ordered-difference partitions,
cross-checked against the exhaustive finer-partition minimum whenever that
enumeration is affordable.

A partition enters every entropy formula here as one cell per word, never
as masks, and `_partition_entropy` is the one partition formula.
`conditional_entropy` ranks the label pairs of alpha and beta with one
`np.unique`.  Route B of `conditional_cover_entropy` gives each word the
(atom, element) row of its holder in the glued minimizer; the plan numbers
those rows densely, and they are the cells of the join with beta, so one
`bincount` gives the cells without a sort.  Route C scores every finer
partition at once from the rows of `families.UStarEnumeration.labels`, with
one `np.unique` of the (candidate, atom, element) cells.  No partition is
built as a family, and the cost is linear in the labels whatever the number
of atoms.

H(U|beta) is a minimization in each atom.  An element that holds the same
positive-weight words of an atom as an earlier element gets an empty cell
there in every ordering, so it leaves the atom before the overlap components
are found, whatever their size, and d below counts distinct elements.  The
components of all atoms, whose orderings do not interact, are found in one
union-find.  Every component of at most DP_MAX = 16 elements is solved
exactly, batched over components of one size D, in groups small enough that
one solve holds a bounded amount of memory; components of at most 4 elements
share groups, each solved at the size of its largest component.  A group
of one-element components takes phi of each mass.  Otherwise a zeta
transform gives the masses.  For D <= _ORDER_MAX = 5, one vectorised pass of
gathers then sums the step costs of all D! orderings and takes the least;
for larger D, a layered subset DP in the style of Held-Karp finds it in
O(D 2^D) per component, whatever the number of words.  Both return the same
minima bit for bit.  On a 2-core x86_64 VM the enumeration took a third to a
half of the DP's time at D = 4 and 5, and lost to it past about 30
components at D = 6 and past one at D = 7.  Neither reads the node budget.
Only a component of more than DP_MAX elements goes to `_minimize_component`:
a mass-greedy incumbent, then a best-first search that bounds each new state
once, batched per expansion in `_chord_bounds` over the holder runs that
`_holder_runs` finds once per component, and returns the greedy value
as a flagged upper bound when the budget runs out.
In the acceptance scenarios that happens in criterion 7's windows 5 and 6
(32 and 64 elements) and in four components of 31 to 63 elements in
criterion 10, which the search closes at its root.

All of that up to the masses depends only on the family pair and on which
words have positive weight.  `_solve_plan` builds it in one Python pass over
the positive-weight memberships of U's cells, and its finished fields become
arrays in one conversion, so that a one-shot solve on a few memberships pays
a few numpy calls.  U
keeps one plan, keyed by the conditioner (by identity), the support w > 0
and DP_MAX and _DP_CHUNK.  A rate loop over measures of one support, such as
`principles.variational_search` (every allowed transition positive), then
only bins the masses, runs the DPs, glues and checks the routes per measure.
Many one-shot solves, such as the property suites' thousands of small
instances, instead share one plan: `_conditional_cover_entropies` stacks
their pairs over the disjoint union of their carriers and makes one DP call
per group for all of them, with the same values bit for bit, and
`conditional_cover_entropy` is its case of one pair.
"""

from __future__ import annotations

import bisect
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
    return float((-x * np.log(x)).sum())


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


def _partition_entropy(wp, atom, cell, cell_atom) -> float:
    """H(alpha | beta) from the positive-weight words: their weights wp, their
    atoms of beta and their cells of alpha v beta, numbered so that cell c
    lies in atom cell_atom[c]; a cell that holds none of them is skipped.
    Every word's cell must lie in the word's own atom.  Computed both as
    H(alpha v beta) - H(beta) and as the sum of mu(B) phi(mu(C) / mu(B))
    over the cells C of the join, B the atom holding C; the two must agree
    to 1e-9, and the atom route is returned."""
    if np.count_nonzero(cell_atom[cell] != atom):
        raise RouteDisagreement("a cell of the join leaves the atom of its word")
    cells = np.bincount(cell, weights=wp, minlength=len(cell_atom))
    held = cells > 0.0
    cells, cell_atom = cells[held], cell_atom[held]
    atoms = np.bincount(atom, weights=wp)
    route_join = _phi_sum(cells) - _phi_sum(atoms)
    ratio = cells / atoms[cell_atom]  # cell mass over its atom's mass
    route_atoms = float((-cells * np.log(ratio)).sum())
    if abs(route_join - route_atoms) > ROUTE_TOL:
        raise RouteDisagreement(
            f"join route {route_join!r} vs atom route {route_atoms!r}"
        )
    return route_atoms


def conditional_entropy(mu, alpha: SetFamily, beta: SetFamily) -> EntropyValue:
    """H(alpha | beta) for partitions, computed both as H(alpha v beta) -
    H(beta) and as the atom average of conditional entropies; the two must
    agree to 1e-9 and the atom-average value is returned.  The cells of the
    join are the distinct label pairs of the positive-weight words, ranked by
    one `np.unique`."""
    if alpha.kind != PARTITION or beta.kind != PARTITION:
        raise EntropyError("conditional_entropy needs partitions")
    families._require_same_carrier(alpha, beta)
    w = measures.family_weights(mu, alpha)
    pos, n_a = w > 0.0, len(alpha)
    atom = families.partition_labels(beta)[pos]
    keys, cell = np.unique(atom * n_a + families.partition_labels(alpha)[pos],
                           return_inverse=True)
    h = _partition_entropy(w[pos], atom, cell, keys // n_a)
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
    for e, cell in enumerate(families._cells(U)):
        for w in cell:
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


def _holder_runs(memb: np.ndarray) -> tuple:
    """What `_chord_bounds` reads of a component, found once per search: its
    memberships as a (word, element) float matrix, every word's holders as
    one run of a flat array, and where each run starts."""
    holders = np.nonzero(memb.T)[1]  # by word: each word's run of holders
    runs = memb.sum(axis=0)
    return memb.T.astype(float), holders, runs.cumsum() - runs


def _chord_bounds(comp: tuple, w: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Admissible lower bounds on the cost still to pay from each state of one
    component (given by `_holder_runs`), a row of the words its ordering
    prefix covers.  Each final cell mass is at most its element's residual
    cap and phi lies above its chord through the origin, so the cost is at
    least the chord sum (each residual word's weight times the least
    -log(cap) of its holders), the floor fill (the least sum of phi over
    parts of at most the largest cap that fill the residual mass) and phi of
    the residual mass; the bound is their largest."""
    word_memb, holders, starts = comp
    resw = np.where(covered, 0.0, w)
    caps = resw @ word_memb
    mrest = resw.sum(axis=1)
    # a residual word's holders all have a positive cap, so the floor at
    # _TINY only touches covered words, which weigh 0 here
    lam = -np.log(np.minimum(np.maximum(caps, _TINY), 1.0))
    per_word = np.minimum.reduceat(lam[:, holders], starts, axis=1)
    chord = (per_word * resw).sum(axis=1)
    # floor fill: whole parts of the largest cap, which is 0 only when
    # nothing weighs, then what is left
    cmax = caps.max(axis=1)
    parts = mrest // np.maximum(cmax, _TINY)
    phi_cap, phi_left, phi_rest = _entr(np.array([cmax, mrest - parts * cmax, mrest]))
    return np.maximum(np.maximum(chord, phi_left + parts * phi_cap), phi_rest)


def _minimize_component(
    memb: np.ndarray, w: np.ndarray, node_budget: int
) -> tuple[float, list[np.ndarray], bool, int]:
    """Exact minimum of sum(phi(cell mass)) over orderings of one overlap
    component.  Best-first search on union-of-prefix states, each keyed by
    the bytes of its covered-word row and bounded once by `_chord_bounds`,
    taken at once for the children an expansion reaches more cheaply than
    before; returns the mass-greedy value, not closed, when the node budget
    runs out."""
    d, m = memb.shape
    incumbent, inc_cells = _mass_greedy(memb, w)

    comp = _holder_runs(memb)
    start = bytes(m)
    heap = [(float(_chord_bounds(comp, w, np.zeros((1, m), dtype=bool))[0]), 0, 0.0, start)]
    best_g = {start: 0.0}
    parents: dict[bytes, tuple[bytes, int]] = {}
    nodes = 0
    tick = itertools.count(1)
    while heap:
        f, _, g, state = heapq.heappop(heap)
        if g > best_g[state] + 1e-15:
            continue
        covered = np.frombuffer(state, dtype=bool)
        if covered.all():
            if g < incumbent - 1e-15:
                incumbent, inc_cells = g, [np.zeros(m, dtype=bool) for _ in range(d)]
                while state != start:
                    state, i = parents[state]
                    inc_cells[i] = memb[i] & ~np.frombuffer(state, dtype=bool)
            break
        if f >= incumbent - 1e-12:
            break  # nothing cheaper left: the incumbent is optimal
        nodes += 1
        if nodes > node_budget:
            break
        caps = (memb & ~covered) @ w
        live = np.flatnonzero(caps > 0.0)
        children = covered | memb[live]
        keys = children.tobytes()
        better = []  # the children that reach their state more cheaply
        for j, i in enumerate(live.tolist()):
            nstate = keys[j * m : (j + 1) * m]
            ng = g + phi(float(caps[i]))
            if ng < best_g.get(nstate, math.inf) - 1e-15:
                best_g[nstate] = ng
                parents[nstate] = (state, i)
                better.append((j, ng, nstate))
        if better:
            bounds = _chord_bounds(comp, w, children[[j for j, _, _ in better]])
            for (_, ng, nstate), h in zip(better, bounds.tolist()):
                if ng + h < incumbent - 1e-12:
                    heapq.heappush(heap, (ng + h, next(tick), ng, nstate))
    # closed unless the budget ran out: an exhausted heap closes too
    return incumbent, inc_cells, nodes <= node_budget, nodes


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
    bit for bit; only a tie between orderings may break the other way.

    At D = 1 the one ordering's one step takes room[{}] - room[{0}] = (r1 +
    0.0) - 0.0, which is r1 = regions[c, 1] itself, as no word lies in no
    element; so phi of the masses is returned directly, bit for bit."""
    if D == 1:
        return _entr(regions[:, 1].copy()), np.zeros((len(regions), 1), dtype=np.intp)
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
            cand.min(axis=1, out=best[:, lo:hi])
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
        total.min(axis=1, out=values[lo : lo + step])
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
    holder of least rank, and the memberships of the larger components.  A
    word is named by its place among the positive-weight words, which keeps
    the order of the words.  A plan may stack several pairs over the
    disjoint union of their carriers: words, atoms, elements and rows are
    numbered one pair after another, so no component crosses two pairs, and
    each pair's words and components form one run."""

    comp_atom: np.ndarray  # each component's atom
    word_atom: np.ndarray  # each positive-weight word's atom
    word_ids: np.ndarray  # the DP components' words, ascending
    word_comp: np.ndarray  # the component of each of them
    first: np.ndarray  # where each word's (holder) run starts in the gather
    groups: list  # per DP: (D, components, words, region keys, region count)
    holder_at: np.ndarray  # the gather, by word: each DP holder's place in
    holder_row: np.ndarray  # the (component, slot) rank array, and its row
    row_atom: np.ndarray  # each kept (atom, element) row's atom
    spans: list  # per pair: its words and its components (lo, hi), first atom
    big: list  # per pair: (component, words, memberships, rows) past DP_MAX


def _solve_plan(U: SetFamily, beta: SetFamily, support: np.ndarray, *more) -> _SolvePlan:
    """The plan of H(U|beta) under any weights whose support w > 0 is
    `support`, stacked with those of the further (U, beta, support) triples
    in `more`.  Built in Python lists from U's cells, as a one-shot solve
    reads a few memberships, where each numpy call costs more than the loop;
    only the finished fields become arrays."""
    rows: dict[tuple, list] = {}  # (atom, element): its positive-weight words
    word_atom, starts = [], []  # each pair's first word and first atom
    n_pos = n_atoms = n_elems = 0
    for U, beta, support in ((U, beta, support), *more):
        starts.append((n_pos, n_atoms))
        atom_of, place = (families.partition_labels(beta) + n_atoms).tolist(), []
        for x, held in enumerate(support.tolist()):  # places among the positive words
            if held:
                word_atom.append(atom_of[x])
            place.append(n_pos if held else -1)
            n_pos += held
        for e, cell in enumerate(families._cells(U), n_elems):
            for x in cell:
                if place[x] >= 0:
                    rows.setdefault((atom_of[x], e), []).append(place[x])
        n_atoms += len(beta)
        n_elems += len(U)
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
    # rows run by atom, so components, numbered by their first rows, run by
    # atom too: each pair's components start at its first atom's
    comp_atom = [row_keys[rs[0]][0] for rs in comp_rows]
    spans = [(p0, p1, bisect.bisect_left(comp_atom, a0), bisect.bisect_left(comp_atom, a1), a0)
             for (p0, a0), (p1, a1) in zip(starts, starts[1:] + [(n_pos, n_atoms)])]

    # each word, ascending: in a component of at most DP_MAX elements, its
    # holder pattern and its run of the gather; in a larger one, its holders
    word_ids, word_comp, first, gather = [], [], [], []
    comp_words: list[list] = [[] for _ in comp_rows]
    bit = [1 << s for s in slot]
    for x in sorted(holders):
        held = holders[x]
        c = comp_of_row[held[0]]
        if dims[c]:
            comp_words[c].append((len(word_ids), sum(map(bit.__getitem__, held))))
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
    order, runs = sorted((c for c, d in enumerate(dims) if d), key=dims.__getitem__), []
    for d, run in itertools.groupby(order, key=lambda c: max(dims[c], _DP_SHARED)):
        run, step = list(run), max(1, _DP_CHUNK >> d)
        runs += [run[i : i + step] for i in range(0, len(run), step)]
    dp_lists = []  # per group: its components, words and region keys
    for cs in runs:
        D = dims[cs[-1]]
        dp_lists += [cs, [i for c in cs for i, _ in comp_words[c]],
                     [(local << D) + p for local, c in enumerate(cs) for _, p in comp_words[c]]]

    # larger components: their memberships, for the best-first search
    big, big_lists = [], []
    for c in (c for c, D in enumerate(dims) if not D):
        memb = np.zeros((len(comp_rows[c]), len(comp_words[c])), dtype=bool)
        memb[[slot[r] for _, held in comp_words[c] for r in held],
             [j for j, (_, held) in enumerate(comp_words[c]) for _ in held]] = True
        big.append((c, memb))
        big_lists += [[x for x, _ in comp_words[c]], comp_rows[c]]
    (row_atom, comp_atom, word_atom, word_ids, word_comp, first, holder_at, holder_row,
     *rest) = _int_arrays(
        [a for a, _ in row_keys], comp_atom, word_atom, word_ids, word_comp, first,
        [comp_of_row[r] * DP_MAX + slot[r] for r in gather], gather, *dp_lists, *big_lists)
    rest = iter(rest)  # the group and large-component arrays, in order
    groups = [(D, next(rest), next(rest), next(rest), len(cs) << D)
              for cs in runs for D in [dims[cs[-1]]]]
    big_of = [[] for _ in spans]  # components run by pair, so does big
    for c, memb in big:
        big_of[bisect.bisect_right(spans, c, key=lambda s: s[2]) - 1].append(
            (c, next(rest), memb, next(rest)))
    return _SolvePlan(comp_atom, word_atom, word_ids, word_comp, first, groups,
                      holder_at, holder_row, row_atom, spans, big_of)


def _int_arrays(*lists) -> list[np.ndarray]:
    """The lists of ints as int64 arrays: views of one array, made by one
    conversion, as converting a short list costs about a microsecond."""
    flat = np.fromiter(itertools.chain(*lists), np.int64)
    ends = list(itertools.accumulate(map(len, lists)))
    return [flat[end - len(part) : end] for part, end in zip(lists, ends)]


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

    Route B's glued partition is read joined with beta: each positive-weight
    word goes to the (atom, element) row of its holder of least rank, and
    `_partition_entropy` takes those rows as the cells, checking that each
    lies in its words' own atom.  A DP group of one-element components
    returns phi of each component's mass (`_solve_dp`).

    This is `_conditional_cover_entropies` of the one triple (mu, U, beta),
    raising what that entry returns in place of a value.  The first call on
    (U, beta) builds a `_SolvePlan` and keeps it on U, so that a later call
    with weights of the same support only reads masses; another conditioner,
    support, DP_MAX or _DP_CHUNK builds a new one."""
    (value,) = _conditional_cover_entropies([(mu, U, beta)], node_budget, ustar_budget)
    if isinstance(value, Exception):
        raise value
    return value


def _conditional_cover_entropies(
    triples, node_budget: int = NODE_BUDGET_DEFAULT, ustar_budget: int = ROUTE_C_AUTO_BUDGET
) -> list:
    """H(U|beta) of each (mu, U, beta) in `triples`, or the exception that
    `conditional_cover_entropy` raises on it: each entry is that one-shot
    call's, bit for bit, whatever the other triples.

    The covers are solved together: one `_SolvePlan` stacks them, and one
    `_solve_dp` call per group solves the components of all of them, as a
    component's minimum and first holders do not depend on the others in its
    group, nor on padding (see DP_MAX).  Route A is then each triple's own
    `comp_base @ values`, and the search past DP_MAX, route B, route C and
    the heuristic flag are taken per triple.  Should the shared part raise,
    each triple is solved alone, so that an error stays with its own triple.
    A partition U goes to `conditional_entropy`, and one cover alone keeps
    its plan on U."""
    out: list = [None] * len(triples)
    live = []  # (place, U, beta, weights, support) of each cover that reaches the solve
    for k, (mu, U, beta) in enumerate(triples):
        try:
            if beta.kind != PARTITION:
                raise EntropyError("conditioner must be a partition")
            families._require_same_carrier(U, beta)
            if U.kind == PARTITION:
                # a partition is its own only ordered-difference partition, so the
                # glued partition of route B is U and the partition formula is exact
                out[k] = conditional_entropy(mu, U, beta)
            else:
                w = measures.family_weights(mu, U)
                live.append((k, U, beta, w, w > 0.0))
        except Exception as exc:  # the triple's own error, returned in its place
            out[k] = exc
    if not live:
        return out
    try:
        _solve_stacked(live, out, node_budget, ustar_budget)
    except Exception as exc:
        if len(live) == 1:
            out[live[0][0]] = exc
        else:
            for k, *_ in live:
                (out[k],) = _conditional_cover_entropies([triples[k]], node_budget, ustar_budget)
    return out


def _solve_stacked(live: list, out: list, node_budget: int, ustar_budget: int) -> None:
    """`_conditional_cover_entropies` of the covers in `live`: writes each
    one's value, or the error its own routes raise, to its place in `out`.
    Raises only from the part the covers share."""
    if len(live) == 1:
        # one plan per family U, for its last conditioner and support, so that
        # a loop over many conditioners holds one plan at a time
        _, U, beta, w, support = live[0]
        key = (DP_MAX, _DP_CHUNK, support.tobytes())
        got = U._cache.get("solve_plan")
        if not (got and got[0] is beta and got[1] == key):
            got = (beta, key, _solve_plan(U, beta, support))
            U._cache["solve_plan"] = got
        plan, wp = got[2], w[support]
    else:
        parts = [(U, beta, support) for _, U, beta, _, support in live]
        plan = _solve_plan(*parts[0], *parts[1:])
        wp = np.concatenate([w[support] for _, _, _, w, support in live])
    # only the atoms of positive-weight words are ever read
    base_masses = np.bincount(plan.word_atom, weights=wp)

    # route A: each component's minimum relative to its atom
    comp_base = base_masses[plan.comp_atom]
    word_mass = wp[plan.word_ids] / comp_base[plan.word_comp]
    values = np.zeros(len(comp_base))
    rank = np.zeros((len(comp_base), DP_MAX), dtype=np.int64)
    for D, comps, ws, keys, length in plan.groups:
        regions = np.bincount(keys, weights=word_mass[ws], minlength=length)
        values[comps], rank[comps, :D] = _solve_dp(regions.reshape(-1, 1 << D), D)
    # route B's glued partition, joined with beta: each positive-weight word
    # goes to the (atom, element) row of its holder of least rank, so the
    # rows are the cells of the join
    glue = np.empty(len(wp), dtype=np.int64)
    glue.fill(-1)  # half the cost of np.full on a few words
    n_rows = len(plan.row_atom)
    first_holder = rank.ravel()[plan.holder_at] * n_rows + plan.holder_row
    glue[plan.word_ids] = np.minimum.reduceat(first_holder, plan.first) % n_rows

    for (k, U, beta, _, support), (p0, p1, c0, c1, a0), big in zip(live, plan.spans, plan.big):
        try:
            # route A, weighted by the atoms; the search for the larger
            # components, within the node budget
            route_a = float(comp_base[c0:c1] @ values[c0:c1])
            method = BRANCH_AND_BOUND
            for c, cols, memb, rows in big:
                base = float(comp_base[c])
                val, cells, closed, _ = _minimize_component(memb, wp[cols] / base, node_budget)
                route_a += base * val
                if not closed:
                    method = HEURISTIC
                for r, cell in zip(rows, cells):
                    glue[cols[cell]] = r
            # rows and atoms keep their stacked numbers: the empty cells and
            # atoms of the other covers are skipped
            route_b = _partition_entropy(wp[p0:p1], plan.word_atom[p0:p1], glue[p0:p1],
                                         plan.row_atom)
            if abs(route_a - route_b) > ROUTE_TOL:
                raise RouteDisagreement(
                    f"per-atom route {route_a!r} vs glued-partition route {route_b!r}"
                )

            if method != HEURISTIC and ustar_budget > 0:
                enum = families.ustar_enumerate(U, ustar_budget)
                if not enum.refused:
                    # every assignment at once, as the (candidate, atom, element)
                    # cells of its positive-weight words: O(ustar_budget x words)
                    lab = enum.labels()[:, support]
                    keys = (np.arange(len(lab))[:, None] * len(beta)
                            + families.partition_labels(beta)[support]) * len(U)
                    keys, cell_of = np.unique((keys + lab).ravel(), return_inverse=True)
                    cells = np.bincount(cell_of, weights=np.tile(wp[p0:p1], len(lab)))
                    ratio = cells / base_masses[a0:][keys // len(U) % len(beta)]
                    cand = keys // (len(U) * len(beta))
                    route_c = float(np.bincount(cand, weights=-cells * np.log(ratio)).min())
                    if abs(route_a - route_c) > ROUTE_TOL:
                        raise RouteDisagreement(
                            f"per-atom route {route_a!r} vs exhaustive minimum {route_c!r}"
                        )

            cert = None if method == HEURISTIC else 0.0
            out[k] = EntropyValue(max(route_a, 0.0), method, cert)
        except Exception as exc:  # the triple's own error, returned in its place
            out[k] = exc

"""Finite covers and partitions and their algebra: refinement, joins,
dynamical joins, window placement, ordered-difference partitions, the
finer-partition enumeration, cover distance, and pullbacks.

A family lives on one carrier: either the admissible words of a word system
at a fixed window length, or the points of a permutation system.  Its
identity is the tuple of its element bitmasks over that universe (see
`bitsets`), and what the library computes from is its memberships.

One rule: every family the library builds is made from its memberships by
one private constructor, `_from_members`, and its masks are made on the
first read of `elements`, `==`, `hash` or `repr`.  The memberships are a
partition's labels, one cell per word (`partition_labels`), or a cover's
cells, each element's ascending words in Python lists, where small families
cost least.  From them comes the cached `SetFamily.incidence()`, the
(element, word) pairs at 8 bytes each that numpy code indexes in place of
an element-by-word matrix.  Only `SetFamily(system, window, kind, masks)`
takes masks: it checks them, and unpacks them for its incidence.

Families are joined by one product, `_product`: a word's cells in A ∨ B
pair its holders in A and in B, each read through an index map when it
lives on another carrier.  Two partitions pair their labels in numpy
(`_partition_from_codes`); covers pair holders, and `_merged` drops empty
cells, merges equal ones and keeps the canonical order: by size, then least
word, then mask.  A family read through an index map (`view_in_window`,
`pullback`, `block_recode`) gathers its holders and keeps its elements in
order (`_read_through`); T^{-n}U on a point carrier gathers them through the
permutation table (`_pulled`).

Every dynamical join U^N = ⋁_{n<N} T^{-n}U is built one window at a time:
U keeps the list of its joins, and `dynamical_join` steps each missing one
from the one before with `join_step`, so rate loops and one-shot calls
share it.  A step is one product of U^{N-1} with U at offset N.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import bitsets, measures, systems
from .systems import FactorMap, SymbolicSystem

COVER = "cover"
PARTITION = "partition"

USTAR_BUDGET_DEFAULT = 10**6


class FamilyError(ValueError):
    pass


class CarrierMismatch(FamilyError):
    pass


class UStarBudgetExceeded(FamilyError):
    def __init__(self, total: int, budget: int):
        super().__init__(
            f"finer-partition enumeration needs {total} assignments, "
            f"budget is {budget}"
        )
        self.total = total
        self.budget = budget


@dataclass(frozen=True)
class SetFamily:
    """Ordered family of carrier subsets covering the whole carrier, its
    masks checked; see the module docstring for the families built here."""

    system: SymbolicSystem
    window: Optional[int]  # None on point carriers
    kind: str
    elements: tuple[int, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._check_carrier()
        elements = self.elements
        if not elements:
            raise FamilyError("a family needs at least one element")
        size = self.universe_size
        union = functools.reduce(operator.or_, elements)
        if union >> size:  # a negative mask makes the union negative
            raise FamilyError("element mask outside the carrier universe")
        if union != bitsets.full_mask(size):
            raise FamilyError("elements do not cover the carrier")
        if self.kind == PARTITION and sum(map(int.bit_count, elements)) != size:
            raise FamilyError("partition elements are not pairwise disjoint")
        object.__setattr__(self, "_count", len(elements))

    def _check_carrier(self):
        if self.kind not in (COVER, PARTITION):
            raise FamilyError(f"kind must be cover or partition, got {self.kind!r}")
        if self.system.is_word_system and (self.window is None or self.window < 1):
            raise FamilyError("word-carrier families need a window length >= 1")
        if not self.system.is_word_system and self.window is not None:
            raise FamilyError("point-carrier families have no window")

    def __getattr__(self, name):
        # a family built from its memberships lacks only its masks, made
        # here on the first read of `elements`
        if name != "elements" or "_count" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        masks = tuple(map(bitsets.mask_from_indices, _cells(self)))
        object.__setattr__(self, "elements", masks)
        return masks

    @property
    def universe_size(self) -> int:
        if self.system.is_word_system:
            return systems.word_universe(self.system, self.window).count
        return self.system.point_count

    def __len__(self) -> int:
        return self._count

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Every membership as parallel read-only int32 arrays (element
        index, universe index), sorted by element and then by universe index:
        8 bytes per membership.  Made once, from the cells or labels the
        family was built from, or else by unpacking its masks."""
        inc = self._cache.get("incidence")
        if inc is not None:
            return inc
        cells, labels = self._cache.get("cells"), self._cache.get("labels")
        if cells is not None:
            lengths = [len(c) for c in cells]
            words = np.fromiter(itertools.chain.from_iterable(cells), np.int32, sum(lengths))
            elems = np.repeat(np.arange(len(cells), dtype=np.int32), lengths)
        elif labels is not None:
            order = np.argsort(labels, kind="stable")  # by element, then by word
            elems, words = labels[order].astype(np.int32), order.astype(np.int32)
        else:
            elems, words = (a.astype(np.int32) for a in bitsets.unpack_masks(self.elements))
        for arr in (elems, words):
            arr.flags.writeable = False
        self._cache["incidence"] = inc = (elems, words)
        return inc

    def element_words(self, m: int) -> list[tuple[int, ...]]:
        if not self.system.is_word_system:
            raise FamilyError("point-carrier family has no words")
        uni = systems.word_universe(self.system, self.window)
        return [uni.word(i) for i in _cells(self)[m]]


def _from_members(system, window, kind, n: int, labels=None, cells=None) -> SetFamily:
    """The family of n elements, some possibly empty, with these memberships:
    `labels`, an int64 array of each carrier word's one element (always so
    for a partition), or `cells`, the ascending carrier indices of each
    element.  Nothing is checked here (`_listed` and `_from_labels` check);
    the masks are made on the first read of `elements` (`__getattr__`)."""
    fam = object.__new__(SetFamily)
    members = {"cells": cells} if labels is None else {"labels": labels}
    fam.__dict__.update(system=system, window=window, kind=kind, _cache=members, _count=n)
    return fam


def _cells(U: SetFamily) -> list:
    """The ascending carrier indices of each element of U (cached)."""
    cells = U._cache.get("cells")
    if cells is None:
        elems, words = U.incidence()
        ends = np.cumsum(np.bincount(elems, minlength=len(U))).tolist()
        flat = words.tolist()
        cells = U._cache["cells"] = [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]
    return cells


def _holders(U: SetFamily) -> list:
    """For each carrier index, the ascending elements of U that hold it."""
    if U.kind == PARTITION:
        return [[m] for m in partition_labels(U).tolist()]
    holders = [[] for _ in range(U.universe_size)]
    for m, cell in enumerate(_cells(U)):
        for x in cell:
            holders[x].append(m)
    return holders


# ---------------------------------------------------------------------------
# constructors


def _listed(system, window, kind, elements) -> SetFamily:
    """The family whose elements are these lists of carrier indices, checked
    as `SetFamily` checks masks; an index may repeat."""
    cells = [sorted(set(map(int, elem))) for elem in elements]
    fam = _from_members(system, window, kind, len(cells), cells=cells)
    fam._check_carrier()
    if not cells:
        raise FamilyError("a family needs at least one element")
    size = fam.universe_size
    flat = [x for cell in cells for x in cell]
    if min(flat, default=0) < 0 or max(flat, default=0) >= size:
        raise FamilyError("element mask outside the carrier universe")
    if len(set(flat)) != size:
        raise FamilyError("elements do not cover the carrier")
    if kind == PARTITION and len(flat) != size:
        raise FamilyError("partition elements are not pairwise disjoint")
    return fam


def family_of_words(sys: SymbolicSystem, window: int, elements, kind: str) -> SetFamily:
    """Build a family from lists of words (tuples or digit strings)."""
    index_of = systems.word_universe(sys, window).index_of
    return _listed(sys, window, kind, [
        [index_of(tuple(map(int, w)) if isinstance(w, str) else w) for w in elem]
        for elem in elements
    ])


def family_of_points(sys: SymbolicSystem, elements, kind: str) -> SetFamily:
    return _listed(sys, None, kind, elements)


def trivial_partition(sys: SymbolicSystem, window: Optional[int] = None) -> SetFamily:
    """The one-element partition {X}."""
    if sys.is_word_system:
        return _whole(sys, 1 if window is None else window, PARTITION)
    return _whole(sys, None, PARTITION)


def cylinder_partition(sys: SymbolicSystem, window: int = 1) -> SetFamily:
    """The partition of X into the admissible window-cylinders."""
    size = systems.word_universe(sys, window).count
    return _from_labels(sys, window, np.arange(size), size)


# ---------------------------------------------------------------------------
# basic algebra


def _require_same_carrier(U: SetFamily, V: SetFamily):
    if U.system != V.system or U.window != V.window:
        raise CarrierMismatch(
            "families live on different carriers; align windows first"
        )


def finer(U: SetFamily, V: SetFamily) -> bool:
    """True iff every element of U sits inside some element of V: its words share a holder."""
    _require_same_carrier(U, V)
    held = _holders(V)
    return all(set(held[cell[0]]).intersection(*(held[x] for x in cell[1:]))
               for cell in _cells(U) if cell)


def partition_labels(fam: SetFamily) -> np.ndarray:
    """For a partition, the element index of every carrier word (cached)."""
    if fam.kind != PARTITION:
        raise FamilyError("labels exist for partitions only")
    lab = fam._cache.get("labels")
    if lab is None:
        elems, words = fam.incidence()
        lab = np.empty(fam.universe_size, dtype=np.int64)
        lab[words] = elems
        fam._cache["labels"] = lab
    return lab


def join_with_indices(U: SetFamily, V: SetFamily) -> list[tuple[tuple[int, int], int]]:
    """All nonempty pairwise intersections with their (i, j) index tuples,
    duplicates retained (pre-merge view)."""
    _require_same_carrier(U, V)
    out = []
    for i, u in enumerate(U.elements):
        for j, v in enumerate(V.elements):
            m = u & v
            if m:
                out.append(((i, j), m))
    return out


def _partition_from_codes(system, window, codes: np.ndarray) -> SetFamily:
    """The partition whose cells are the carrier words that share a code.

    Cells are ordered by (size, least word) with one lexsort: cells are
    disjoint, so no two tie on both and this is the canonical order of
    `_merged`."""
    _, first, cell, sizes = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.lexsort((first, sizes))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return _from_labels(system, window, rank[cell], len(order))


def _from_labels(system, window, labels: np.ndarray, n: int) -> SetFamily:
    """The partition of n cells, some possibly empty, that puts each carrier
    word in cell labels[word], the labels checked in O(words) numpy."""
    fam = _from_members(system, window, PARTITION, n, labels=labels)
    fam._check_carrier()
    if n < 1:
        raise FamilyError("a family needs at least one element")
    if len(labels) != fam.universe_size or np.any((labels < 0) | (labels >= n)):
        raise FamilyError("labels must give each carrier word a cell in 0..n-1")
    return fam


def _merged(system, window, kind, cells) -> SetFamily:
    """The family whose elements are the distinct nonempty cells, in the
    canonical order: by size, then least word, then mask.  Two sets of equal
    size compare as masks do when their words are read from the largest
    down."""
    distinct = {tuple(c): None for c in cells if c}
    order = sorted(distinct, key=lambda c: (len(c), c[0], c[::-1]))
    return _from_members(system, window, kind, len(order), cells=order)


def _product(A: SetFamily, ia, B: SetFamily, ib, window) -> SetFamily:
    """A ∨ B on the carrier of (A.system, window), A read through the index
    map ia and B through ib (None reads a family on its own carrier): a
    carrier word lies in cell (a, b) iff a holds ia[word] in A and b holds
    ib[word] in B.  Empty intersections are dropped and duplicates merged.
    Two partitions pair their labels and give a partition; otherwise the
    holders are paired and the join is a cover."""
    if A.kind == PARTITION and B.kind == PARTITION:
        la, lb = partition_labels(A), partition_labels(B)
        codes = (la if ia is None else la[ia]) * len(B) + (lb if ib is None else lb[ib])
        return _partition_from_codes(A.system, window, codes)
    ha, hb = _holders(A), _holders(B)
    if ia is not None:
        ha = [ha[i] for i in ia.tolist()]
    if ib is not None:
        hb = [hb[i] for i in ib.tolist()]
    cells: dict[tuple[int, int], list[int]] = {}
    for word, (xs, ys) in enumerate(zip(ha, hb)):
        for x in xs:
            for y in ys:
                cells.setdefault((x, y), []).append(word)
    return _merged(A.system, window, COVER, cells.values())


def join(U: SetFamily, V: SetFamily) -> SetFamily:
    """U ∨ V: nonempty pairwise intersections, duplicates merged, elements in
    canonical order.  A partition whenever both inputs are."""
    _require_same_carrier(U, V)
    return _product(U, None, V, None, U.window)


def view_in_window(U: SetFamily, offset: int, new_window: int) -> SetFamily:
    """The same cylinder family read inside a longer window, its coordinates
    starting at `offset`: element m becomes every admissible new_window-word
    whose subword [offset, offset+L) lies in element m."""
    if not U.system.is_word_system:
        raise FamilyError("window placement applies to word carriers only")
    L = U.window
    if offset < 0 or offset + L > new_window:
        raise FamilyError("family does not fit the requested window")
    idx = _subword_indices(U.system, L, offset, new_window)
    return _read_through(U, U.system, new_window, idx)


def _subword_indices(system, length: int, offset: int, window: int) -> np.ndarray:
    """For each admissible window-word, the index of its subword
    [offset, offset + length) among the admissible length-words."""
    rows = systems.word_universe(system, window).array[:, offset : offset + length]
    return systems.word_universe(system, length).indices_of_rows(rows)


def _gathered(U: SetFamily, idx: np.ndarray) -> list:
    """U's cells read through idx: index j joins cell m iff m holds idx[j]."""
    holders = _holders(U)
    cells = [[] for _ in range(len(U))]
    for j, i in enumerate(idx.tolist()):
        for m in holders[i]:
            cells[m].append(j)
    return cells


def _read_through(U: SetFamily, system, window, idx: np.ndarray) -> SetFamily:
    """U read on the carrier of (system, window) through idx, which maps each
    carrier word to a word of U's carrier: a word lies in element m iff its
    image does.  Elements keep their order and count, and one may become
    empty.  A partition's labels are gathered, a cover's holders."""
    if U.kind == PARTITION:
        return _from_labels(system, window, partition_labels(U)[idx], len(U))
    return _from_members(system, window, COVER, len(U), cells=_gathered(U, idx))


def extend_window(U: SetFamily, new_window: int) -> SetFamily:
    """Each element replaced by the admissible new_window-words whose prefix
    lies in it.  Entropy, refinement and joins are invariant under
    simultaneous extension."""
    if not U.system.is_word_system:
        raise FamilyError("extend_window applies to word carriers only")
    if new_window < U.window:
        raise FamilyError("cannot shrink a window")
    if new_window == U.window:
        return U
    return view_in_window(U, 0, new_window)


def align_windows(U: SetFamily, V: SetFamily) -> tuple[SetFamily, SetFamily]:
    if U.system.is_word_system and V.system.is_word_system and U.window != V.window:
        w = max(U.window, V.window)
        return extend_window(U, w), extend_window(V, w)
    return U, V


def dynamical_join(U: SetFamily, M: int, N: int) -> SetFamily:
    """⋁_{n=M}^{N} T^{-n} U, empty intersections dropped and duplicates
    merged as in `join`.

    U keeps the list of its joins ⋁_{i<=n} T^{-i}U, n = 0, 1, ..., and each
    missing one is stepped from the one before by `join_step`; a rate loop
    that asks for N = 1, 2, ... and a one-shot call share the list.  On a
    word carrier T^{-M} only moves the coordinates, so the join is entry
    N - M, at window (N - M) + L.  On a point carrier it is the preimage
    under T^M of that entry (`_pulled`)."""
    if M < 0 or M > N:
        raise FamilyError("need 0 <= M <= N")
    # the list holds U, so it is kept only once a join is stepped: kept on
    # every T^{-1}U of the property suites, the cycle nearly doubled their
    # gen-0 garbage collections
    joins = U._cache.get("window_joins", [U])
    while len(joins) <= N - M:
        joins.append(join_step(U, joins[-1], len(joins)))
        U._cache["window_joins"] = joins
    if U.system.is_word_system:
        return joins[N - M]
    return _pulled(joins[N - M], M)


def join_step(U: SetFamily, J: SetFamily, n: int) -> SetFamily:
    """⋁_{i=0}^{n} T^{-i} U from J = ⋁_{i=0}^{n-1} T^{-i} U, for n >= 1.

    One `_product`: on a word carrier every word of the new window is a word
    of J's window with one letter appended, so J is read through the
    universe's `prefix` rows and U through the subwords at offset n; on a
    point carrier J is read as it is and U through the table of T^n.  A
    partition's codes stay below len(J) * len(U) and need no re-ranking."""
    if not U.system.is_word_system:
        if len(U) == 1:  # {X} is its own preimage
            return U
        return _product(J, None, U, systems.permutation_power_table(U.system, n), None)
    window = J.window + 1
    if len(U) == 1:
        return _whole(U.system, window, U.kind)
    prefix = systems.word_universe(U.system, window).prefix
    return _product(J, prefix, U, _subword_indices(U.system, U.window, n, window), window)


def _pulled(U: SetFamily, n: int) -> SetFamily:
    """T^{-n}U on a point carrier: U's holders gathered through the table of
    T^n, empty elements dropped and the rest in canonical order."""
    if n == 0 or len(U) == 1:  # {X} is its own preimage
        return U
    table = systems.permutation_power_table(U.system, n)
    return _merged(U.system, None, U.kind, _gathered(U, table))


def _whole(system, window, kind) -> SetFamily:
    """The one-element family {X} of this kind on the carrier of (system,
    window), window None on a point carrier."""
    size = system.point_count if window is None else systems.word_universe(system, window).count
    return _from_members(system, window, kind, 1, labels=np.zeros(size, dtype=np.int64))


# ---------------------------------------------------------------------------
# finer-partition constructions


def ext_partitions(U: SetFamily) -> Iterator[SetFamily]:
    """Ordered-difference partitions {U_σ1, U_σ2 ∖ U_σ1, ...} over all
    orderings σ of U, emitted lazily."""
    holders = _holders(U)
    for order in itertools.permutations(range(len(U))):
        rank = [0] * len(U)
        for r, m in enumerate(order):
            rank[m] = r
        # each word falls in the cell of its first holder in the order
        labels = [min(map(rank.__getitem__, h)) for h in holders]
        yield _from_labels(U.system, U.window, np.array(labels, dtype=np.int64), len(U))


_LABEL_BLOCK = 256  # label rows that `UStarEnumeration.__iter__` holds at once


@dataclass(frozen=True, eq=False)
class UStarEnumeration:
    """Lazy enumeration of every partition finer than U with the positional
    constraint cell_m ⊆ U_m (empty cells allowed).

    When the assignment count exceeds the budget the object is a refusal:
    `refused` is True, `total` still reports the true count, and `labels`
    and iteration raise UStarBudgetExceeded.  `_finer_candidates` then falls
    back to `ext_partitions`.
    """

    family: SetFamily
    total: int
    budget: int
    refused: bool

    def labels(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Assignments lo..hi-1 (all by default) as rows of per-word element
        indices, in `itertools.product` order over each word's ascending
        holders: one mixed-radix digit per word, the last varying fastest."""
        if self.refused:
            raise UStarBudgetExceeded(self.total, self.budget)
        elems, words = self.family.incidence()
        holders = elems[np.argsort(words, kind="stable")].astype(np.int64)
        counts = np.bincount(words, minlength=self.family.universe_size)
        start = np.cumsum(counts) - counts
        stride = np.append(np.cumprod(counts[:0:-1])[::-1], 1)  # later words' product
        hi = self.total if hi is None else min(hi, self.total)
        rows = np.arange(lo, hi, dtype=np.int64)[:, None]
        return holders[start + rows // stride % counts]

    def __iter__(self) -> Iterator[SetFamily]:
        U = self.family
        for lo in range(0, self.total, _LABEL_BLOCK):
            for row in self.labels(lo, lo + _LABEL_BLOCK):
                yield _from_labels(U.system, U.window, row, len(U))


def ustar_enumerate(U: SetFamily, budget: int = USTAR_BUDGET_DEFAULT) -> UStarEnumeration:
    counts = np.bincount(U.incidence()[1], minlength=U.universe_size)
    total = math.prod(counts.tolist())  # every word has a holder: U covers
    return UStarEnumeration(U, total, budget, refused=total > budget)


def _finer_candidates(U: SetFamily, window: Optional[int], budget: int):
    """(window, candidates, used_fallback) for the partitions finer than U
    built at `window` (U's own if None; 0 on point carriers): the assignments
    of `ustar_enumerate`, or the ordered-difference partitions on refusal."""
    if U.system.is_word_system:
        window = U.window if window is None else window
        U = extend_window(U, window)
    else:
        window = 0
    enum = ustar_enumerate(U, budget)
    return window, (ext_partitions(U) if enum.refused else iter(enum)), enum.refused


# ---------------------------------------------------------------------------
# distance and pullback


@dataclass(frozen=True)
class FamilyDelta:
    """Mass of the elementwise symmetric difference Σ μ(U_m Δ V_m)."""

    value: float


def family_delta(mu, U: SetFamily, V: SetFamily) -> FamilyDelta:
    _require_same_carrier(U, V)
    if len(U) != len(V):
        raise FamilyError("cover distance needs equal element counts")
    w = measures.family_weights(mu, U)
    return FamilyDelta(sum(measures.mask_mass(w, u ^ v) for u, v in zip(U.elements, V.elements)))


def pullback(phi: FactorMap, U: SetFamily) -> SetFamily:
    """φ⁻¹U: codomain family at window L becomes a domain family at window
    L + b - 1; partitions pull back to partitions."""
    if U.system != phi.codomain:
        raise CarrierMismatch("family does not live on the codomain")
    if not U.system.is_word_system:
        raise FamilyError("pullback works on word carriers")
    window = U.window + phi.block_length - 1
    return _read_through(U, phi.domain, window, phi.image_indices(U.window))

"""Finite covers and partitions and their algebra: refinement, joins,
dynamical joins, window placement, ordered-difference partitions, the
finer-partition enumeration, cover distance, and pullbacks.

A family lives on one carrier: either the admissible words of a word system
at a fixed window length, or the points of a permutation system.  Elements
are bitmasks over that carrier's universe (see `bitsets`); the masks and
their order are a family's identity, and a partition built from labels
makes them only when `elements` is first read (see below).  The only
derived membership view is the cached `SetFamily.incidence()`, the
(element, word) pairs of every membership: numpy code indexes it instead of
a dense element-by-word matrix.  At 8 bytes a membership it grows with the
memberships, not with elements times words; a partition holds one
membership per word.  Partitions also
cache one label per word (`partition_labels`), and labels are the only way
a partition enters an entropy formula of `static_entropy`: pairing two label
arrays gives the cells of the join without building it as a family, and a
partition computed on the fly, such as the glued minimizer of a cover, or
every assignment of the finer-partition enumeration at once (route C), is
written as labels and never validated as a `SetFamily`.

Partitions are joined the same way: `join` pairs the labels of its two
partitions, and the words that share a pair form a cell.  One helper,
`_partition_from_codes`, turns such codes into labels, and one private
constructor, `_from_labels`, turns labels into a partition: it checks them
in O(words), seeds the new family's labels and incidence, and leaves its
masks unmade until `elements` is read.  Nothing a rate loop calls reads
them, so a join whose cells are single words holds O(words) memory, not
cells x words bits.  A family read through an index map (`view_in_window`,
`pullback`, `block_recode`) is a gather of a partition's labels through
the same constructor, or the preimages of a cover's masks
(`_read_through`).

Every dynamical join U^N = ⋁_{n<N} T^{-n}U is built one window at a time.
U keeps the list of its joins, and `dynamical_join` steps each missing one
from the one before with `join_step`, so a rate loop that asks for N = 1,
2, ... in turn and a one-shot call share that list.  A step does O(1) new
work per window: a partition's code of a word is its prefix's label in
U^{N-1} (the prefix rows come with the word universe) paired with U's label
of its last letters; a cover takes the mask product of U^{N-1}, extended by
one letter, with U at the new offset.  A one-element family {X} joins to
{X} at the new window with no lookup and no mask built from indices.  On a
point carrier T^{-n}U is the preimage of U's masks under T^n (`_pulled`),
and the join is the mask product: on the small point carriers in use, the
numpy calls of the label path cost two to three times the product (see
`dynamical_join`).
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
    """Ordered family of carrier subsets covering the whole carrier."""

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

    def _check_carrier(self):
        if self.kind not in (COVER, PARTITION):
            raise FamilyError(f"kind must be cover or partition, got {self.kind!r}")
        if self.system.is_word_system:
            if self.window is None or self.window < 1:
                raise FamilyError("word-carrier families need a window length >= 1")
        else:
            if self.window is not None:
                raise FamilyError("point-carrier families have no window")

    def __getattr__(self, name):
        # only a partition built from labels (`_from_labels`) lacks an
        # attribute: its masks, made here on the first read of `elements`
        ends = self.__dict__.get("_cache", {}).get("cell_ends")
        if name != "elements" or ends is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        flat = self._cache["incidence"][1].tolist()
        ends = ends.tolist()
        masks = tuple(
            bitsets.mask_from_indices(flat[lo:hi]) for lo, hi in zip([0] + ends, ends)
        )
        object.__setattr__(self, "elements", masks)
        return masks

    @property
    def universe_size(self) -> int:
        if self.system.is_word_system:
            return systems.word_universe(self.system, self.window).count
        return self.system.point_count

    def __len__(self) -> int:
        ends = self._cache.get("cell_ends")
        return len(self.elements) if ends is None else len(ends)

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Every membership as parallel read-only int32 arrays (element
        index, universe index), sorted by element and then by universe index:
        8 bytes per membership."""
        inc = self._cache.get("incidence")
        if inc is None:
            inc = tuple(a.astype(np.int32) for a in bitsets.unpack_masks(self.elements))
            for arr in inc:
                arr.flags.writeable = False
            self._cache["incidence"] = inc
        return inc

    def element_words(self, m: int) -> list[tuple[int, ...]]:
        if not self.system.is_word_system:
            raise FamilyError("point-carrier family has no words")
        uni = systems.word_universe(self.system, self.window)
        return [uni.word(i) for i in bitsets.iter_bits(self.elements[m])]


# ---------------------------------------------------------------------------
# constructors


def family_of_words(sys: SymbolicSystem, window: int, elements, kind: str) -> SetFamily:
    """Build a family from lists of words (tuples or digit strings)."""
    uni = systems.word_universe(sys, window)
    masks = []
    for elem in elements:
        m = 0
        for w in elem:
            if isinstance(w, str):
                w = tuple(int(ch) for ch in w)
            m |= 1 << uni.index_of(w)
        masks.append(m)
    return SetFamily(sys, window, kind, tuple(masks))


def family_of_points(sys: SymbolicSystem, elements, kind: str) -> SetFamily:
    masks = tuple(bitsets.mask_from_indices(elem) for elem in elements)
    return SetFamily(sys, None, kind, masks)


def trivial_partition(sys: SymbolicSystem, window: Optional[int] = None) -> SetFamily:
    """The one-element partition {X}, its labels and incidence seeded."""
    if sys.is_word_system:
        return _whole(sys, 1 if window is None else window, PARTITION)
    return _whole(sys, None, PARTITION)


def cylinder_partition(sys: SymbolicSystem, window: int = 1) -> SetFamily:
    """The partition of X into the admissible window-cylinders."""
    size = systems.word_universe(sys, window).count
    return SetFamily(sys, window, PARTITION, tuple(1 << i for i in range(size)))


# ---------------------------------------------------------------------------
# basic algebra


def _require_same_carrier(U: SetFamily, V: SetFamily):
    if U.system != V.system or U.window != V.window:
        raise CarrierMismatch(
            "families live on different carriers; align windows first"
        )


def finer(U: SetFamily, V: SetFamily) -> bool:
    """True iff every element of U sits inside some element of V."""
    _require_same_carrier(U, V)
    return all(any(u & ~v == 0 for v in V.elements) for u in U.elements)


def _canonical_order(masks) -> tuple[int, ...]:
    # reproducible order: by size, then least word index, then raw mask
    def key(m):
        return (m.bit_count(), (m & -m).bit_length(), m)

    return tuple(sorted(masks, key=key))


def _merge_masks(masks) -> tuple[int, ...]:
    seen = []
    have = set()
    for m in masks:
        if m and m not in have:
            have.add(m)
            seen.append(m)
    return _canonical_order(seen)


def partition_labels(fam: SetFamily) -> np.ndarray:
    """For a partition, the element index of every carrier word (cached)."""
    if fam.kind != PARTITION:
        raise FamilyError("labels exist for partitions only")
    lab = fam._cache.get("labels")
    if lab is None:
        elems, words = bitsets.unpack_masks(fam.elements)
        lab = np.full(fam.universe_size, -1, dtype=np.int64)
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
    disjoint, so no two tie on both and this is `_canonical_order`.  The
    partition is built from its labels (`_from_labels`), so its masks are
    made only if its elements are read."""
    _, first, cell, sizes = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.lexsort((first, sizes))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return _from_labels(system, window, rank[cell], len(order))


def _from_labels(system, window, labels: np.ndarray, n: int) -> SetFamily:
    """The partition of n cells, some possibly empty, that puts each carrier
    word in cell labels[word].

    The labels are checked in O(words) numpy in place of the mask checks of
    `__post_init__`, and they are the family's membership: its labels and
    incidence are seeded, and its masks are made on the first read of
    `elements` (`SetFamily.__getattr__`), one `mask_from_indices` per cell.
    A rate loop reads labels only, so it builds no W-bit mask per cell."""
    fam = object.__new__(SetFamily)
    for name, value in (("system", system), ("window", window), ("kind", PARTITION),
                        ("_cache", {})):
        object.__setattr__(fam, name, value)
    fam._check_carrier()
    if n < 1:
        raise FamilyError("a family needs at least one element")
    if len(labels) != fam.universe_size or np.any((labels < 0) | (labels >= n)):
        raise FamilyError("labels must give each carrier word a cell in 0..n-1")
    words = np.argsort(labels, kind="stable")  # by cell, then by word
    fam._cache["cell_ends"] = np.cumsum(np.bincount(labels, minlength=n))
    return _seeded(fam, labels, words)


def _seeded(fam: SetFamily, labels: np.ndarray, words: np.ndarray) -> SetFamily:
    """fam with the incidence that `incidence()` would unpack from its masks
    seeded into its cache, and a partition's labels too.  `labels` gives
    each word's element and `words` lists the words by element, then by
    index: every word belongs to exactly one element.  A partition built
    from labels makes its masks from these words (`_from_labels`)."""
    inc = (labels[words].astype(np.int32), words.astype(np.int32))
    for arr in inc:
        arr.flags.writeable = False
    fam._cache["incidence"] = inc
    if fam.kind == PARTITION:
        fam._cache["labels"] = labels
    return fam


def join(U: SetFamily, V: SetFamily) -> SetFamily:
    """U ∨ V: nonempty pairwise intersections, duplicates merged, elements in
    canonical order.  A partition whenever both inputs are."""
    if U.kind == PARTITION and V.kind == PARTITION:
        # label pairing keeps partition joins linear in the carrier size
        _require_same_carrier(U, V)
        codes = partition_labels(U) * len(V) + partition_labels(V)
        return _partition_from_codes(U.system, U.window, codes)
    pairs = join_with_indices(U, V)
    masks = _merge_masks(m for _, m in pairs)
    return SetFamily(U.system, U.window, COVER, masks)


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


def _read_through(U: SetFamily, system, window, idx: np.ndarray) -> SetFamily:
    """U read on the carrier of (system, window) through idx, which maps each
    carrier word to a word of U's carrier: a word lies in element m iff its
    image does.  A partition's labels are gathered (`_from_labels`), so its
    cells keep their order and count and a cell may become empty; a cover's
    masks are preimaged.  Both give the elements of the preimage masks."""
    if U.kind == PARTITION:
        return _from_labels(system, window, partition_labels(U)[idx], len(U))
    size = U.universe_size
    masks = tuple(bitsets.preimage(m, size, idx) for m in U.elements)
    return SetFamily(system, window, U.kind, masks)


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
    under T^M of that entry (`_pulled`).

    Point carriers keep the mask product, not labels.  They are small (the
    property suites draw at most 10 points), and there the fixed cost of
    the label path's numpy calls exceeds the whole product: for
    `dynamical_join(beta, 1, 1)` on 4 to 10 points the label path took
    33-37 us against 11-22 us (2-core x86-64 VM, Python 3.11, numpy 2.4).
    """
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

    On a word carrier every word of the new window is a word of J's window
    with one letter appended, and its prefix's index is the universe's
    `prefix` row.  A partition codes each word by J's label of its prefix
    and U's label of its last U.window letters, so one offset lookup serves
    the window; the codes stay below len(J) * len(U) and need no re-ranking.
    A cover reads J through the prefix rows and takes the mask product with
    U at offset n; a point carrier takes the product of J with T^{-n}U.
    Empty intersections are dropped and duplicates merged, so the product
    over every offset has the same distinct masks as this one."""
    if not U.system.is_word_system:
        if len(U) == 1:  # {X} is its own preimage
            return U
        prefix, last, window = J, _pulled(U, n), None
    else:
        window = J.window + 1
        if len(U) == 1:
            return _whole(U.system, window, U.kind)
        target = systems.word_universe(U.system, window)
        if U.kind == PARTITION:
            suffix = _subword_indices(U.system, U.window, n, window)
            codes = partition_labels(J)[target.prefix] * len(U) + partition_labels(U)[suffix]
            return _partition_from_codes(U.system, window, codes)
        prefix = _read_through(J, U.system, window, target.prefix)
        last = view_in_window(U, n, window)
    masks = _merge_masks(c & m for c in prefix.elements for m in last.elements)
    return SetFamily(U.system, window, U.kind, masks)


def _pulled(U: SetFamily, n: int) -> SetFamily:
    """T^{-n}U on a point carrier: the preimage of each element under T^n,
    duplicates merged and in canonical order."""
    if n == 0 or len(U) == 1:  # {X} is its own preimage
        return U
    size, table = U.universe_size, systems.permutation_power_table(U.system, n)
    masks = _merge_masks(bitsets.preimage(m, size, table) for m in U.elements)
    return SetFamily(U.system, None, U.kind, masks)


def _whole(system, window, kind) -> SetFamily:
    """The one-element family {X} of this kind on the carrier of (system,
    window), window None on a point carrier, its caches seeded."""
    size = system.point_count if window is None else systems.word_universe(system, window).count
    fam = SetFamily(system, window, kind, (bitsets.full_mask(size),))
    return _seeded(fam, np.zeros(size, dtype=np.int64), np.arange(size))


# ---------------------------------------------------------------------------
# finer-partition constructions


def ext_partitions(U: SetFamily) -> Iterator[SetFamily]:
    """Ordered-difference partitions {U_σ1, U_σ2 ∖ U_σ1, ...} over all
    orderings σ of U, emitted lazily."""
    full = bitsets.full_mask(U.universe_size)
    for order in itertools.permutations(range(len(U))):
        remaining = full
        cells = []
        for i in order:
            cell = U.elements[i] & remaining
            cells.append(cell)
            remaining &= ~cell
        yield SetFamily(U.system, U.window, PARTITION, tuple(cells))


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
            for row in self.labels(lo, lo + _LABEL_BLOCK).tolist():
                cells = [0] * len(U)
                for word, e in enumerate(row):
                    cells[e] |= 1 << word
                yield SetFamily(U.system, U.window, PARTITION, tuple(cells))


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
    total = 0.0
    for u, v in zip(U.elements, V.elements):
        total += measures.mask_mass(w, u ^ v)
    return FamilyDelta(total)


def pullback(phi: FactorMap, U: SetFamily) -> SetFamily:
    """φ⁻¹U: codomain family at window L becomes a domain family at window
    L + b - 1; partitions pull back to partitions."""
    if U.system != phi.codomain:
        raise CarrierMismatch("family does not live on the codomain")
    if not U.system.is_word_system:
        raise FamilyError("pullback works on word carriers")
    window = U.window + phi.block_length - 1
    return _read_through(U, phi.domain, window, phi.image_indices(U.window))

"""Finite covers and partitions and their algebra: refinement, joins,
dynamical joins, window placement, ordered-difference partitions, the
finer-partition enumeration, cover distance, and pullbacks.

A family lives on one carrier: either the admissible words of a word system
at a fixed window length, or the points of a permutation system.  Elements
are bitmasks over that carrier's universe (see `bitsets`); the masks and
their order are a family's identity.  The only derived membership view is
the cached `SetFamily.incidence()`, the (element, word) pairs of every
membership: numpy code indexes it instead of a dense element-by-word matrix.
At 8 bytes a membership it grows with the memberships, not with elements
times words; a partition holds one membership per word.  Partitions also
cache one label per word (`partition_labels`).
"""

from __future__ import annotations

import itertools
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
        if self.kind not in (COVER, PARTITION):
            raise FamilyError(f"kind must be cover or partition, got {self.kind!r}")
        if self.system.is_word_system:
            if self.window is None or self.window < 1:
                raise FamilyError("word-carrier families need a window length >= 1")
        else:
            if self.window is not None:
                raise FamilyError("point-carrier families have no window")
        if not self.elements:
            raise FamilyError("a family needs at least one element")
        size = self.universe_size
        union = 0
        total_bits = 0
        for m in self.elements:
            if m < 0 or m >> size:
                raise FamilyError("element mask outside the carrier universe")
            union |= m
            total_bits += m.bit_count()
        if union != bitsets.full_mask(size):
            raise FamilyError("elements do not cover the carrier")
        if self.kind == PARTITION and total_bits != size:
            raise FamilyError("partition elements are not pairwise disjoint")

    @property
    def universe_size(self) -> int:
        if self.system.is_word_system:
            return systems.word_universe(self.system, self.window).count
        return self.system.point_count

    def __len__(self) -> int:
        return len(self.elements)

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Every membership as parallel read-only int32 arrays (element
        index, universe index), sorted by element and then by universe index:
        8 bytes per membership."""
        inc = self._cache.get("incidence")
        if inc is None:
            size = self.universe_size
            parts = [bitsets.indices_from_mask(m, size) for m in self.elements]
            elems = np.repeat(
                np.arange(len(parts), dtype=np.int32), [len(p) for p in parts]
            )
            inc = (elems, np.concatenate(parts).astype(np.int32))
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
    """The one-element partition {X}."""
    if sys.is_word_system:
        window = 1 if window is None else window
        size = systems.word_universe(sys, window).count
        return SetFamily(sys, window, PARTITION, (bitsets.full_mask(size),))
    return SetFamily(sys, None, PARTITION, (bitsets.full_mask(sys.point_count),))


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
        size = fam.universe_size
        lab = np.full(size, -1, dtype=np.int64)
        for i, m in enumerate(fam.elements):
            if m:
                lab[bitsets.bools_from_mask(m, size)] = i
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


def join(U: SetFamily, V: SetFamily) -> SetFamily:
    """U ∨ V: nonempty pairwise intersections, duplicates merged, elements in
    canonical order.  A partition whenever both inputs are."""
    if U.kind == PARTITION and V.kind == PARTITION:
        # label pairing keeps partition joins linear in the carrier size
        _require_same_carrier(U, V)
        codes = partition_labels(U) * len(V) + partition_labels(V)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        cuts = np.nonzero(np.diff(sorted_codes))[0] + 1
        groups = np.split(order, cuts)
        masks = _canonical_order(
            bitsets.mask_from_indices(g) for g in groups
        )
        return SetFamily(U.system, U.window, PARTITION, masks)
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
    target = systems.word_universe(U.system, new_window)
    base = systems.word_universe(U.system, L)
    idx = base.indices_of_rows(target.array[:, offset : offset + L])
    masks = tuple(bitsets.preimage(m, base.count, idx) for m in U.elements)
    return SetFamily(U.system, new_window, U.kind, masks)


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


def _position_membership(U: SetFamily, offsets, new_window) -> list[list[int]]:
    """For each offset, the per-element membership masks over the target
    universe (word carriers) or over points after that many backward steps
    (point carriers, offsets meaning T^{-n})."""
    if U.system.is_word_system:
        return [list(view_in_window(U, off, new_window).elements) for off in offsets]
    size = U.universe_size
    out = []
    for n in offsets:
        table = systems.permutation_power_table(U.system, n)
        out.append([bitsets.preimage(m, size, table) for m in U.elements])
    return out


def dynamical_join(U: SetFamily, M: int, N: int) -> SetFamily:
    """⋁_{n=M}^{N} T^{-n} U.

    Word carriers return the family read from coordinate M, i.e. at window
    (N - M) + L; point carriers apply the permutation preimages literally.
    Empty intersections are dropped and duplicates merged as in `join`.
    """
    if M < 0 or M > N:
        raise FamilyError("need 0 <= M <= N")
    if U.system.is_word_system:
        if M == N:
            return U
        new_window = (N - M) + U.window
        memberships = _position_membership(U, range(N - M + 1), new_window)
    else:
        if M == N == 0:
            return U
        memberships = _position_membership(U, range(M, N + 1), None)
        new_window = None
    live = memberships[0]
    for pos in memberships[1:]:
        nxt = []
        for c in live:
            for m in pos:
                inter = c & m
                if inter:
                    nxt.append(inter)
        live = nxt
    masks = _merge_masks(live)
    return SetFamily(U.system, new_window, U.kind, masks)


# ---------------------------------------------------------------------------
# finer-partition constructions


def ext_partitions(
    U: SetFamily, within: Optional[int] = None
) -> Iterator[SetFamily]:
    """Ordered-difference partitions {U_σ1, U_σ2 ∖ U_σ1, ...} over all
    orderings σ of U, emitted lazily.

    With `within` set, differences are taken inside that carrier subset and
    the complement of `within` is appended as a final cell, so each output is
    still a partition of the whole carrier.
    """
    size = U.universe_size
    full = bitsets.full_mask(size)
    base = full if within is None else within
    for order in itertools.permutations(range(len(U))):
        remaining = base
        cells = []
        for i in order:
            cell = U.elements[i] & remaining
            cells.append(cell)
            remaining &= ~cell
        if within is not None:
            cells.append(full & ~within)
        yield SetFamily(U.system, U.window, PARTITION, tuple(cells))


@dataclass(frozen=True, eq=False)
class UStarEnumeration:
    """Lazy enumeration of every partition finer than U with the positional
    constraint cell_m ⊆ U_m (empty cells allowed).

    When the assignment count exceeds the budget the object is a refusal:
    `refused` is True, `total` still reports the true count, and iterating
    raises UStarBudgetExceeded.  Callers fall back to `ext_partitions`.
    """

    family: SetFamily
    total: int
    budget: int
    refused: bool

    def __iter__(self) -> Iterator[SetFamily]:
        if self.refused:
            raise UStarBudgetExceeded(self.total, self.budget)
        U = self.family
        elems, words = U.incidence()
        order = np.argsort(words, kind="stable")
        cuts = np.nonzero(np.diff(words[order]))[0] + 1
        choices = np.split(elems[order], cuts)
        fixed = [0] * len(U)
        free_words = []
        for w, ch in enumerate(choices):
            if len(ch) == 1:
                fixed[ch[0]] |= 1 << w
            else:
                free_words.append((w, ch))
        for combo in itertools.product(*(ch for _, ch in free_words)):
            cells = list(fixed)
            for (w, _), m in zip(free_words, combo):
                cells[int(m)] |= 1 << w
            yield SetFamily(U.system, U.window, PARTITION, tuple(cells))


def ustar_enumerate(U: SetFamily, budget: int = USTAR_BUDGET_DEFAULT) -> UStarEnumeration:
    counts = np.bincount(U.incidence()[1], minlength=U.universe_size)
    if np.any(counts == 0):
        raise FamilyError("carrier element not covered")  # unreachable by invariant
    total = 1
    for c in counts:
        total *= int(c)
    return UStarEnumeration(U, total, budget, refused=total > budget)


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
    idx = phi.image_indices(U.window)
    size = U.universe_size
    masks = tuple(bitsets.preimage(m, size, idx) for m in U.elements)
    return SetFamily(phi.domain, U.window + phi.block_length - 1, U.kind, masks)

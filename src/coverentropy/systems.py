"""Symbolic dynamical systems: full shifts, subshifts of finite type, and
finite permutations, with a uniform word-enumeration interface.

Words are tuples of letters 0..k-1, and a word with any other letter is
rejected.  All admissible words of a given length are enumerated once per
(system, length) in lexicographic order and cached; that enumeration order is
the universe order every bitmask in the package refers to.  The length-n
universe is the cached length-(n-1) universe with one letter appended: each
word is followed by the letters its last letter may go to, in ascending
order, so the order stays lexicographic and no word is rebuilt from length 1.
Each universe keeps, for every word, the index of its prefix one letter
shorter, which `families` uses to extend a dynamical join by one window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

FULL_SHIFT = "full_shift"
SFT = "sft"
PERMUTATION = "permutation"


class SystemError(ValueError):
    pass


@dataclass(frozen=True)
class SymbolicSystem:
    """Phase space + map.  Immutable; word kinds carry a 0/1 transition
    matrix (full shifts use the all-ones matrix), permutation systems carry
    the bijection table instead."""

    kind: str
    alphabet_size: int
    transition: Optional[tuple[tuple[int, ...], ...]] = None
    mapping: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind in (FULL_SHIFT, SFT):
            if self.alphabet_size < 1:
                raise SystemError("alphabet must have at least one letter")
            t = self.transition
            if t is None or len(t) != self.alphabet_size or any(
                len(row) != self.alphabet_size for row in t
            ):
                raise SystemError("transition matrix must be k x k")
            if any(v not in (0, 1) for row in t for v in row):
                raise SystemError("transition entries must be 0/1")
            if not _has_essential_part(t):
                raise SystemError(
                    "transition matrix admits no bi-infinite path "
                    "(essential part is empty)"
                )
        elif self.kind == PERMUTATION:
            m = self.mapping
            if m is None or sorted(m) != list(range(len(m))) or len(m) == 0:
                raise SystemError("permutation table must be a bijection on 0..n-1")
        else:
            raise SystemError(f"unknown system kind {self.kind!r}")

    @property
    def is_word_system(self) -> bool:
        return self.kind in (FULL_SHIFT, SFT)

    @property
    def point_count(self) -> int:
        if self.kind != PERMUTATION:
            raise SystemError("point_count only applies to permutation systems")
        return len(self.mapping)

    def transition_array(self) -> np.ndarray:
        return np.array(self.transition, dtype=np.int8)


def full_shift(k: int) -> SymbolicSystem:
    ones = tuple(tuple(1 for _ in range(k)) for _ in range(k))
    return SymbolicSystem(FULL_SHIFT, k, transition=ones)


def sft(transition) -> SymbolicSystem:
    t = tuple(tuple(int(v) for v in row) for row in transition)
    return SymbolicSystem(SFT, len(t), transition=t)


def permutation(mapping) -> SymbolicSystem:
    m = tuple(int(v) for v in mapping)
    return SymbolicSystem(PERMUTATION, 0, mapping=m)


def golden_mean() -> SymbolicSystem:
    """The SFT on {0,1} forbidding the word 11."""
    return sft([[1, 1], [1, 0]])


def _has_essential_part(transition) -> bool:
    # A bi-infinite path exists iff the graph has a cycle, that is iff some
    # edge (a loop counts) has both ends in one strong component.
    t = np.array(transition, dtype=bool)
    comp = _strong_components(t)
    src, dst = comp[np.argwhere(t).T]
    return bool(np.any(src == dst))


def _strong_components(adj: np.ndarray) -> np.ndarray:
    """Strong-component labels of the digraph with boolean k x k adjacency
    matrix adj: two vertices share a label iff each reaches the other.
    Kosaraju's two depth-first passes, with every row (and every column, for
    the reversed graph) held as a Python-int bitset, so that one AND with the
    unvisited set finds a vertex's next successor: O(k) bitset steps of
    O(k / 64) words each, whatever the number of edges."""
    k = len(adj)

    def row_ints(a):
        return [int.from_bytes(row.tobytes(), "little")
                for row in np.packbits(a, axis=1, bitorder="little")]

    succ, pred = row_ints(adj), row_ints(adj.T)
    finished = []  # vertices in the order their first-pass search ends
    unseen = (1 << k) - 1
    for root in range(k):
        if unseen >> root & 1:
            unseen ^= 1 << root
            stack = [root]
            while stack:
                nxt = succ[stack[-1]] & unseen
                if nxt:
                    low = nxt & -nxt
                    unseen ^= low
                    stack.append(low.bit_length() - 1)
                else:
                    finished.append(stack.pop())
    # in reverse finishing order, what a root still reaches backwards is its
    # component
    labels = [0] * k
    unseen = (1 << k) - 1
    c = 0
    for root in reversed(finished):
        if unseen >> root & 1:
            unseen ^= 1 << root
            stack = [root]
            while stack:
                v = stack.pop()
                labels[v] = c
                nxt = pred[v] & unseen
                unseen ^= nxt
                while nxt:
                    low = nxt & -nxt
                    nxt ^= low
                    stack.append(low.bit_length() - 1)
            c += 1
    return np.array(labels)


@dataclass(frozen=True, eq=False)
class WordUniverse:
    """All admissible length-n words of a system, in lexicographic order.
    Words are looked up by binary search over their sorted radix codes, so
    the universe holds O(count) memory however large k**n is."""

    system: SymbolicSystem
    length: int
    array: np.ndarray  # (count, length), unsigned, wide enough for k - 1
    codes: np.ndarray  # radix codes, most-significant letter first: ascending
    # index of each word's (length-1)-prefix in the universe one letter
    # shorter; None at length 1
    prefix: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        return len(self.array)

    def word(self, i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.array[i])

    def index_of(self, word) -> int:
        if len(word) != self.length:
            raise SystemError(f"word {word} does not have length {self.length}")
        code = 0
        k = self.system.alphabet_size
        for letter in map(int, word):
            # a letter outside the alphabet would carry into another word's code
            if not 0 <= letter < k:
                raise SystemError(f"word {word} has a letter outside 0..{k - 1}")
            code = code * k + letter
        idx = int(np.searchsorted(self.codes, code))
        if idx == self.count or self.codes[idx] != code:
            raise SystemError(f"word {word} is not admissible")
        return idx

    def indices_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Map an (m, length) array of letter rows to universe indices.
        Rows must all be admissible."""
        k = self.system.alphabet_size
        powers = k ** np.arange(self.length - 1, -1, -1, dtype=np.int64)
        codes = rows.astype(np.int64) @ powers
        idx = np.minimum(np.searchsorted(self.codes, codes), self.count - 1)
        if np.any(self.codes[idx] != codes):
            raise SystemError("inadmissible word encountered during recoding")
        return idx


def letter_dtype(k: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the letters 0..k-1."""
    return np.min_scalar_type(k - 1)


@lru_cache(maxsize=None)
def word_universe(sys: SymbolicSystem, n: int) -> WordUniverse:
    if not sys.is_word_system:
        raise SystemError("permutation systems carry points, not words")
    if n < 1:
        raise SystemError("word length must be >= 1")
    k = sys.alphabet_size
    if k**n >= 2**63:
        raise SystemError(f"{k}**{n} radix codes do not fit in int64")
    if k == 1:  # one word at every length, and no bound on n from k**n
        prefix = None if n == 1 else np.zeros(1, np.int64)
        return WordUniverse(
            sys, n, np.zeros((1, n), letter_dtype(1)), np.zeros(1, np.int64), prefix
        )
    if n == 1:
        arr = np.arange(k, dtype=letter_dtype(k))[:, None]
        return WordUniverse(sys, 1, arr, np.arange(k, dtype=np.int64))
    # the check above keeps n <= 62, so this recursion stays shallow; nonzero
    # walks rows in order and each row's letters in order, so the extended
    # words stay in lexicographic order
    prev = word_universe(sys, n - 1)
    rows, letters = np.nonzero(sys.transition_array()[prev.array[:, -1]])
    last = letters.astype(prev.array.dtype)[:, None]
    arr = np.concatenate([prev.array[rows], last], axis=1)
    return WordUniverse(sys, n, arr, prev.codes[rows] * k + letters, rows)


def admissible_words(sys: SymbolicSystem, n: int) -> list[tuple[int, ...]]:
    """Exactly the length-n transition-admissible words, lexicographically."""
    uni = word_universe(sys, n)
    return [tuple(int(v) for v in row) for row in uni.array]


def word_count_growth(sys: SymbolicSystem, n_max: int) -> float:
    """(1/n_max) log #(admissible n_max-words).

    An upper-bound proxy that converges to the log of the spectral radius of
    the transition matrix (subadditivity of log counts).
    """
    if n_max < 2:
        raise SystemError("n_max must be >= 2")
    count = word_universe(sys, n_max).count
    return math.log(count) / n_max


def power_system(sys: SymbolicSystem, M: int) -> SymbolicSystem:
    """The system for the M-th iterate of the map.

    Word systems are recoded on non-overlapping M-blocks: the new alphabet is
    the admissible M-words (in lexicographic order) and block u may be
    followed by block v iff the concatenation uv is admissible.  A power
    n-word therefore corresponds bijectively to a base (n*M)-word.
    Permutations compose M times.
    """
    if M < 1:
        raise SystemError("M must be >= 1")
    if M == 1:
        return sys
    if sys.kind == PERMUTATION:
        return permutation(permutation_power_table(sys, M).tolist())
    blocks = word_universe(sys, M).array
    return sft(sys.transition_array()[blocks[:, -1:], blocks[:, 0]])


def permutation_power_table(sys: SymbolicSystem, n: int) -> np.ndarray:
    """Array p with p[i] = T^n(i) for a permutation system."""
    if sys.kind != PERMUTATION:
        raise SystemError("not a permutation system")
    m = np.array(sys.mapping, dtype=np.int64)
    out = np.arange(len(m))
    for _ in range(n):
        out = m[out]
    return out


def permutation_cycles(sys: SymbolicSystem) -> list[tuple[int, ...]]:
    """Cycles of the bijection, each starting at its smallest member,
    ordered by that member."""
    m = sys.mapping
    seen = [False] * len(m)
    cycles = []
    for start in range(len(m)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = m[x]
        cycles.append(tuple(cyc))
    return cycles


@dataclass(frozen=True)
class FactorMap:
    """Sliding-block code between word systems.

    `code[i]` is the codomain letter assigned to the i-th admissible
    block_length-word of the domain (domain universe order).  The code
    commutes with the shifts by construction; admissibility of images and
    surjectivity onto the codomain alphabet are checked here.
    """

    domain: SymbolicSystem
    codomain: SymbolicSystem
    block_length: int
    code: tuple[int, ...]

    def __post_init__(self):
        if not (self.domain.is_word_system and self.codomain.is_word_system):
            raise SystemError("factor maps are defined between word systems")
        blocks = word_universe(self.domain, self.block_length)
        if len(self.code) != blocks.count:
            raise SystemError(
                "code must assign a letter to every admissible "
                f"{self.block_length}-word ({blocks.count} of them)"
            )
        kc = self.codomain.alphabet_size
        if any(not (0 <= c < kc) for c in self.code):
            raise SystemError("code letters outside codomain alphabet")
        if set(self.code) != set(range(kc)):
            raise SystemError("code is not surjective onto the codomain alphabet")
        # every admissible (b+1)-window must map to an admissible letter pair
        windows = word_universe(self.domain, self.block_length + 1)
        t = self.codomain.transition
        for w in windows.array:
            a = self.code[blocks.index_of(tuple(w[:-1]))]
            b = self.code[blocks.index_of(tuple(w[1:]))]
            if not t[a][b]:
                raise SystemError(
                    "code image violates codomain admissibility on window "
                    f"{tuple(int(v) for v in w)}"
                )

    @property
    def is_injective(self) -> bool:
        return len(set(self.code)) == len(self.code)

    def is_onto_window(self, window: int) -> bool:
        """Whether every admissible codomain word of this length is the image
        of some domain word.  Letter surjectivity does not imply this; the
        counting side of factor invariance needs it."""
        hit = set(self.image_indices(window).tolist())
        return len(hit) == word_universe(self.codomain, window).count

    def image_indices(self, window: int) -> np.ndarray:
        """For each domain (window + b - 1)-word, the codomain universe index
        of its length-`window` image word."""
        b = self.block_length
        dom = word_universe(self.domain, window + b - 1)
        blocks = word_universe(self.domain, b)
        code = np.array(self.code, dtype=np.int64)
        kc = self.codomain.alphabet_size
        letters = np.empty((dom.count, window), dtype=letter_dtype(kc))
        for j in range(window):
            sub = dom.array[:, j : j + b]
            letters[:, j] = code[blocks.indices_of_rows(sub)]
        return word_universe(self.codomain, window).indices_of_rows(letters)


def identity_code(sys: SymbolicSystem) -> FactorMap:
    return FactorMap(sys, sys, 1, tuple(range(sys.alphabet_size)))

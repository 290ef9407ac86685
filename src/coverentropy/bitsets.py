"""Bitmask sets over an indexed finite universe.

Sets of words (or points) are plain Python ints used as bitmasks: bit i set
means universe element i belongs to the set.  Universe order is fixed by the
enumeration in `systems`, so masks are comparable across call sites.  numpy
bridges (pack/unpack) keep mass computations vectorized.
"""

from __future__ import annotations

import numpy as np


def mask_from_indices(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def mask_from_bools(bools: np.ndarray) -> int:
    packed = np.packbits(np.asarray(bools, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def bools_from_mask(mask: int, size: int) -> np.ndarray:
    nbytes = (size + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].astype(bool)


def indices_from_mask(mask: int, size: int) -> np.ndarray:
    return np.nonzero(bools_from_mask(mask, size))[0]


def preimage(mask: int, size: int, index_map: np.ndarray) -> int:
    """The positions j whose image index_map[j] lies in `mask`, a set over a
    universe of `size` elements."""
    return mask_from_bools(bools_from_mask(mask, size)[index_map])


def full_mask(size: int) -> int:
    return (1 << size) - 1


def iter_bits(mask: int):
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

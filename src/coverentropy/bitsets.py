"""Bitmask sets over an indexed finite universe.

Sets of words (or points) are plain Python ints used as bitmasks: bit i set
means universe element i belongs to the set.  Universe order is fixed by the
enumeration in `systems`, so masks are comparable across call sites.  numpy
bridges (unpacking) keep mass computations vectorized.
"""

from __future__ import annotations

import numpy as np


def mask_from_indices(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def bools_from_mask(mask: int, size: int) -> np.ndarray:
    nbytes = (size + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].astype(bool)


def unpack_masks(masks) -> tuple[np.ndarray, np.ndarray]:
    """(mask index, bit position) of every set bit of every mask, sorted by
    mask and then by position.  Each mask is unpacked from its lowest set bit
    only, in one pass of eight numpy calls over all of them (the loop keeps
    the offsets), so the cost follows the masks' spans, not the universe."""
    shifts, ends, chunks, nbits = [], [], [], 0
    for m in masks:
        low = max((m & -m).bit_length() - 1, 0)
        span = m >> low
        nbytes = (span.bit_length() + 7) // 8
        chunks.append(span.to_bytes(nbytes, "little"))
        shifts.append(low - nbits)  # from a bit of the joined spans to its position
        nbits += 8 * nbytes
        ends.append(nbits)
    raw = np.frombuffer(b"".join(chunks), dtype=np.uint8)
    pos = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
    # an empty mask has no bytes and ends where the mask before it ends
    which = np.searchsorted(np.array(ends, dtype=np.int64), pos, side="right")
    return which, pos + np.array(shifts, dtype=np.int64)[which]


def full_mask(size: int) -> int:
    return (1 << size) - 1


def iter_bits(mask: int):
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

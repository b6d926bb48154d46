"""Byte oracles.  They read the layout straight from typecore.flatten and
never go through an engine, so an engine defect cannot hide itself."""

from __future__ import annotations

import numpy as np

from typeforge import typecore


def seeded_region(nbytes: int, *seed: int) -> bytearray:
    return bytearray(np.random.default_rng(list(seed)).bytes(nbytes))


def payload_index(flat: typecore.FlatLayout, origin: int) -> np.ndarray:
    """Region index of every payload byte, in serialization order."""
    lengths = flat.lengths
    seg_start = np.repeat(flat.offsets - origin, lengths)
    seg_pos = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return seg_start + (np.arange(int(lengths.sum()), dtype=np.int64) - seg_pos)


class LayoutOracle:
    """Expected bytes of one (datatype, count) layout in a region whose
    byte 0 is layout offset `origin`."""

    def __init__(self, ct: typecore.CommittedType, count: int, origin: int):
        self.flat = typecore.flatten(ct, count)
        self.index = payload_index(self.flat, origin)

    @property
    def segments(self) -> int:
        return len(self.flat.offsets)

    def payload(self, region) -> np.ndarray:
        return np.frombuffer(region, dtype=np.uint8)[self.index]

    def packed_ok(self, packed, region) -> bool:
        return np.array_equal(np.frombuffer(packed, dtype=np.uint8), self.payload(region))

    def unpacked_ok(self, region, payload: np.ndarray, before) -> bool:
        """`region` holds `payload` at the layout's bytes and still holds
        `before` in every gap."""
        got = np.frombuffer(region, dtype=np.uint8)
        old = np.frombuffer(before, dtype=np.uint8)
        if not np.array_equal(got[self.index], payload):
            return False
        restored = got.copy()
        restored[self.index] = old[self.index]
        return np.array_equal(restored, old)

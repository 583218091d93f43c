"""Ragged-array index arithmetic shared by the numpy query kernels and
the maintenance driver's batched label seeds.

Rows of unequal length are walked as one flat batch: a row count per
source becomes ``(source index, within-row offset)`` pairs, and a sorted
key array splits into runs for ``ufunc.reduceat``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expand", "segment_starts"]


def expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ragged expansion: (source index, within-row offset) arrays."""
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ends = np.cumsum(counts)
    rep = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return rep, ramp


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """First index of each run in a non-empty sorted key array."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.nonzero(first)[0]

"""Ragged-array index arithmetic for the numpy query kernels.

Rows of unequal length are walked as one flat batch: a row count per
source becomes ``(source index, within-row offset)`` pairs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expand"]


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

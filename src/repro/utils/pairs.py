"""The one input contract of every ``distances(pairs)`` facade.

A batch of vertex pairs travels through the stack as an ``(m, 2)``
``int64`` array. Callers may hand any facade either that array (any
integer dtype; ``int64`` passes through without a copy) or any iterable
of ``(s, t)`` pairs — a list of tuples, a generator — which is flattened
once, at the first facade it meets, and never rebuilt on the way down.
Every door range-checks the ids once with :func:`check_ids`.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.exceptions import VertexNotFound

__all__ = ["as_pair_array", "check_ids"]


def check_ids(n: int, *ids: np.ndarray) -> None:
    """Raise :class:`VertexNotFound` for an id outside ``[0, n)`` in any
    of the int64 arrays *ids*: numpy would wrap a negative id onto
    another vertex, and C would read out of bounds. Read as unsigned, a
    negative id is a huge one, so each array costs one reduction."""
    for arr in ids:
        if arr.size and arr.view(np.uint64).max() >= n:
            raise VertexNotFound(int(arr[(arr < 0) | (arr >= n)][0]))


def as_pair_array(pairs) -> np.ndarray:
    """*pairs* as an ``(m, 2)`` int64 array (no copy for int64 arrays)."""
    if isinstance(pairs, np.ndarray):
        if pairs.size and (
            pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
        ):
            raise ValueError(
                "a pair array must be (m, 2) integers; got "
                f"shape {pairs.shape}, dtype {pairs.dtype}"
            )
        return pairs.astype(np.int64, copy=False).reshape(-1, 2)
    return np.fromiter(chain.from_iterable(pairs), np.int64).reshape(-1, 2)

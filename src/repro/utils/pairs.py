"""The one input contract of every ``distances(pairs)`` facade.

A batch of vertex pairs travels through the stack as an ``(m, 2)``
``int64`` array. Callers may hand any facade either that array (any
integer dtype; ``int64`` passes through without a copy) or any iterable
of ``(s, t)`` pairs — a list of tuples, a generator — which is flattened
once, at the first facade it meets, and never rebuilt on the way down.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = ["as_pair_array"]


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

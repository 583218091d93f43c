"""The one input contract of every ``distances(pairs)`` facade.

A batch of vertex pairs travels through the stack as an ``(m, 2)``
``int64`` array. Callers may hand any facade either that array (any
integer dtype; ``int64`` passes through without a copy) or any iterable
of ``(s, t)`` pairs — a list of tuples, a generator — which is flattened
once, at the first facade it meets, and never rebuilt on the way down.
Every door range-checks the ids once with :func:`check_ids`; a door
that takes single ids (one pair, one road) takes them through
:func:`vertex_pair`, and an update door its ``(u, v, weight)`` triples
through :func:`weight_changes`. Every ``k_nearest`` ranks its
candidates' distances with :func:`nearest`.
"""

from __future__ import annotations

import math
import operator
from itertools import chain

import numpy as np

from repro.exceptions import VertexNotFound

__all__ = ["as_pair_array", "check_ids", "nearest", "vertex_pair", "weight_changes"]


def check_ids(n: int, *ids: np.ndarray) -> None:
    """Raise :class:`VertexNotFound` for an id outside ``[0, n)`` in any
    of the int64 arrays *ids*: numpy would wrap a negative id onto
    another vertex, and C would read out of bounds. Read as unsigned, a
    negative id is a huge one, so each array costs one reduction."""
    for arr in ids:
        if arr.size and arr.view(np.uint64).max() >= n:
            raise VertexNotFound(int(arr[(arr < 0) | (arr >= n)][0]))


def vertex_pair(n: int, s, t) -> tuple[int, int]:
    """*s* and *t* as Python ints (``operator.index``: a float or a
    string raises ``TypeError``), both in ``[0, n)`` (else
    :class:`VertexNotFound` for the first that is not)."""
    s, t = operator.index(s), operator.index(t)
    if not (0 <= s < n and 0 <= t < n):
        raise VertexNotFound(t if 0 <= s < n else s)
    return s, t


def nearest(candidates, distances: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The *k* closest of *candidates* as ``(candidate, distance)``,
    nearest first and ties in candidate order; an unreachable candidate
    (infinite distance) is left out, so fewer than *k* may come back."""
    order = np.argsort(distances, kind="stable")[: max(0, k)]
    return [
        (candidates[int(i)], float(distances[i]))
        for i in order
        if math.isfinite(distances[i])
    ]


def weight_changes(n: int, changes) -> list[tuple[int, int, float]]:
    """*changes* as ``(u, v, weight)`` triples, the ids through
    :func:`vertex_pair` and the weights floats; one bad triple refuses
    them all."""
    out = []
    for u, v, w in changes:
        u, v = vertex_pair(n, u, v)
        out.append((u, v, float(w)))
    return out


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

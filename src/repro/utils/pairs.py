"""The one input contract of every id door and every update door.

A batch of vertex pairs travels through the stack as an ``(m, 2)``
``int64`` array, a list of ids as a flat ``int64`` array. Callers may
hand a door either that array (any integer dtype; ``int64`` passes
through without a copy, another integer dtype is cast once, and any
other dtype raises ``ValueError``) or any iterable — a list of tuples, a
generator — which is written into a fresh array at the first door it
meets by one C pass (``dhl_ingest.c``) and never rebuilt on the way
down. The contract is ``operator.index`` per id — a float or a string
raises ``TypeError``, an id outside int64 ``OverflowError`` — and
exactly two ids per pair, else ``ValueError``. :func:`as_pair_array`
takes the pairs of every ``distances(pairs)`` facade and :func:`as_ids`
the id lists of the one-to-many doors (``distances_arrays``,
``distances_from``, ``k_nearest``, ``distance_matrix``,
``common_ancestor_counts``).
Every door range-checks the ids once with :func:`check_ids`; a door
that takes single ids (one pair, one road) takes them through
:func:`vertex_pair`. Every ``k_nearest`` ranks its candidates'
distances with :func:`nearest`.

:func:`weight_changes` is the one check of a ``(u, v, weight)`` triple;
every update door calls it before it writes or buffers anything
(``update`` / ``increase`` / ``decrease`` through ``validate_batch``,
``apply_batch`` through ``classify_batch``, the service's ``submit*``).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from repro.exceptions import MaintenanceError, VertexNotFound

__all__ = [
    "as_ids",
    "as_pair_array",
    "check_ids",
    "nearest",
    "vertex_pair",
    "weight_changes",
]


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


def nearest(ids: np.ndarray, distances: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The *k* closest of the candidate *ids* (the array
    :func:`as_ids` made) as ``(id, distance)`` Python scalars, nearest
    first and ties in candidate order; an unreachable candidate
    (infinite distance) is left out, so fewer than *k* may come back."""
    order = np.argsort(distances, kind="stable")[: max(0, k)]
    order = order[np.isfinite(distances[order])]
    return list(zip(ids[order].tolist(), distances[order].tolist()))


def weight_changes(
    n: int, changes, *, insertions: bool = False
) -> list[tuple[int, int, float]]:
    """*changes* as ``(u, v, weight)`` triples, the ids through
    :func:`vertex_pair` and distinct, the weights floats, non-negative
    and not NaN (``inf`` closes a road; a new road's, for *insertions*,
    is finite), else :class:`~repro.exceptions.MaintenanceError`. One
    bad triple refuses them all."""
    out = []
    for u, v, w in changes:
        u, v = vertex_pair(n, u, v)
        w = float(w)
        if u == v:
            raise MaintenanceError(f"no road joins vertex {u} to itself")
        if not w >= 0 or (insertions and w == math.inf):  # NaN fails w >= 0
            raise MaintenanceError(f"invalid weight {w!r} for edge ({u}, {v})")
        out.append((u, v, w))
    return out


#: :mod:`repro.labelling.native`, imported at the first ingest: its
#: engine imports this module.
_native = None


def _ingest(items, width: int) -> np.ndarray:
    """*items* through ``dhl_ingest_ids``: a fresh ``(m, width)`` int64
    array (flat for *width* 1), in one C pass over a list or a tuple;
    any other iterable is made a list first."""
    global _native
    if _native is None:
        import repro.labelling.native as _native
    if type(items) is not list and type(items) is not tuple:
        items = list(items)
    out = np.empty((len(items), 2) if width == 2 else len(items), np.int64)
    _native.library().dhl_ingest_ids(items, width, out)
    return out


def as_ids(ids) -> np.ndarray:
    """*ids* as a one-dimensional int64 array (no copy for int64
    arrays)."""
    if isinstance(ids, np.ndarray):
        if ids.size and (ids.ndim != 1 or ids.dtype.kind not in "iu"):
            raise ValueError(
                "an id array must be one-dimensional integers; got "
                f"shape {ids.shape}, dtype {ids.dtype}"
            )
        return ids.astype(np.int64, copy=False).reshape(-1)
    return _ingest(ids, 1)


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
    return _ingest(pairs, 2)

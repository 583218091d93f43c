"""The numpy split and combine of a sharded batch, kept as the C
kernels' oracles.

:func:`batch_split` is the whole-array body :class:`repro.sharding.
engine.BatchSplit` ran before ``dhl_batch_split`` (one stable argsort
over the entries' group keys) and :func:`batch_answer` the body of
``BatchSplit.answer`` before ``dhl_batch_answer`` (a scatter of the
intra finals and one :func:`~tests.oracles.query.min_plus` per route).
Both take :mod:`repro.labelling.native.engine`'s arguments and read
the :class:`~repro.sharding.engine.Routing` state's arrays, so
:func:`tests.oracles.kernels.python_kernels` can swap them in; the C
side must give their arena and their bits.
"""

from __future__ import annotations

import numpy as np

from repro.utils.pairs import check_ids
from tests.oracles.query import min_plus

__all__ = ["batch_answer", "batch_split"]


def batch_split(routing, pairs) -> tuple[np.ndarray, int]:
    """``(arena, intra)``: ``order``, ``local`` and the group bounds of
    the ``(m, 2)`` *pairs*, in the C kernel's one-arena layout."""
    check_ids(routing.n, pairs)
    s, t = pairs[:, 0], pairs[:, 1]
    k, m = routing.k, len(s)
    routed = routing.routed.astype(bool)
    rs, rt = routing.region_of[s], routing.region_of[t]
    intra = rs == rt
    # Group key: shard * width + (target region | k + source region |
    # 2k for an intra source | 2k + 1 for an intra target). A cross
    # pair without a route goes to one group past every shard's.
    width = 2 * k + 2
    key = np.empty(2 * m, dtype=np.int64)
    np.add(rs * width, np.where(intra, 2 * k, rt), out=key[:m])
    np.add(rt * width, np.where(intra, 2 * k + 1, rs + k), out=key[m:])
    if not routed.all():
        lost = ~intra & ~(routed[rs] & routed[rt])
        key[:m][lost] = key[m:][lost] = k * width
    # Small keys take numpy's radix sort.
    order = np.argsort(key.astype(np.min_scalar_type(k * width)), kind="stable")
    local = np.concatenate((routing.local_of[s], routing.local_of[t]))[order]
    bounds = np.zeros(k * width + 2, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=k * width + 1), out=bounds[1:])
    arena = np.concatenate((order, local, bounds))
    return arena, int(np.count_nonzero(intra))


def batch_answer(routing, pairs, arena, results: dict) -> np.ndarray:
    """The batch's distances: each shard's finals on its intra
    positions, one :func:`~tests.oracles.query.min_plus` per route whose
    two shards both answered, ``inf`` for what a missing shard was
    needed for, ``0.0`` on self-pairs."""
    k, m = routing.k, len(pairs)
    width = 2 * k + 2
    order, bounds = arena[: 2 * m], arena[4 * m :].tolist()
    out = np.full(m, np.inf, dtype=np.float64)
    for sid, (final, _, _) in results.items():
        lo, mid = bounds[sid * width + 2 * k : sid * width + 2 * k + 2]
        out[order[lo:mid]] = final
    for i in range(k):
        for j in range(k):
            start, end = bounds[i * width + j], bounds[i * width + j + 1]
            if i == j or start == end or i not in results or j not in results:
                continue
            _, ds, ds_inverse = results[i]
            _, dt, dt_inverse = results[j]
            src = start - bounds[i * width]
            dst = bounds[j * width + k + i] - bounds[j * width]
            out[order[start:end]] = min_plus(
                np.asarray(ds, dtype=np.float64),
                np.asarray(ds_inverse[src : src + end - start], dtype=np.int64),
                routing.block(i, j),
                np.asarray(dt, dtype=np.float64),
                np.asarray(dt_inverse[dst : dst + end - start], dtype=np.int64),
            )
    out[pairs[:, 0] == pairs[:, 1]] = 0.0
    return out

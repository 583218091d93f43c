"""Algorithm 1's top-down pass in Python, kept as ``dhl_label_build``'s oracle.

:func:`label_build` takes :func:`repro.labelling.native.engine.label_build`'s
arguments — a store, its labelling seeded with the diagonal and one
weight plane's shortcut weights, the stable ``tau`` order and that
plane — and walks row slices,
one vectorised ``numpy.minimum`` per slot: the loop
:func:`repro.labelling.build.build_labelling` ran before the C pass was
its only one. The C pass must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["label_build"]


def label_build(store, labels, order: np.ndarray, plane: int = 0) -> None:
    """Lines 5-8: each row lowered by ``w(v, w) + L_w`` over its up slots."""
    csr, tau = store.csr, store.tau
    indptr, indices = csr.indptr, csr.indices
    up_weights = store.plane_views()[plane].up_weights
    values, offsets = labels.values, labels.offsets
    for v in order.tolist():
        start, end = int(indptr[v]), int(indptr[v + 1])
        if start == end:
            continue
        ov = int(offsets[v])
        row = values[ov : ov + int(tau[v]) + 1]
        for slot in range(start, end):
            w = int(indices[slot])
            k = int(tau[w]) + 1
            ow = int(offsets[w])
            np.minimum(
                row[:k], up_weights[slot] + values[ow : ow + k], out=row[:k]
            )

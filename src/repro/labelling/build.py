"""Hierarchical labelling construction — Algorithm 1 of the paper.

Labels are computed top-down in increasing ``tau`` order: a vertex's label
is the element-wise minimum over its up-neighbours ``w`` of
``w(v, w) + L_w``, seeded with its direct shortcut weights.

The builder reads the CSR shortcut store directly (``csr.indptr`` /
``csr.indices`` / ``up_weights``): the diagonal and the shortcut-weight
seeding are two scatters into the flat label buffer, in numpy; the
top-down pass is one loop of the C kernel ``dhl_label_build``.
"""

from __future__ import annotations

import numpy as np

from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.native import engine as native_engine

__all__ = ["build_labelling"]


def build_labelling(hu) -> HierarchicalLabelling:
    """Run Algorithm 1 over the update hierarchy *hu*.

    *hu* is any one-plane CSR shortcut store carrying ``tau``, ``csr``
    and ``up_weights`` — the undirected update hierarchy or one weight
    plane of the directed one. Returns the hierarchical labelling whose
    entry ``L_v[i]`` is the length of the shortest shortcut chain from
    ``v`` to its rank-``i`` ancestor — equivalently the interval-subgraph
    distance of Definition 4.11 (by Lemma 6.3 / Corollary 6.5).
    """
    tau = np.asarray(hu.tau, dtype=np.int64)
    n = len(tau)
    csr = hu.csr
    # Labels are built straight into the flat CSR store: lengths are
    # known upfront (tau + 1), so the whole buffer is allocated once and
    # the diagonal is written with a single scatter.
    lengths = tau + 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    values = np.full(int(offsets[-1]), np.inf, dtype=np.float64)
    values[offsets[:-1] + tau] = 0.0
    labels = HierarchicalLabelling(values, offsets, lengths, tau)

    # Lines 3-4: copy shortcut weights — one scatter over all slots.
    # Slot (v, w) lands at position offsets[v] + tau[w] (tau(w) < tau(v)
    # for every up-neighbour); positions are distinct across slots.
    if csr.num_slots:
        values[offsets[csr.owners] + tau[csr.indices]] = hu.up_weights

    # Lines 5-8: top-down pass in increasing tau; ties are incomparable
    # vertices whose labels do not interact, so any tie-break works.
    order = np.argsort(tau, kind="stable")
    native_engine.label_build(hu, labels, order)
    return labels

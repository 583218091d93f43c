"""Compiled engine: the four contract sweeps over the njit kernels.

Each sweep unpacks the store's flat buffers and hands the fixpoint to a
single compiled loop from :mod:`repro.labelling.compiled.kernels`;
seeding, mark bookkeeping and stats are the shared driver's
(:mod:`repro.labelling.driver`), so the hot loop never touches Python
containers.
"""

from __future__ import annotations

import numpy as np

from repro.labelling.compiled import kernels
from repro.labelling.maintenance import Engine

__all__ = ["ENGINE", "batch_query_compiled"]


def shortcut_decrease_sweep(sc, seeds, changed, first_old) -> bool:
    """Algorithm 2 — compiled min-relaxation sweep."""
    csr = sc.csr
    return bool(
        kernels.shortcut_decrease_sweep(
            seeds,
            sc.up_weights,
            csr.indptr,
            csr.indices,
            csr.ranks,
            csr.owners,
            csr.slot_keys,
            csr.rank,
            csr.n,
            changed,
            first_old,
        )
    )


def shortcut_increase_sweep(sc, seeds, direct, changed, first_old) -> None:
    """Algorithm 3 — compiled recompute sweep."""
    csr = sc.csr
    kernels.shortcut_increase_sweep(
        seeds,
        sc.up_weights,
        csr.indptr,
        csr.indices,
        csr.ranks,
        csr.owners,
        csr.slot_keys,
        csr.down_indptr,
        csr.down_indices,
        csr.down_slots,
        direct,
        csr.rank,
        csr.n,
        changed,
        first_old,
    )


def label_decrease_sweep(store, labels, verts, cols, changed) -> int:
    """Algorithm 4 — compiled descendant sweep."""
    csr = store.csr
    return int(
        kernels.label_decrease_sweep(
            labels.offsets[verts] + cols,
            labels.values,
            labels.offsets,
            store.tau,
            store.up_weights,
            csr.down_indptr,
            csr.down_indices,
            csr.down_slots,
            changed,
        )
    )


def label_increase_sweep(store, labels, verts, cols, changed) -> tuple[int, int]:
    """Algorithm 5 — compiled recompute sweep."""
    csr = store.csr
    pops, increased = kernels.label_increase_sweep(
        verts,
        cols,
        labels.values,
        labels.offsets,
        store.tau,
        store.up_weights,
        csr.indptr,
        csr.indices,
        csr.down_indptr,
        csr.down_indices,
        csr.down_slots,
        changed,
    )
    return int(pops), int(increased)


ENGINE = Engine(
    shortcut_decrease_sweep,
    shortcut_increase_sweep,
    label_decrease_sweep,
    label_increase_sweep,
)


def batch_query_compiled(
    values: np.ndarray,
    offsets: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    k: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused batch gather; returns ``(distances, argmin columns)``.

    ``best`` columns are −1 for same-vertex and unreachable pairs,
    matching the numpy kernel's hub contract.
    """
    out = np.empty(len(s), dtype=np.float64)
    best = np.empty(len(s), dtype=np.int64)
    kernels.query_gather(
        np.ascontiguousarray(s, dtype=np.int64),
        np.ascontiguousarray(t, dtype=np.int64),
        np.ascontiguousarray(k, dtype=np.int64),
        values,
        offsets,
        out,
        best,
    )
    return out, best

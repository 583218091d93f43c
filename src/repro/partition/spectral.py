"""Spectral (Fiedler vector) bisection for small graphs.

Used as one of several initial-partition candidates on the coarsest graph
of the multilevel pipeline. Dense eigendecomposition below a size cutoff
(robust), sparse Lanczos above it (best effort, may return None).
"""

from __future__ import annotations

import numpy as np

from repro.partition.initial import prefix_half
from repro.partition.types import PartitionGraph

__all__ = ["spectral_bisection"]

_DENSE_CUTOFF = 600


def _laplacian(pgraph: PartitionGraph) -> tuple[list[int], list[int], list[float]]:
    """Graph Laplacian as ``(row, column, value)`` triplets, diagonal last."""
    vs, us, ws, degrees = [], [], [], []
    for v, row in enumerate(pgraph.rows):
        degree = 0.0
        for u, w in row:
            vs.append(v)
            us.append(u)
            ws.append(-w)
            degree += w
        degrees.append(degree)
    diagonal = list(range(pgraph.num_vertices))
    return vs + diagonal, us + diagonal, ws + degrees


def spectral_bisection(pgraph: PartitionGraph) -> np.ndarray | None:
    """Bisect by thresholding the Fiedler vector at its weighted median.

    Returns a side array, or None when the eigensolve fails or the graph
    is too small/degenerate for a meaningful second eigenvector.
    """
    n = pgraph.num_vertices
    if n < 4:
        return None
    vs, us, ws = _laplacian(pgraph)
    try:
        if n <= _DENSE_CUTOFF:
            lap = np.zeros((n, n))
            lap[vs, us] = ws
            fiedler = np.linalg.eigh(lap)[1][:, 1]
        else:
            # Shift-invert Lanczos. Its start vector is random, so unlike
            # the dense branch it does not repeat bit for bit even within
            # one process. ArpackError is a RuntimeError.
            from scipy.sparse import csc_matrix
            from scipy.sparse.linalg import eigsh

            eigvals, eigvecs = eigsh(
                csc_matrix((ws, (vs, us)), shape=(n, n)),
                k=2,
                sigma=-1e-4,
                which="LM",
                maxiter=500,
            )
            fiedler = eigvecs[:, np.argsort(eigvals)[1]]
    except (np.linalg.LinAlgError, RuntimeError, ValueError):
        return None

    if np.allclose(fiedler, fiedler[0]):
        return None  # constant vector carries no split information

    # Split at the vertex-weight median of the Fiedler values.
    order = np.argsort(fiedler, kind="stable").tolist()
    side = prefix_half(order, pgraph.vweight)
    return None if side.min() == side.max() else side

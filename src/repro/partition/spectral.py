"""Spectral (Fiedler vector) bisection for small graphs.

Used as one of several initial-partition candidates on the coarsest graph
of the multilevel pipeline. Dense eigendecomposition below a size cutoff
(robust), sparse Lanczos above it (best effort, may return None). Both
are deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.partition.initial import prefix_half
from repro.partition.types import PartitionGraph

__all__ = ["spectral_bisection"]

_DENSE_CUTOFF = 600

#: Seed of the Lanczos start vector's own generator.
_LANCZOS_SEED = 0


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
    return _fiedler_split(n, *_laplacian(pgraph), pgraph.vweight)


def spectral_bisection_flat(indptr, indices, mult, vweight) -> np.ndarray | None:
    """:func:`spectral_bisection` of the graph with these CSR arrays (the
    coarsest graph of the ``compiled`` pipeline): the same Laplacian
    triplets in the same order, so the same eigenvectors."""
    n = len(vweight)
    if n < 4:
        return None
    rows = np.repeat(np.arange(n), np.diff(indptr))
    diagonal = np.arange(n)
    degrees = np.bincount(rows, weights=mult, minlength=n)  # row order
    return _fiedler_split(
        n,
        np.concatenate([rows, diagonal]),
        np.concatenate([indices, diagonal]),
        np.concatenate([-mult, degrees]),
        vweight.tolist(),
    )


def _fiedler_split(n: int, vs, us, ws, vweight: list[int]) -> np.ndarray | None:
    try:
        if n <= _DENSE_CUTOFF:
            lap = np.zeros((n, n))
            lap[vs, us] = ws
            fiedler = np.linalg.eigh(lap)[1][:, 1]
        else:
            # Shift-invert Lanczos from a fixed start vector (ARPACK's
            # default one is random), drawn from its own generator so the
            # caller's stream is untouched: the result repeats bit for
            # bit. ArpackError is a RuntimeError.
            from scipy.sparse import csc_matrix
            from scipy.sparse.linalg import eigsh

            eigvals, eigvecs = eigsh(
                csc_matrix((ws, (vs, us)), shape=(n, n)),
                k=2,
                sigma=-1e-4,
                which="LM",
                maxiter=500,
                v0=np.random.default_rng(_LANCZOS_SEED).uniform(-1.0, 1.0, n),
            )
            fiedler = eigvecs[:, np.argsort(eigvals)[1]]
    except (np.linalg.LinAlgError, RuntimeError, ValueError):
        return None

    if np.allclose(fiedler, fiedler[0]):
        return None  # constant vector carries no split information

    # Split at the vertex-weight median of the Fiedler values.
    order = np.argsort(fiedler, kind="stable").tolist()
    side = prefix_half(order, vweight)
    return None if side.min() == side.max() else side

"""Spectral (Fiedler vector) bisection for small graphs.

Used as one of several initial-partition candidates on the coarsest graph
of the multilevel pipeline. Dense eigendecomposition below a size cutoff
(robust), sparse Lanczos above it (best effort, may return None). Both
are deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["prefix_half", "spectral_bisection_flat"]

_DENSE_CUTOFF = 600

#: Seed of the Lanczos start vector's own generator.
_LANCZOS_SEED = 0


def spectral_bisection_flat(indptr, indices, mult, vweight) -> np.ndarray | None:
    """Bisect the graph with these CSR arrays (the coarsest graph of the
    pipeline) by thresholding the Fiedler vector at its weighted median.

    Returns a side array, or None when the eigensolve fails or the graph
    is too small/degenerate for a meaningful second eigenvector. The
    Laplacian's triplets are the rows in order, diagonal last.
    """
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


def prefix_half(order: list[int], vweight: list[int]) -> np.ndarray:
    """Side 0 = the shortest prefix of *order* holding half the weight."""
    side = bytearray(b"\x01") * len(vweight)
    half = sum(vweight) / 2.0
    grown = 0
    for v in order:
        if grown >= half:
            break
        side[v] = 0
        grown += vweight[v]
    return np.frombuffer(side, dtype=np.int8)

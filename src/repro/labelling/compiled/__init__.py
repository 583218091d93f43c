"""Optional numba-compiled engine behind ``DHLConfig(engine="compiled")``.

This package owns the capability probe and the JIT warmup for the
compiled kernels:

* :func:`available` — True when numba imported and no kernel has failed
  to compile. The probe is dynamic: a compilation failure at warmup (or
  anywhere later) flips the package to unavailable and every subsequent
  :func:`resolved_engine` call downgrades to the numpy array engine.
* :func:`resolved_engine` — maps a requested engine name to the one
  that will actually run, warning exactly once per process when
  ``"compiled"`` downgrades to ``"array"``.
* :func:`warmup_kernels` — compiles every kernel against a tiny
  two-vertex hierarchy so JIT latency lands at index build/load time,
  never on the serving hot path. Idempotent: the second call returns
  without touching the kernels (asserted by a test). Without numba the
  same toy sweep still runs once through the pure-Python kernels, so
  the warmup wiring is exercised on every environment.

The kernels themselves live in :mod:`repro.labelling.compiled.kernels`
and the four contract sweeps wrapping them (``ENGINE``) in
:mod:`repro.labelling.compiled.engine`.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.labelling.compiled import kernels
from repro.labelling.compiled.engine import ENGINE, batch_query_compiled

__all__ = [
    "ENGINE",
    "available",
    "resolved_engine",
    "warmup_kernels",
    "batch_query_compiled",
]

_warmed = False
_warmup_runs = 0
_failed = False
_warned_fallback = False


def available() -> bool:
    """True when the compiled engine can actually run."""
    return kernels.NUMBA_AVAILABLE and not _failed


def resolved_engine(requested: str) -> str:
    """The engine that will run for *requested* (compiled may downgrade)."""
    global _warned_fallback
    if requested != "compiled":
        return requested
    if available():
        return "compiled"
    if not _warned_fallback:
        _warned_fallback = True
        reason = (
            "kernel compilation failed"
            if kernels.NUMBA_AVAILABLE
            else "numba is not installed"
        )
        warnings.warn(
            f"DHLConfig(engine='compiled') requested but {reason}; "
            "falling back to the numpy array engine",
            RuntimeWarning,
            stacklevel=3,
        )
    return "array"


def warmup_kernels() -> bool:
    """Compile every kernel on a toy hierarchy; idempotent.

    Returns :func:`available` — False when numba is missing or a kernel
    failed to compile (in which case the one-time fallback warning fires
    on the next :func:`resolved_engine` call instead of crashing the
    build/load path).
    """
    global _warmed, _warmup_runs, _failed
    if not _warmed:
        _warmed = True
        _warmup_runs += 1
        try:
            _exercise_kernels()
        except Exception:
            _failed = True
            if kernels.NUMBA_AVAILABLE:
                warnings.warn(
                    "numba kernel compilation failed during warmup; "
                    "the compiled engine is disabled for this process",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return available()


def _exercise_kernels() -> None:
    """Drive every kernel once over a two-vertex path hierarchy.

    Vertex 1 is the root (rank 1, tau 0), vertex 0 its only child: one
    up shortcut, one down arc, labels ``[d(0,1), 0]`` for 0 and ``[0]``
    for 1. Small enough that compilation dominates, structurally rich
    enough that every loop body executes.
    """
    rank = np.array([0, 1], dtype=np.int64)
    tau = np.array([1, 0], dtype=np.int64)
    indptr = np.array([0, 1, 1], dtype=np.int64)
    indices = np.array([1], dtype=np.int64)
    ranks = rank[indices]
    owners = np.array([0], dtype=np.int64)
    slot_keys = np.array([1], dtype=np.int64)  # 0 * n + rank[1], n = 2
    down_indptr = np.array([0, 0, 1], dtype=np.int64)
    down_indices = np.array([0], dtype=np.int64)
    down_slots = np.array([0], dtype=np.int64)
    offsets = np.array([0, 2, 3], dtype=np.int64)
    seeds = np.array([0], dtype=np.int64)

    weights = np.array([0.5], dtype=np.float64)
    changed = np.ones(1, dtype=np.uint8)
    first_old = np.array([1.0], dtype=np.float64)
    kernels.shortcut_decrease_sweep(
        seeds, weights, indptr, indices, ranks, owners, slot_keys,
        rank, 2, changed, first_old,
    )

    weights = np.array([1.0], dtype=np.float64)
    direct = np.array([2.0], dtype=np.float64)
    changed = np.zeros(1, dtype=np.uint8)
    first_old = np.zeros(1, dtype=np.float64)
    kernels.shortcut_increase_sweep(
        seeds, weights, indptr, indices, ranks, owners, slot_keys,
        down_indptr, down_indices, down_slots, direct, rank, 2,
        changed, first_old,
    )

    weights = np.array([1.0], dtype=np.float64)
    values = np.array([1.0, 0.0, 0.0], dtype=np.float64)
    changed = np.zeros(3, dtype=np.uint8)
    kernels.label_decrease_sweep(
        np.array([2], dtype=np.int64), values, offsets, tau, weights,
        down_indptr, down_indices, down_slots, changed,
    )

    values = np.array([2.0, 0.0, 0.0], dtype=np.float64)
    changed = np.zeros(3, dtype=np.uint8)
    kernels.label_increase_sweep(
        np.array([0], dtype=np.int64), np.array([0], dtype=np.int64),
        values, offsets, tau, weights, indptr, indices,
        down_indptr, down_indices, down_slots, changed,
    )

    s = np.array([0, 0], dtype=np.int64)
    t = np.array([1, 0], dtype=np.int64)
    k = np.array([1, 2], dtype=np.int64)
    out = np.empty(2, dtype=np.float64)
    best = np.empty(2, dtype=np.int64)
    kernels.query_gather(s, t, k, values, offsets, out, best)

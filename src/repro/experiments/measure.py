"""Timing helpers for the experiment harness.

Thin wrappers over the canonical :class:`repro.observability.Timer`
primitive so every layer (experiments, the service) times work through
one clock discipline.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.observability.timing import Timer

__all__ = ["time_callable", "time_queries", "mean"]


def time_callable(fn: Callable[[], object]) -> float:
    """Wall-clock seconds of one invocation of *fn*."""
    with Timer() as timer:
        fn()
    return timer.seconds


def time_queries(
    distance: Callable[[int, int], float],
    pairs: Sequence[tuple[int, int]],
) -> float:
    """Mean seconds per query over *pairs* (single timing envelope)."""
    if not pairs:
        return 0.0
    with Timer() as timer:
        for s, t in pairs:
            distance(s, t)
    return timer.seconds / len(pairs)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0

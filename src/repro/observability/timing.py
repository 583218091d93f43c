"""Shared wall-clock timing primitive.

Every layer that measures time — the serving hot path, the experiment
harness — uses :class:`Timer`, so a latency number always means the
same thing: ``time.perf_counter`` wall seconds around exactly the
measured call.
"""

from __future__ import annotations

import time

__all__ = ["Timer"]


class Timer:
    """``with Timer() as t: ...`` — elapsed wall time in ``t.seconds``."""

    __slots__ = ("seconds", "_start")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start

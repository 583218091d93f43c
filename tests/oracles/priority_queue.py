"""The priority queue of the oracles' maintenance and partition loops.

:class:`LazyHeap` is a thin wrapper over :mod:`heapq` with lazy deletion:
no position bookkeeping, so it is the fast choice in CPython. Only the
key orders items; ties are broken by insertion order to keep behaviour
deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generic, Hashable, Iterator, TypeVar

__all__ = ["LazyHeap"]

T = TypeVar("T", bound=Hashable)


class LazyHeap(Generic[T]):
    """Min-heap with lazy deletion on top of :mod:`heapq`.

    ``push`` may insert the same item several times with different keys;
    ``pop`` skips entries that have been superseded or removed. Designed for
    Dijkstra-style loops where a "settled" check makes staleness harmless,
    and for the maintenance queues of Algorithms 2-5 where each (item, key)
    should be processed at most once.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, T]] = []
        self._best: dict[T, float] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        # Upper bound: stale entries are counted until popped.
        return len(self._best)

    def __bool__(self) -> bool:
        return bool(self._best)

    def __contains__(self, item: T) -> bool:
        return item in self._best

    def push(self, item: T, key: float) -> bool:
        """Insert *item* unless it is already queued with a key <= *key*."""
        best = self._best.get(item)
        if best is not None and best <= key:
            return False
        self._best[item] = key
        heapq.heappush(self._heap, (key, next(self._counter), item))
        return True

    def pop(self) -> tuple[T, float]:
        """Remove and return the ``(item, key)`` pair with the smallest key."""
        while self._heap:
            key, _, item = heapq.heappop(self._heap)
            if self._best.get(item) == key:
                del self._best[item]
                return item, key
        raise IndexError("pop from empty heap")

    def drain(self) -> Iterator[tuple[T, float]]:
        """Yield remaining entries in key order, consuming the heap."""
        while self:
            yield self.pop()

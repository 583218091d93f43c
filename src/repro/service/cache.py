"""Epoch-guarded result cache: one flat set-associative pair table.

Parallel numpy columns — packed pair key, distance, epoch stamp and
last-use tick, 32 bytes per entry, plus an ``int32`` hub (36 bytes) once
fine-grained eviction supplies hubs — organised as about ``capacity //
8`` sets of 8 ways; while ``capacity < 24`` there is a single set of
``capacity`` ways, which makes a small cache an exact LRU. A key hashes
to one set; a batch is probed, refreshed and filled with array
operations only, and ``service.distance()`` probes the same table
through a scalar path.

The contract is **a cache may forget, never lie**: a full set displaces
its least-recently-used way even when other sets have room, but a hit
always re-checks the full 64-bit key and ``epoch >= watermark``, so what
is served is the last value inserted under exactly that key at an epoch
the owner still vouches for. Invalidation has two modes:

* **global** (:meth:`EpochLRUCache.invalidate_all`) — O(1): a watermark
  is raised to the new epoch; stale entries are dropped when probed and
  are the first ways to be overwritten;
* **fine-grained** (:meth:`EpochLRUCache.evict_vertices`) — only entries
  with an endpoint (or cached hub) in the affected-vertex set are
  removed. A distance ``d(s, t)`` is a pure function of the two label
  arrays ``L_s`` and ``L_t``, so entries whose endpoints kept their
  labels stay exact across the update — this is what lets a serving
  cache survive localised traffic updates with its hit rate intact.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["CacheStats", "EpochLRUCache", "pair_key", "unpack_keys"]

_WAYS = 8
_LOW = 0xFFFFFFFF
# Set-hash multiplier, < 2**30: with 31-bit vertex ids the mix stays
# inside int64, so ints and arrays hash through one expression.
_MIX = 805_306_457
_HALVES = np.array([32, 0])


def _zeros(shape: tuple[int, int], dtype) -> np.ndarray:
    """A zeroed table column on its own private anonymous mapping.

    Its pages become resident when first written and go back to the
    system with the table; ``np.zeros`` hands out recycled heap memory
    it has to clear — the whole table resident from the first service
    on, in this process and in every child forked from it. Private
    (copy-on-write), so a forked child never writes into its parent's
    table.
    """
    size = shape[0] * shape[1] * np.dtype(dtype).itemsize
    buffer = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)


def pair_key(a, b):
    """Pack two vertex ids (ints or int64 arrays) as ``a << 32 | b``.

    The caller orders the halves (``min``/``max`` for an undirected
    backend). Key 0 — the self-pair ``(0, 0)``, which no one caches —
    marks an empty slot, so keys handed to the cache must be non-zero.
    """
    return a << 32 | b


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """The ``(u, 2)`` pair array behind a ``(u,)`` array of packed keys."""
    return keys[:, None] >> _HALVES & _LOW


@dataclass(frozen=True)
class CacheStats:
    hits: int
    misses: int
    size: int
    capacity: int
    lru_evictions: int
    invalidated: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __str__(self) -> str:
        return (
            f"{self.size}/{self.capacity} entries, "
            f"hit rate {self.hit_rate:.1%} "
            f"({self.hits} hits / {self.misses} misses), "
            f"{self.lru_evictions} LRU evictions, "
            f"{self.invalidated} invalidated"
        )


class EpochLRUCache:
    """Set-associative LRU table from packed vertex pairs to distances."""

    def __init__(self, capacity: int = 65_536):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        # An odd set count lets the modulus see every bit of the hash.
        self._sets = max(1, (capacity // _WAYS - 1) | 1)
        self._ways = capacity // self._sets
        # One row per set; slot ``set * ways + way`` in flat order;
        # ``sets * ways <= capacity`` slots bound the live entries. An
        # empty way has key 0 and tick 0.
        shape = (self._sets, self._ways)
        self._keys = _zeros(shape, np.int64)
        self._values = _zeros(shape, np.float64)
        self._epochs = _zeros(shape, np.int64)
        self._ticks = _zeros(shape, np.int64)
        # Allocated by the first insert that carries hubs.
        self._hubs: np.ndarray | None = None
        # Scratch of :meth:`insert`: which key of a batch a set takes next.
        self._owner = np.zeros(self._sets, dtype=np.int64)
        self._tick = 1
        self._watermark = 0
        self._hits = 0
        self._misses = 0
        # Entries ever stored / overwritten live by their own key. With
        # the LRU count and the occupied slots they give ``invalidated``
        # (see :meth:`stats`), so no hot path has to count it.
        self._stored = 0
        self._replaced = 0
        self._lru_evictions = 0

    def _set_of(self, keys):
        """Set index of each key (one expression for an int and an array)."""
        return ((keys >> 32) * _MIX ^ keys) % self._sets

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's slot and whether an entry (live or stale) is in it."""
        sets = self._set_of(keys)
        match = self._keys.take(sets, axis=0) == keys[:, None]
        slot = sets * self._ways + match.argmax(axis=1)
        return slot, self._keys.take(slot) == keys

    def _drop(self, slots) -> int:
        self._keys.put(slots, 0)
        self._ticks.put(slots, 0)
        return len(slots)

    # -- lookups --------------------------------------------------------
    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values, hit_mask)`` for a key batch (duplicates allowed).

        ``values`` is meaningful only where ``hit_mask`` is set. Hits
        are refreshed in batch order; probed stale entries are dropped.
        """
        slot, found = self._find(keys)
        live = found & (self._epochs.take(slot) >= self._watermark)
        hit = live.nonzero()[0]
        if len(hit) < np.count_nonzero(found):
            self._drop(slot[found & ~live])
        self._ticks.put(slot[hit], self._tick + hit)
        self._tick += len(keys)
        self._hits += len(hit)
        self._misses += len(keys) - len(hit)
        return self._values.take(slot), live

    def get(self, key: int) -> float | None:
        """Scalar probe of the same table: the distance, or ``None``."""
        row = self._set_of(key)
        try:
            way = self._keys[row].tolist().index(key)
        except ValueError:
            self._misses += 1
            return None
        if self._epochs[row, way] < self._watermark:
            self._drop([row * self._ways + way])
            self._misses += 1
            return None
        self._ticks[row, way] = self._tick
        self._tick += 1
        self._hits += 1
        return float(self._values[row, way])

    def insert(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        hubs: np.ndarray | None,
        epoch: int,
    ) -> None:
        """Store a batch of *distinct* keys, stamped with *epoch*.

        An entry already under a key is overwritten in place; then the
        new keys go in as if one by one in batch order, each taking an
        empty or stale way of its set before the least recently used
        live one. Of more new keys than ways for one set only ``ways``
        stay; a batch stamped below the watermark is stale on arrival
        and ignored.
        """
        ways, watermark = self._ways, self._watermark
        if epoch < watermark:
            return
        if hubs is not None and self._hubs is None:
            self._hubs = np.full(self._keys.shape, -1, dtype=np.int32)

        def store(slot, pick):
            self._stored += len(pick)
            self._keys.put(slot, keys[pick])
            self._values.put(slot, values[pick])
            self._epochs.put(slot, epoch)
            self._ticks.put(slot, self._tick + pick)
            if self._hubs is not None:
                self._hubs.put(slot, -1 if hubs is None else hubs[pick])

        slot, found = self._find(keys)
        todo = np.arange(len(keys))
        if found.any():  # replaced, not shadowed by a second copy
            held = slot[found]
            self._replaced += int(
                np.count_nonzero(self._epochs.take(held) >= watermark)
            )
            store(held, todo[found])
            todo = todo[~found]
        sets = slot // ways
        for _ in range(ways):  # a round places at most one key per set
            if not len(todo):
                break
            rows = sets[todo]
            self._owner[rows] = todo
            mine = self._owner[rows] == todo
            pick, rows, todo = todo[mine], rows[mine], todo[~mine]
            age = np.where(
                self._epochs.take(rows, axis=0) < watermark,
                0,
                self._ticks.take(rows, axis=0),
            )
            self._lru_evictions += int(np.count_nonzero(age.min(axis=1) > 0))
            store(rows * ways + age.argmin(axis=1), pick)
        self._tick += len(keys)

    def put(self, key: int, value: float, hub: int, epoch: int) -> None:
        """Scalar :meth:`insert`."""
        self.insert(
            np.array([key], dtype=np.int64),
            np.array([value], dtype=np.float64),
            None if hub < 0 else np.array([hub], dtype=np.int64),
            epoch,
        )

    # -- invalidation ---------------------------------------------------
    def invalidate_all(self, epoch: int) -> None:
        """Mark every entry older than *epoch* stale (lazy, O(1))."""
        if epoch > self._watermark:
            self._watermark = epoch

    def evict_vertices(self, affected: Iterable[int]) -> int:
        """Remove entries touching *affected* vertices; returns the count.

        An entry is removed when either endpoint or its cached hub lies
        in the set. The endpoint test alone is sufficient for
        correctness; the hub test additionally drops entries whose
        witnessing shortcut moved, keeping the policy aligned with
        ``MaintenanceStats.affected_shortcuts``.
        """
        affected = np.fromiter(affected, dtype=np.int64)
        if not len(affected):
            return 0
        used = np.flatnonzero(self._keys)
        keys = self._keys.take(used)
        doomed = np.isin(keys >> 32, affected) | np.isin(keys & _LOW, affected)
        if self._hubs is not None:
            doomed |= np.isin(self._hubs.take(used), affected)
        return self._drop(used[doomed])

    def clear(self) -> None:
        self._drop(np.flatnonzero(self._keys))

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        """Live entries (stale ones are dead weight awaiting overwrite)."""
        return int(
            np.count_nonzero((self._keys != 0) & (self._epochs >= self._watermark))
        )

    def __contains__(self, key: int) -> bool:
        slot, found = self._find(np.array([key], dtype=np.int64))
        return bool(found[0] and self._epochs.take(slot[0]) >= self._watermark)

    @property
    def watermark(self) -> int:
        return self._watermark

    def stats(self) -> CacheStats:
        # Every stored entry is still in its slot or left it exactly one
        # way: displaced while live (LRU), overwritten live by its own
        # key, or invalidated — dropped by a probe, an eviction or
        # ``clear``, or overwritten while stale.
        gone = self._stored - int(np.count_nonzero(self._keys))
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            size=len(self),
            capacity=self.capacity,
            lru_evictions=self._lru_evictions,
            invalidated=gone - self._lru_evictions - self._replaced,
        )

"""Epoch-guarded result cache: one flat set-associative pair table.

Parallel numpy columns — packed pair key, distance, epoch stamp and
last-use tick, 32 bytes per entry — organised as about ``capacity //
8`` sets of 8 ways; while ``capacity < 24`` there is a single set of
``capacity`` ways, which makes a small cache an exact LRU. A key hashes
to one set, ``((key >> 32) * 805306457 ^ key) % sets``. Probing and
filling are one C call each (``dhl_cache_probe`` / ``dhl_cache_fill``
through :mod:`repro.labelling.native.engine`, which checks the columns
once, when the table is made), for a batch and for a single pair
alike: the door's probe orders, packs, looks up and deduplicates a
whole pair batch in one pass. Clearing and the counters' reading stay
numpy.

The contract is **a cache may forget, never lie**: a full set displaces
its least-recently-used way even when other sets have room, but a hit
always re-checks the full 64-bit key and ``epoch >= watermark``, so what
is served is the last value inserted under exactly that key at an epoch
the owner still vouches for. Invalidation is
:meth:`EpochLRUCache.invalidate_all`, O(1): a watermark is raised to
the new epoch; stale entries are dropped when probed and are the first
ways to be overwritten.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from repro.labelling.native import engine as native_engine

__all__ = ["CacheStats", "EpochLRUCache", "pair_key", "unpack_keys"]

_WAYS = 8
_LOW = 0xFFFFFFFF
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
        sets = max(1, (capacity // _WAYS - 1) | 1)
        # One row per set; slot ``set * ways + way`` in flat order;
        # ``sets * ways <= capacity`` slots bound the live entries. An
        # empty way has key 0 and tick 0. The table's clock, watermark
        # and counters live in its header record, where the kernels
        # move them.
        shape = (sets, capacity // sets)
        self._table = native_engine.PairTable(
            _zeros(shape, np.int64),
            _zeros(shape, np.float64),
            _zeros(shape, np.int64),
            _zeros(shape, np.int64),
        )

    # -- lookups --------------------------------------------------------
    def probe_pairs(
        self, pairs: np.ndarray, directed: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The service door's probe of an ``(m, 2)`` pair batch.

        Returns ``(out, misses, positions, inverse)``: ``out`` holds 0.0
        for each self-pair and the cached distance for each hit; the
        ``(u, 2)`` *misses* are the distinct missed pairs, ordered
        ``(min, max)`` unless *directed*, in first-seen order, the keys
        :meth:`fill_pairs` takes; the caller writes ``out[positions] =
        answers[inverse]``. Self-pairs probe nothing; hits are refreshed
        in batch order and probed stale entries dropped.
        """
        return native_engine.cache_probe(
            self._table, native_engine.operand(pairs, np.int64), directed
        )

    def fill_pairs(self, pairs: np.ndarray, values: np.ndarray, epoch: int) -> None:
        """Store a batch of *distinct* ordered pairs, stamped with *epoch*.

        An entry already under a key is overwritten in place; then the
        new keys go in as if one by one from the last to the first, each
        taking an empty or stale way of its set before the least
        recently used live one. Of more new keys than ways for one set
        only the last ``ways`` in batch order stay; a batch stamped
        below the watermark is stale on arrival and ignored.
        """
        native_engine.cache_fill(
            self._table,
            native_engine.operand(pairs, np.int64),
            native_engine.operand(values, np.float64),
            epoch,
        )

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values, hit_mask)`` for a batch of packed keys (duplicates
        allowed): :meth:`probe_pairs` in key order. ``values`` is
        meaningful only where ``hit_mask`` is set; a self-pair key
        ``a << 32 | a`` answers 0.0 without a probe."""
        values, _, positions, _ = self.probe_pairs(unpack_keys(keys), True)
        hit = np.ones(len(keys), dtype=bool)
        hit[positions] = False
        return values, hit

    def get(self, key: int) -> float | None:
        """One-key :meth:`lookup`: the distance, or ``None``."""
        return native_engine.cache_get(self._table, key >> 32, key & _LOW)

    def insert(self, keys: np.ndarray, values: np.ndarray, epoch: int) -> None:
        """:meth:`fill_pairs` for a batch of distinct packed keys."""
        self.fill_pairs(unpack_keys(keys), values, epoch)

    def put(self, key: int, value: float, epoch: int) -> None:
        """One-key :meth:`insert`."""
        native_engine.cache_put(self._table, key >> 32, key & _LOW, value, epoch)

    # -- invalidation ---------------------------------------------------
    def invalidate_all(self, epoch: int) -> None:
        """Mark every entry older than *epoch* stale (lazy, O(1))."""
        if epoch > self.watermark:
            self._table.header["watermark"] = epoch

    def clear(self) -> None:
        used = np.flatnonzero(self._table.keys)
        self._table.keys.put(used, 0)
        self._table.ticks.put(used, 0)

    # -- introspection --------------------------------------------------
    def _live(self) -> np.ndarray:
        return (self._table.keys != 0) & (self._table.epochs >= self.watermark)

    def __len__(self) -> int:
        """Live entries (stale ones are dead weight awaiting overwrite)."""
        return int(np.count_nonzero(self._live()))

    def __contains__(self, key: int) -> bool:
        """Whether *key* is held live (a scan: counts and refreshes
        nothing)."""
        return bool((self._live() & (self._table.keys == key)).any())

    @property
    def watermark(self) -> int:
        return int(self._table.header["watermark"])

    def stats(self) -> CacheStats:
        # Every stored entry is still in its slot or left it exactly one
        # way: displaced while live (LRU), overwritten live by its own
        # key, or invalidated — dropped by a probe or ``clear``, or
        # overwritten while stale.
        header = self._table.header
        lru_evictions = int(header["lru_evictions"])
        gone = int(header["stored"]) - int(np.count_nonzero(self._table.keys))
        return CacheStats(
            hits=int(header["hits"]),
            misses=int(header["misses"]),
            size=len(self),
            capacity=self.capacity,
            lru_evictions=lru_evictions,
            invalidated=gone - lru_evictions - int(header["replaced"]),
        )

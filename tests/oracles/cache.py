"""The result cache's pair table in numpy: the oracle of its C kernels.

:func:`cache_probe`, :func:`cache_fill` and their one-pair forms
:func:`cache_get` / :func:`cache_put` take what the
:mod:`repro.labelling.native.engine` functions of those names take —
a :class:`~repro.labelling.native.engine.PairTable` (its columns and its
header record of clock, watermark and counters) — and leave the same
table, counters and answers. The bodies are the table's array
operations from before the kernels: ``_find`` (one ``take`` of each
key's set row), ``lookup`` (hits refreshed with one ``put``, stale
matches dropped), the door's self-pair mask, ``np.minimum`` /
``np.maximum``, key pack and ``np.unique`` (re-ranked here to
first-seen order, the kernel's), and ``insert``'s election rounds, each
placing one new key per set, the last in batch order first.
"""

from __future__ import annotations

import numpy as np

from repro.service.cache import pair_key, unpack_keys

__all__ = ["cache_fill", "cache_get", "cache_probe", "cache_put"]

# Set-hash multiplier, < 2**30: with 31-bit vertex ids the mix stays
# inside int64.
_MIX = 805_306_457


def _set_of(table, keys):
    return ((keys >> 32) * _MIX ^ keys) % int(table.header["sets"])


def _find(table, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's slot and whether an entry (live or stale) is in it."""
    sets = _set_of(table, keys)
    match = table.keys.take(sets, axis=0) == keys[:, None]
    slot = sets * table.keys.shape[1] + match.argmax(axis=1)
    return slot, table.keys.take(slot) == keys


def _drop(table, slots) -> None:
    table.keys.put(slots, 0)
    table.ticks.put(slots, 0)


def _lookup(table, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, hit_mask)`` for a key batch (duplicates allowed)."""
    header = table.header
    tick, watermark = int(header["tick"]), int(header["watermark"])
    slot, found = _find(table, keys)
    live = found & (table.epochs.take(slot) >= watermark)
    hit = live.nonzero()[0]
    if len(hit) < np.count_nonzero(found):
        _drop(table, slot[found & ~live])
    table.ticks.put(slot[hit], tick + hit)
    header["tick"] += len(keys)
    header["hits"] += len(hit)
    header["misses"] += len(keys) - len(hit)
    return table.values.take(slot), live


def cache_probe(table, pairs, directed):
    """The door's numpy steps: ``(out, misses, positions, inverse)``."""
    out = np.zeros(len(pairs), dtype=np.float64)
    s, t = pairs[:, 0], pairs[:, 1]
    probed = (s != t).nonzero()[0]  # self-pairs stay 0.0
    if not directed:
        s, t = np.minimum(s, t), np.maximum(s, t)
    keys = pair_key(s, t)[probed]
    values, hit = _lookup(table, keys)
    out[probed[hit]] = values[hit]
    positions = probed[~hit]
    keys, first, inverse = np.unique(
        keys[~hit], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return out, unpack_keys(keys[order]), positions, rank[inverse]


def cache_fill(table, pairs, values, epoch) -> None:
    """Store distinct ordered *pairs*: held keys in place, then election
    rounds of one new key per set."""
    header = table.header
    keys = pair_key(pairs[:, 0], pairs[:, 1])
    tick, watermark = int(header["tick"]), int(header["watermark"])
    ways = table.keys.shape[1]
    if epoch < watermark:
        return
    owner = np.zeros(table.keys.shape[0], dtype=np.int64)

    def store(slot, pick):
        header["stored"] += len(pick)
        table.keys.put(slot, keys[pick])
        table.values.put(slot, values[pick])
        table.epochs.put(slot, epoch)
        table.ticks.put(slot, tick + pick)

    slot, found = _find(table, keys)
    todo = np.arange(len(keys))
    if found.any():  # replaced, not shadowed by a second copy
        held = slot[found]
        header["replaced"] += int(
            np.count_nonzero(table.epochs.take(held) >= watermark)
        )
        store(held, todo[found])
        todo = todo[~found]
    sets = slot // ways
    for _ in range(ways):  # a round places at most one key per set
        if not len(todo):
            break
        rows = sets[todo]
        owner[rows] = todo
        mine = owner[rows] == todo
        pick, rows, todo = todo[mine], rows[mine], todo[~mine]
        age = np.where(
            table.epochs.take(rows, axis=0) < watermark,
            0,
            table.ticks.take(rows, axis=0),
        )
        header["lru_evictions"] += int(np.count_nonzero(age.min(axis=1) > 0))
        store(rows * ways + age.argmin(axis=1), pick)
    header["tick"] += len(keys)


def cache_get(table, lo, hi):
    """:func:`cache_probe` of one ordered pair: its distance or None."""
    out, misses, _, _ = cache_probe(table, np.array([[lo, hi]]), True)
    return None if len(misses) else float(out[0])


def cache_put(table, lo, hi, value, epoch) -> None:
    """:func:`cache_fill` of one ordered pair."""
    cache_fill(table, np.array([[lo, hi]]), np.array([value]), epoch)

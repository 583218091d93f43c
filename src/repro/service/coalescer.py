"""Update coalescing: fold a change stream into one maintenance batch.

Live traffic feeds produce redundant weight changes — the same road
segment re-reported every few seconds, congestion that clears before
anyone queried it. Applying each change individually pays the full
DHL+/DHL- propagation cost every time; coalescing folds the stream into
its *net effect* first:

* duplicate mentions of a road (by the index graph's ``road_key``,
  the key every fold of a batch uses) collapse to the final weight
  (last write wins), merging at submission time so the buffer never
  grows beyond the number of distinct touched roads;
* changes whose final weight equals the current graph weight are
  dropped as no-ops at flush time (raise-then-restore costs nothing);
* the surviving changes, raises and drops alike, form one mixed batch
  in first-mention order that runs through Algorithms 2-5 once: one
  shortcut sweep and one label sweep per plane.

The buffer also coalesces *structural* traffic (road closures,
construction) through a per-edge operation state machine:

* insert-then-delete cancels outright — the road never existed as far
  as the index is concerned;
* delete-then-restore folds to a plain weight change when the edge
  still exists at flush time;
* weight reports on a road queued for insertion fold into the
  insertion's weight.

Drained structural batches flow through the backend's ``apply_batch``
(insert/delete fast paths, fallback rebuilds) instead of the pure
weight-maintenance kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.graph.graph import Graph
from repro.labelling.maintenance import WeightChange

__all__ = ["CoalescerStats", "CoalescedBatch", "UpdateCoalescer"]

EdgeKey = tuple[int, int]

# Per-edge pending operations: the op tag orders the state machine.
_WEIGHT = "weight"
_INSERT = "insert"
_DELETE = "delete"


@dataclass(frozen=True)
class CoalescerStats:
    submitted: int
    merged_duplicates: int
    noops_dropped: int
    flushes: int
    #: insert-then-delete pairs that annihilated before ever flushing.
    cancelled_pairs: int = 0
    #: structural submissions (inserts + deletes) accepted.
    structural_submitted: int = 0

    def __str__(self) -> str:
        return (
            f"{self.submitted} submitted, "
            f"{self.merged_duplicates} duplicates merged, "
            f"{self.noops_dropped} no-ops dropped, "
            f"{self.cancelled_pairs} insert/delete pairs cancelled, "
            f"{self.flushes} flushes"
        )


@dataclass
class CoalescedBatch:
    """Net effect of a drained buffer against a concrete graph state."""

    #: Weight changes on existing roads, raises and drops alike, in
    #: first-mention order: one mixed maintenance batch.
    changes: list[WeightChange] = field(default_factory=list)
    insertions: list[WeightChange] = field(default_factory=list)
    deletions: list[EdgeKey] = field(default_factory=list)
    noops: int = 0

    @property
    def size(self) -> int:
        return len(self.changes) + len(self.insertions) + len(self.deletions)

    @property
    def is_structural(self) -> bool:
        """True when the batch needs the structural ``apply_batch`` path."""
        return bool(self.insertions or self.deletions)


class UpdateCoalescer:
    """Streaming buffer of weight and structural changes, merged per
    road as *road_key* (the index's ``graph.road_key``) names it."""

    __slots__ = (
        "_key",
        "_pending",
        "_submitted",
        "_merged",
        "_flushes",
        "_noops",
        "_cancelled",
        "_structural",
    )

    def __init__(self, road_key: Callable[[int, int], EdgeKey]) -> None:
        self._key = road_key
        self._pending: dict[EdgeKey, tuple[str, float | None]] = {}
        self._submitted = 0
        self._merged = 0
        self._flushes = 0
        self._noops = 0
        self._cancelled = 0
        self._structural = 0

    # -- intake ---------------------------------------------------------
    def add(self, u: int, v: int, weight: float) -> None:
        """Buffer a weight report for edge ``(u, v)``.

        On a road queued for insertion the report folds into the
        insertion's weight; on one queued for deletion it acts as a
        restore, folding the delete back into a plain weight change.
        """
        key = self._key(u, v)
        self._submitted += 1
        prior = self._pending.get(key)
        if prior is not None:
            self._merged += 1
            if prior[0] == _INSERT:
                self._pending[key] = (_INSERT, float(weight))
                return
        self._pending[key] = (_WEIGHT, float(weight))

    def add_insert(self, u: int, v: int, weight: float) -> None:
        """Buffer a road insertion (new-link construction).

        Inserting over a queued deletion folds to a weight change — the
        edge still exists until the deletion flushes, so the net effect
        is its new weight. Whether a drained entry really is an
        insertion is decided against the graph at flush time.
        """
        key = self._key(u, v)
        self._submitted += 1
        self._structural += 1
        prior = self._pending.get(key)
        if prior is not None:
            self._merged += 1
            if prior[0] == _DELETE:
                self._pending[key] = (_WEIGHT, float(weight))
                return
        self._pending[key] = (_INSERT, float(weight))

    def add_delete(self, u: int, v: int) -> None:
        """Buffer a road deletion (closure).

        Deleting a road queued for insertion cancels both — neither ever
        reaches the index.
        """
        key = self._key(u, v)
        self._submitted += 1
        self._structural += 1
        prior = self._pending.get(key)
        if prior is not None:
            self._merged += 1
            if prior[0] == _INSERT:
                del self._pending[key]
                self._cancelled += 1
                return
        self._pending[key] = (_DELETE, None)

    # -- drain ----------------------------------------------------------
    def drain(self, graph: Graph) -> CoalescedBatch:
        """Empty the buffer into its net batch against *graph*'s weights."""
        batch = CoalescedBatch()
        for (u, v), (op, w) in self._pending.items():
            if op == _DELETE:
                batch.deletions.append((u, v))
            elif not graph.has_edge(u, v):
                # A report on a compacted-away road restores it through
                # the insertion path; closing it changes nothing.
                if w < math.inf:
                    batch.insertions.append((u, v, w))
                else:
                    batch.noops += 1
            elif w == graph.weight(u, v):
                batch.noops += 1
            else:
                batch.changes.append((u, v, w))
        self._pending.clear()
        self._noops += batch.noops
        self._flushes += 1
        return batch

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    @property
    def pending_edges(self) -> int:
        return len(self._pending)

    def stats(self) -> CoalescerStats:
        return CoalescerStats(
            submitted=self._submitted,
            merged_duplicates=self._merged,
            noops_dropped=self._noops,
            flushes=self._flushes,
            cancelled_pairs=self._cancelled,
            structural_submitted=self._structural,
        )

"""The structural contract every distance backend satisfies.

The serving stack (``repro.service``) was historically duck-typed: the
runtime layer probed indexes with ``getattr`` and the service accepted
"anything index-shaped". :class:`DistanceBackend` makes that contract
explicit — one :class:`typing.Protocol` that the two monolithic
families (:class:`~repro.core.index.DHLIndex` and
:class:`~repro.core.directed.DirectedDHLIndex`, one
:class:`~repro.core.index.IndexCore` over a one- or two-plane shortcut
store) and :class:`~repro.core.sharded.ShardedDHLIndex` satisfy, and
that the execution runtimes and
:class:`~repro.service.service.DistanceService` are typed against. A
future backend (e.g. Stable Tree Labelling behind the same facade) plugs
into every runtime — in-process, shared-memory workers, socket replicas
— by satisfying this Protocol alone.

The surface, by concern:

* **query** — :meth:`~DistanceBackend.distance` (single pair) and
  :meth:`~DistanceBackend.distances` (batch);
* **update** — :meth:`~DistanceBackend.update` applies one
  weight-change batch: every triple is checked by
  :func:`repro.utils.pairs.weight_changes` and the batch folded to the
  last mention of each road
  (:func:`repro.labelling.driver.validate_batch`), all before the first
  write — a rejected batch leaves graph, labels and epoch untouched;
* **epoch** — a monotone counter bumped once per applied batch; the
  result cache and the worker epoch-broadcast protocol key on it;
* **affected surface** — every update returns a
  :class:`~repro.labelling.maintenance.MaintenanceStats` whose
  ``affected_labels`` drive the shard clique refresh and the
  delta-sync path (only changed label slots ship to workers);
* **graph** — the authoritative weighted graph the update coalescer
  drains against (``weight(u, v)`` / ``has_edge(u, v)``) and keys its
  buffer with (``road_key(u, v)``, the name every fold of a batch
  uses).

**Threads.** Queries may overlap each other on one backend. No query
may overlap :meth:`~DistanceBackend.update` (nor ``apply_batch``,
``compact`` or a load) on the same backend: nothing excludes them, and
an overlapping batch can mix answers from two epochs.
:class:`~repro.service.service.DistanceService` is single-threaded.

``runtime_checkable`` makes ``isinstance(x, DistanceBackend)`` a cheap
structural probe (attribute presence only — signatures are enforced by
the type checker, behaviour by the differential test suites).
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.labelling.maintenance import MaintenanceStats, WeightChange

__all__ = ["DistanceBackend", "WeightChange"]


@runtime_checkable
class DistanceBackend(Protocol):
    """Structural type of an index the serving stack can execute against."""

    #: Human-readable backend family (``monolithic`` / ``directed`` /
    #: ``sharded``), surfaced in stats and bench artifacts.
    kind: str

    @property
    def epoch(self) -> int:
        """Monotone maintenance epoch: +1 per applied update batch."""
        ...

    @property
    def graph(self):
        """The authoritative weighted graph (``weight``, ``has_edge``,
        ``road_key``)."""
        ...

    # -- query ----------------------------------------------------------
    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance (``inf`` when disconnected)."""
        ...

    def distances(self, pairs) -> np.ndarray:
        """Batch distances for ``(s, t)`` pairs.

        *pairs* is an ``(m, 2)`` integer array — what the serving stack
        hands down, taken without a copy when it is ``int64`` — or any
        iterable of ``(s, t)`` pairs, which
        :func:`repro.utils.pairs.as_pair_array` writes into such an
        array once. Ids are trusted here:
        :class:`~repro.service.service.DistanceService` checks them at
        the door.
        """
        ...

    # -- update ---------------------------------------------------------
    def update(
        self, changes: Iterable[WeightChange], workers: int | None = None
    ) -> MaintenanceStats:
        """Apply one weight-change batch; returns the affected surface.

        A road named more than once ends at its last mention's weight.
        ``workers`` selected the removed thread-column maintenance
        variant and is now accepted and ignored, here and on
        ``ExecutionRuntime.apply_update``, only because the frozen bench
        proxies (``bench/trace.py``) still forward it positionally; the
        next benchmark PR drops it.
        """
        ...

    # -- introspection --------------------------------------------------
    def stats(self):
        """Size/build snapshot (backend-specific stats object)."""
        ...

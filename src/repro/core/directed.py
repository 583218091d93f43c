"""Directed road networks — the Section 8 extension.

The paper sketches the directed case: keep one pair of hierarchies and
store *forward and reverse labels* per vertex, maintaining each with the
same algorithms. Here that is literal: :class:`DirectedDHLIndex` is the
one index core (:class:`~repro.core.index.IndexCore` — build, queries,
maintenance, structural batches, compaction, snapshots, ``verify()``)
over a shortcut store with two weight planes. What this module adds is
only what genuinely differs:

* the **structural skeleton** (which pairs are shortcuts) is the
  symmetrised graph (:meth:`DiGraph.to_undirected`) — structure is
  weight-independent, so one skeleton serves both directions, is what
  gets partitioned and is what the shared symbolic elimination
  contracts;
* every shortcut pair ``(v, u)`` with ``v`` deeper carries two weights,
  one per **weight plane** of :class:`DirectedUpdateHierarchy`'s single
  buffer: plane 0 (``out_weights``) for the ascending arc ``v -> u``,
  plane 1 (``in_weights``) for the descending arc ``u -> v``, filled by
  the same Algorithm 2 sweep from an empty store as the undirected
  build;
* the core's two labellings are Algorithm 1 once per plane:
  ``L_out[v][i]`` = distance ``v -> ancestor_i`` and ``L_in[v][i]`` =
  distance ``ancestor_i -> v`` within the interval subgraph;
* a query is ``d(s, t) = min_i L_out[s][i] + L_in[t][i]`` over the common
  ancestors — the directed 2-hop cover (the minimum-rank vertex of a
  directed shortest path is a common ancestor, and both label entries are
  exact within its descendant subgraph), which is the core's two-sided
  :class:`~repro.labelling.query.QueryEngine` with ``(L_out, L_in)``;
* maintenance is the shared driver's: a triangle through a deeper vertex
  composes one descending and one ascending weight, which the engines'
  shortcut sweeps express as "second leg from the opposite plane"; the
  label phase then runs once per plane.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.config import DHLConfig
from repro.core.index import IndexCore
from repro.core.stats import IndexStats
from repro.graph.digraph import DiGraph
from repro.hierarchy.csr import ShortcutCSR
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.labels import HierarchicalLabelling

__all__ = ["DirectedDHLIndex", "DirectedUpdateHierarchy"]


class _Plane(NamedTuple):
    """One weight plane, shaped like a one-plane store (the label
    kernels themselves take the store and a plane index)."""

    tau: np.ndarray
    csr: ShortcutCSR
    up_weights: np.ndarray


class DirectedUpdateHierarchy(UpdateHierarchy):
    """H_U of a digraph: the shared skeleton with two weight planes.

    Plane 0 weighs each shortcut's arc deeper -> shallower, plane 1 the
    arc shallower -> deeper. The planes are halves of one ``up_weights``
    buffer and every view of them is derived on demand, never stored —
    a stored numpy view would come back from a pickle as a detached
    copy and maintenance would write into a dead buffer.
    """

    planes = 2

    __slots__ = ()

    skeleton = staticmethod(DiGraph.to_undirected)

    def plane_views(self) -> tuple[_Plane, _Plane]:
        m = self.csr.num_slots
        return (
            _Plane(self.tau, self.csr, self.up_weights[:m]),
            _Plane(self.tau, self.csr, self.up_weights[m:]),
        )


class DirectedDHLIndex(IndexCore):
    """DHL index over a directed graph with forward and reverse labels."""

    kind = "directed"
    _hierarchy = DirectedUpdateHierarchy

    def __init__(
        self,
        digraph: DiGraph,
        hq: QueryHierarchy,
        hu: DirectedUpdateHierarchy,
        labels_out: HierarchicalLabelling,
        labels_in: HierarchicalLabelling,
        config: DHLConfig,
        stats: IndexStats,
    ):
        super().__init__(digraph, hq, hu, (labels_out, labels_in), config, stats)

    @property
    def digraph(self) -> DiGraph:
        """The authoritative weighted digraph (``graph`` under the name
        this family's callers know)."""
        return self.graph

    @property
    def labels_out(self) -> HierarchicalLabelling:
        """``L_out[v][i]``: distance ``v -> ancestor_i`` (plane 0)."""
        return self.labellings[0]

    @property
    def labels_in(self) -> HierarchicalLabelling:
        """``L_in[v][i]``: distance ``ancestor_i -> v`` (plane 1)."""
        return self.labellings[1]

    @property
    def out_weights(self) -> np.ndarray:
        """Plane 0 of the shortcut store: arcs deeper -> shallower."""
        return self.hu.plane_views()[0].up_weights

    @property
    def in_weights(self) -> np.ndarray:
        """Plane 1 of the shortcut store: arcs shallower -> deeper."""
        return self.hu.plane_views()[1].up_weights

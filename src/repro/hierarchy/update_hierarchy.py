"""Update hierarchy H_U (Definitions 4.5/4.6).

H_U is the weight-independent shortcut graph obtained by contracting
vertices in decreasing ``tau`` order (deepest first), so that every
shortcut joins two ⪯_H-comparable vertices (Lemma 4.8) and

* ``N+(v)`` (``up``) are v's shortcut partners that are *ancestors*
  (smaller ``tau``, contracted later),
* ``N-(v)`` (``down``) are descendant partners (larger ``tau``).

Structural stability (U1) holds by construction: weight updates never add
or remove shortcuts, they only change stored weights, which the dynamic
algorithms keep consistent with the minimum-weight property (3.1).

A build is the contraction engine's two passes
(:mod:`repro.hierarchy.contraction`): symbolic elimination of the
store's :meth:`~UpdateHierarchy.skeleton` gives the structure, then
Algorithm 2 from an empty store fills every weight plane with the C
shortcut sweep — the same relaxation that maintains it.

The shortcut store itself is the flat CSR layout inherited from
:class:`~repro.hierarchy.contraction.ContractionResult` — the update
hierarchy *shares* the base result's arrays (no rebuild) and adds the
``tau`` rank array the label algorithms key their frontiers on.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import HierarchyError
from repro.graph.graph import Graph
from repro.hierarchy.contraction import ContractionResult, unweighted_store, weighed
from repro.hierarchy.query_hierarchy import QueryHierarchy

__all__ = ["UpdateHierarchy"]


class UpdateHierarchy(ContractionResult):
    """Shortcut graph of G w.r.t. the partial order induced by H_Q.

    Inherits the CSR shortcut store from :class:`ContractionResult`;
    adds the rank array ``tau`` (int64, shared with H_Q) and the link
    back to the query hierarchy. Note the reversed rank convention:
    ancestors have *small* ``tau`` but *large* contraction rank (they
    are contracted last).
    """

    __slots__ = ("tau", "hq")

    def __init__(self, base: ContractionResult, hq: QueryHierarchy):
        # Adopt the base result's storage wholesale — the CSR arrays are
        # the source of truth and must not be copied or rebuilt.
        self.graph = base.graph
        self._record = None
        self.rebind(base.csr, base.up_weights)
        self.tau = np.asarray(hq.tau, dtype=np.int64)
        self.hq = hq

    @classmethod
    def build(cls, graph, hq: QueryHierarchy) -> "UpdateHierarchy":
        """Contract *graph* in decreasing ``tau`` order (deepest first),
        its weights filled by Algorithm 2."""
        base = unweighted_store(
            graph, cls.skeleton(graph), hq.contraction_order(), cls.planes
        )
        return weighed(cls(base, hq))

    @staticmethod
    def skeleton(graph: Graph) -> Graph:
        """The undirected graph whose elimination is the structure and
        whose separators order the hierarchy: here the graph itself."""
        return graph

    def validate_comparability(self) -> None:
        """Check Lemma 4.8: every shortcut joins comparable vertices.

        With a valid separator tree this holds automatically; the check
        exists for tests and for diagnosing bad partition trees.
        """
        csr = self.csr
        bad = np.flatnonzero(~self.hq.precedes(csr.indices, csr.owners))
        if len(bad):
            v, u = int(csr.owners[bad[0]]), int(csr.indices[bad[0]])
            raise HierarchyError(
                f"shortcut ({v}, {u}) joins incomparable vertices "
                f"(tau {self.tau[v]}, {self.tau[u]})"
            )

    def max_up_degree(self) -> int:
        """Paper's ``d_max`` (maximum shortcut degree towards ancestors)."""
        degrees = np.diff(self.csr.indptr)
        return int(degrees.max()) if len(degrees) else 0

    def degree_stats(self) -> dict[str, float]:
        """Summary of shortcut degrees, for the experiment reports."""
        ups = np.diff(self.csr.indptr)
        downs = np.diff(self.csr.down_indptr)
        return {
            "max_up": int(ups.max(initial=0)),
            "mean_up": float(ups.mean()) if len(ups) else 0.0,
            "max_down": int(downs.max(initial=0)),
            "mean_down": float(downs.mean()) if len(downs) else 0.0,
            "shortcuts": int(self.num_shortcuts),
        }

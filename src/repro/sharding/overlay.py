"""Boundary overlay: the small graph that stitches region shards together.

The overlay's vertices are the boundary vertices of every region (cut
edge endpoints, renumbered compactly). Its edges are

* the **cut edges** themselves, at their original weights, and
* per region, a **clique** over that region's boundary vertices whose
  edge weights are intra-shard boundary-to-boundary distances (answered
  by the shard's own label store).

Any shortest path decomposes into maximal within-region segments joined
by cut edges; each segment runs between boundary vertices of one region
and is no shorter than that region's shard distance — exactly the
clique edge weight. Overlay distances between boundary vertices
therefore equal true graph distances, which is what the shard-routed
query kernel combines with source/target-to-boundary fans.

Unreachable intra-region pairs keep their clique edge as a *logically
deleted* (infinite-weight) slot: maintenance only ever changes weights,
so a later decrease can resurrect the connection without rebuilding.
Compaction therefore leaves the overlay alone (see
:meth:`~repro.core.sharded.ShardedDHLIndex.compact`).

The sharded index holds each region's clique as a dense
``|B_i| x |B_i|`` weight matrix (:func:`clique_weights`), equal cell for
cell to the overlay graph's clique edge weights. A shard maintenance
pass refreshes it against the recomputed rows of its touched boundary
vertices (:func:`clique_refresh_changes`), so finding the moved clique
edges is one vectorised comparison, not a graph lookup per pair.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.graph import Graph
from repro.labelling.maintenance import WeightChange

__all__ = ["build_overlay_graph", "clique_refresh_changes", "clique_weights"]


def _add_overlay_edge(overlay: Graph, a: int, b: int, w: float) -> None:
    """Insert edge ``(a, b)``; infinite weights become deleted slots."""
    if math.isfinite(w):
        overlay.add_edge(a, b, w)
    else:
        overlay.add_edge(a, b, 0.0)
        overlay.set_weight(a, b, w)


def clique_weights(shard, boundary_local: np.ndarray) -> np.ndarray:
    """Intra-shard distances between every pair of one region's boundary
    vertices: one set-kernel matrix over the shard's flat label store,
    indexed like *boundary_local* (zero diagonal, symmetric)."""
    return shard.engine.distance_matrix(boundary_local, boundary_local)


def build_overlay_graph(
    cliques: list[np.ndarray],
    boundary_overlay: list[np.ndarray],
    cut_edges: list[tuple[int, int, float]],
    overlay_of: np.ndarray,
    num_overlay_vertices: int,
) -> Graph:
    """Assemble the boundary overlay graph.

    ``cliques[i]`` is region *i*'s :func:`clique_weights` matrix and
    ``boundary_overlay[i]`` its boundary vertices as overlay ids (aligned
    with the matrix rows); ``overlay_of`` maps global vertex ids to
    overlay ids (-1 when not a boundary vertex).
    """
    overlay = Graph(num_overlay_vertices)
    for u, v, w in cut_edges:
        _add_overlay_edge(overlay, int(overlay_of[u]), int(overlay_of[v]), w)
    for matrix, overlays in zip(cliques, boundary_overlay):
        iu, iv = np.triu_indices(len(overlays), k=1)
        for a, b, w in zip(
            overlays[iu].tolist(), overlays[iv].tolist(), matrix[iu, iv].tolist()
        ):
            # Cut edges never coincide with clique pairs (their endpoints
            # lie in different regions), so every insert is fresh.
            _add_overlay_edge(overlay, a, b, w)
    return overlay


def clique_refresh_changes(
    shard,
    boundary_local: np.ndarray,
    boundary_overlay: np.ndarray,
    held: np.ndarray,
    affected_local: set[int],
) -> list[WeightChange]:
    """Clique edges whose weight moved after a shard maintenance pass.

    A boundary-to-boundary distance ``d(a, b)`` is a pure function of
    the two labels ``L_a`` and ``L_b``, so only pairs with at least one
    endpoint in the pass's ``affected_labels`` can have changed — rows
    whose labels are untouched are skipped without recomputation: an
    ``isin`` membership test marks the touched rows and one set-kernel
    call answers touched-against-all. One comparison against the held
    clique matrix *held* (:func:`clique_weights`, kept equal to the
    overlay's clique weights) finds the moved cells; only those are
    written back (both triangles) and returned as ``(a, b, w)`` overlay
    changes, deduplicated and ordered by their ``(lo, hi)`` row pair.
    """
    count = len(boundary_local)
    if count < 2 or not affected_local:
        return []
    affected = np.fromiter(affected_local, np.int64, len(affected_local))
    touched = np.flatnonzero(np.isin(boundary_local, affected))
    if not len(touched):
        return []
    rows = shard.engine.distance_matrix(boundary_local[touched], boundary_local)
    row, col = np.nonzero(rows != held[touched])
    if not len(row):
        return []
    lo, hi = np.minimum(touched[row], col), np.maximum(touched[row], col)
    _, first = np.unique(lo * count + hi, return_index=True)
    lo, hi, w = lo[first], hi[first], rows[row[first], col[first]]
    held[lo, hi] = w
    held[hi, lo] = w
    return list(
        zip(boundary_overlay[lo].tolist(), boundary_overlay[hi].tolist(), w.tolist())
    )

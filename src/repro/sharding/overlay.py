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
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.graph import Graph

__all__ = ["build_overlay_graph", "clique_refresh_changes"]

OverlayChange = tuple[int, int, float]


def _add_overlay_edge(overlay: Graph, a: int, b: int, w: float) -> None:
    """Insert edge ``(a, b)``; infinite weights become deleted slots."""
    if math.isfinite(w):
        overlay.add_edge(a, b, w)
    else:
        overlay.add_edge(a, b, 0.0)
        overlay.set_weight(a, b, w)


def clique_weights(
    shard, boundary_local: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intra-shard distances over one region's boundary pairs.

    Returns ``(iu, iv, d)``: index pairs into *boundary_local* (upper
    triangle) and their shard distances, read off one set-kernel matrix
    over the shard's flat label store.
    """
    iu, iv = np.triu_indices(len(boundary_local), k=1)
    matrix = shard.engine.distance_matrix(boundary_local, boundary_local)
    return iu, iv, matrix[iu, iv]


def build_overlay_graph(
    shards: list,
    boundary_local: list[np.ndarray],
    boundary_overlay: list[np.ndarray],
    cut_edges: list[tuple[int, int, float]],
    overlay_of: np.ndarray,
    num_overlay_vertices: int,
) -> Graph:
    """Assemble the boundary overlay graph.

    ``boundary_local[i]`` / ``boundary_overlay[i]`` are region *i*'s
    boundary vertices as shard-local and overlay ids (aligned);
    ``overlay_of`` maps global vertex ids to overlay ids (-1 when not a
    boundary vertex).
    """
    overlay = Graph(num_overlay_vertices)
    for u, v, w in cut_edges:
        _add_overlay_edge(overlay, int(overlay_of[u]), int(overlay_of[v]), w)
    for shard, locals_, overlays in zip(shards, boundary_local, boundary_overlay):
        iu, iv, d = clique_weights(shard, locals_)
        for a, b, w in zip(overlays[iu], overlays[iv], d):
            # Cut edges never coincide with clique pairs (their endpoints
            # lie in different regions), so every insert is fresh.
            _add_overlay_edge(overlay, int(a), int(b), float(w))
    return overlay


def clique_refresh_changes(
    shard,
    boundary_local: np.ndarray,
    boundary_overlay: np.ndarray,
    overlay_graph: Graph,
    affected_local: set[int],
) -> list[OverlayChange]:
    """Clique edges whose weight moved after a shard maintenance pass.

    A boundary-to-boundary distance ``d(a, b)`` is a pure function of
    the two labels ``L_a`` and ``L_b``, so only pairs with at least one
    endpoint in the pass's ``affected_labels`` can have changed — rows
    whose labels are untouched are skipped without recomputation: an
    ``isin`` membership test marks the touched rows, one set-kernel call
    answers touched-against-all, and the pair set canonicalises and
    deduplicates through one key ``unique``.
    """
    count = len(boundary_local)
    if count < 2 or not affected_local:
        return []
    affected = np.fromiter(affected_local, np.int64, len(affected_local))
    touched = np.nonzero(np.isin(boundary_local, affected))[0]
    if not len(touched):
        return []
    matrix = shard.engine.distance_matrix(boundary_local[touched], boundary_local)
    others = np.arange(count, dtype=np.int64)
    lo = np.minimum(touched[:, None], others)
    hi = np.maximum(touched[:, None], others)
    off_diagonal = lo != hi
    keys, first = np.unique((lo * count + hi)[off_diagonal], return_index=True)
    ia, ib = keys // count, keys % count
    d = matrix[off_diagonal][first]
    changes: list[OverlayChange] = []
    for ov_a, ov_b, w in zip(
        boundary_overlay[ia].tolist(), boundary_overlay[ib].tolist(), d.tolist()
    ):
        if overlay_graph.weight(ov_a, ov_b) != w:
            changes.append((ov_a, ov_b, w))
    return changes

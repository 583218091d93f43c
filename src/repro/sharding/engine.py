"""Shard-routed query kernel for the sharded index.

Batch pairs are grouped by ``(source region, target region)``:

* **intra-shard** groups go straight to the owning shard's zero-copy
  flat-store kernel;
* **every** group additionally considers the boundary route — the
  min-plus combine ``min over (b1, b2)`` of
  ``d_shard(s, b1) + d_overlay(b1, b2) + d_shard(b2, t)`` — because a
  shortest path may leave and re-enter a region.

Every matrix the boundary route needs is one call of the shards' (or
the overlay's) set-to-set kernel
:meth:`~repro.labelling.query.QueryEngine.distance_matrix` against a
fixed boundary set: the source/target fans (duplicated endpoints
answered once; one call for both sides of an intra-shard group) and the
all-boundary overlay matrix, computed once per overlay maintenance
epoch and sliced into per-region-pair blocks. Both the set kernel and
the combine (:func:`min_plus_compact`) follow the shard engine's
resolved name: one C loop each under ``compiled``, numpy otherwise,
with the same bits either way.

For cross-region pairs the intra-shard term is skipped (no such path
exists); for regions without boundary vertices (k = 1, or an isolated
region) the boundary route is skipped.
"""

from __future__ import annotations

import numpy as np

from repro.labelling.native import engine as native_engine
from repro.utils.pairs import as_pair_array, check_ids

__all__ = [
    "ShardedQueryEngine",
    "boundary_fan",
    "boundary_fans",
    "min_plus_compact",
    "region_pair_groups",
]

# Cap for the (pairs x |B_i| x |B_j|) min-plus intermediate, in cells.
_MIN_PLUS_CELLS = 4_000_000


def region_pair_groups(rs: np.ndarray, rt: np.ndarray, k: int):
    """Yield ``(idx, i, j)`` position groups by (source, target) region.

    The canonical batch split shared by the in-process engine and the
    worker-pool scheduler: positions are grouped with one stable
    argsort over the composite key, so each group is answered in a few
    vectorised strokes (or becomes one worker sub-batch).
    """
    key = rs * k + rt
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    bounds = np.r_[starts, len(sorted_key)]
    for g in range(len(starts)):
        idx = order[bounds[g] : bounds[g + 1]]
        yield idx, int(rs[idx[0]]), int(rt[idx[0]])


def boundary_fan(engine, sources_local: np.ndarray, boundary_local: np.ndarray):
    """Shard distances to the boundary set: ``(unique_matrix, inverse)``.

    ``engine`` is a shard's :class:`~repro.labelling.query.QueryEngine`
    (shard-local ids). Duplicate sources (hot endpoints, k-nearest fans)
    collapse to one matrix row each; row ``inverse[p]`` answers source
    ``p``. The deduplicated form is what shard worker processes ship
    over the pipe (bytes scale with unique endpoints, not raw pair
    count) and what :func:`min_plus_compact` consumes. Module-level so
    workers can compute fans next to the label buffers.
    """
    uniq, inverse = np.unique(sources_local, return_inverse=True)
    return engine.distance_matrix(uniq, boundary_local), inverse


def boundary_fans(
    engine, s_local: np.ndarray, t_local: np.ndarray, boundary_local: np.ndarray
):
    """Both fans of an intra-shard group from one kernel call.

    Sources and targets face the same boundary, so one matrix over
    ``unique(s ∪ t)`` holds every row; each side keeps only its own
    rows (the combine's first hop runs per source row). Returns
    ``(ds, ds_inverse), (dt, dt_inverse)`` as two :func:`boundary_fan`
    calls would.
    """
    matrix, inverse = boundary_fan(
        engine, np.concatenate((s_local, t_local)), boundary_local
    )
    src_rows, ds_inverse = np.unique(inverse[: len(s_local)], return_inverse=True)
    dst_rows, dt_inverse = np.unique(inverse[len(s_local) :], return_inverse=True)
    return (matrix[src_rows], ds_inverse), (matrix[dst_rows], dt_inverse)


def min_plus_compact(
    ds: np.ndarray,
    ds_inverse: np.ndarray,
    block: np.ndarray,
    dt: np.ndarray,
    dt_inverse: np.ndarray,
    engine: str = "reference",
) -> np.ndarray:
    """Pair-wise ``min_{a,b} ds[p,a] + block[a,b] + dt[p,b]`` over
    deduplicated fans.

    The boundary-route combine: ``ds``/``dt`` are :func:`boundary_fan`
    matrices with their inverse maps, ``block`` the overlay
    boundary-to-boundary matrix. The expensive first hop —
    ``min_a ds[u, a] + block[a, b]`` — runs once per *unique* source
    instead of once per pair, then the cheap second hop gathers through
    the inverse maps. *engine* is the resolved name of the shard
    engine that made the fans: ``"compiled"`` runs both hops in one C
    loop (:func:`repro.labelling.native.engine.min_plus`, the same bits);
    otherwise numpy, chunked so the 3-D intermediate stays bounded
    regardless of batch size.
    """
    if engine == "compiled":
        operand = native_engine.operand
        return native_engine.min_plus(
            operand(ds, np.float64),
            operand(ds_inverse, np.int64),
            operand(block, np.float64),
            operand(dt, np.float64),
            operand(dt_inverse, np.int64),
        )
    unique_count, width_a = ds.shape
    width_b = dt.shape[1]
    tmp = np.empty((unique_count, width_b), dtype=np.float64)
    chunk = max(1, _MIN_PLUS_CELLS // max(1, width_a * width_b))
    for lo in range(0, unique_count, chunk):
        hi = min(lo + chunk, unique_count)
        tmp[lo:hi] = (ds[lo:hi, :, None] + block[None, :, :]).min(axis=1)
    count = len(ds_inverse)
    out = np.empty(count, dtype=np.float64)
    chunk = max(1, _MIN_PLUS_CELLS // max(1, width_b))
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        out[lo:hi] = (tmp[ds_inverse[lo:hi]] + dt[dt_inverse[lo:hi]]).min(axis=1)
    return out


class ShardedQueryEngine:
    """Distance oracle routing between region shards and the overlay."""

    def __init__(self, owner):
        # ``owner`` is the ShardedDHLIndex; the engine reads its shard
        # list, overlay index and id-mapping arrays but owns no state
        # beyond the cached overlay matrix: ``(epoch, matrix, bounds)``,
        # swapped whole.
        self.owner = owner
        self._overlay_matrix: tuple[int, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # overlay boundary-to-boundary blocks
    # ------------------------------------------------------------------
    def overlay_block(self, i: int, j: int) -> np.ndarray:
        """``(|B_i|, |B_j|)`` overlay distances, a view of one matrix.

        The all-boundary overlay matrix is computed by one set-kernel
        call per overlay epoch, its rows and columns ordered region by
        region so every block is a plain slice. Public because the
        worker-pool runtime runs the same min-plus combine in the parent
        over worker-computed fans.
        """
        owner = self.owner
        overlay = owner.overlay
        cached = self._overlay_matrix
        if cached is None or cached[0] != overlay.epoch:
            order = np.concatenate(owner.boundary_overlay)
            bounds = np.zeros(owner.k + 1, dtype=np.int64)
            np.cumsum([len(b) for b in owner.boundary_overlay], out=bounds[1:])
            cached = (
                overlay.epoch,
                overlay.engine.distance_matrix(order, order),
                bounds,
            )
            self._overlay_matrix = cached
        _, matrix, bounds = cached
        return matrix[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def boundary_route(
        self, i: int, j: int, s_local: np.ndarray, t_local: np.ndarray
    ) -> np.ndarray:
        """Best route through the boundary for a ``(region i, region j)``
        group, on the owner's own shard engines."""
        owner = self.owner
        engine = owner.shards[i].engine
        if i == j:
            (ds, ds_inv), (dt, dt_inv) = boundary_fans(
                engine, s_local, t_local, owner.boundary_local[i]
            )
        else:
            ds, ds_inv = boundary_fan(engine, s_local, owner.boundary_local[i])
            dt, dt_inv = boundary_fan(
                owner.shards[j].engine, t_local, owner.boundary_local[j]
            )
        return min_plus_compact(
            ds, ds_inv, self.overlay_block(i, j), dt, dt_inv, engine.engine
        )

    def distances_arrays(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Batch distances over parallel global-id arrays; an id outside
        ``[0, n)`` raises :class:`~repro.exceptions.VertexNotFound`."""
        owner = self.owner
        s = np.asarray(s, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        check_ids(owner.graph.num_vertices, s, t)
        if not len(s):
            return np.empty(0, dtype=np.float64)
        region_of = owner.region_of
        local_of = owner.local_of
        rs = region_of[s]
        rt = region_of[t]
        out = np.full(len(s), np.inf, dtype=np.float64)
        # Group pairs by (region_s, region_t); each group is answered in
        # two vectorised strokes (shard kernel + min-plus combine).
        for idx, i, j in region_pair_groups(rs, rt, owner.k):
            s_local = local_of[s[idx]]
            t_local = local_of[t[idx]]
            if i == j:
                best = owner.shards[i].engine.distances_arrays(s_local, t_local)
            else:
                best = np.full(len(idx), np.inf, dtype=np.float64)
            if (
                owner.overlay is not None
                and len(owner.boundary_local[i])
                and len(owner.boundary_local[j])
            ):
                best = np.minimum(
                    best, self.boundary_route(i, j, s_local, t_local)
                )
            out[idx] = best
        out[s == t] = 0.0
        return out

    def distances(self, pairs) -> np.ndarray:
        """Batch distances for global-id pairs: an ``(m, 2)`` integer
        array or any iterable of ``(s, t)``."""
        arr = as_pair_array(pairs)
        return self.distances_arrays(arr[:, 0], arr[:, 1])

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance (``inf`` when disconnected)."""
        return float(self.distances_arrays(np.array([s]), np.array([t]))[0])

    # ------------------------------------------------------------------
    # hub-compatible surface (service cache integration)
    # ------------------------------------------------------------------
    def distance_with_hub(self, s: int, t: int) -> tuple[float, int]:
        """Distance plus a hub placeholder.

        A sharded distance is not a function of two label arrays alone
        (boundary and overlay labels participate), so no single hub
        vertex certifies it; -1 is returned and the serving layer falls
        back to coarse epoch invalidation.
        """
        return self.distance(s, t), -1

    def distances_with_hubs(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Batch counterpart of :meth:`distance_with_hub` (hubs all -1)."""
        out = self.distances(pairs)
        return out, np.full(len(out), -1, dtype=np.int64)

    def search_space_size(self, s: int, t: int) -> int:
        """Label entries a pair inspects (shard fans + overlay block)."""
        owner = self.owner
        check_ids(owner.graph.num_vertices, np.array([s, t], dtype=np.int64))
        i = int(owner.region_of[s])
        j = int(owner.region_of[t])
        size = 0
        if i == j:
            size += owner.shards[i].engine.search_space_size(
                int(owner.local_of[s]), int(owner.local_of[t])
            )
        size += len(owner.boundary_local[i]) + len(owner.boundary_local[j])
        return size

    def invalidate_blocks(self) -> None:
        """Drop the cached overlay matrix (called after overlay maintenance)."""
        self._overlay_matrix = None

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        cached = self._overlay_matrix
        cells = cached[1].size if cached is not None else 0
        return f"ShardedQueryEngine(k={self.owner.k}, cached_overlay_cells={cells})"

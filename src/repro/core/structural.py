"""Batch-dynamic structural updates — insert/delete fast paths.

The paper treats topology as stable (Section 8) and handles exceptions
coarsely: insertion repartitioned the LCA subtree and rebuilt H_U and L
wholesale, deletion left infinite-weight slots allocated forever. This
module replaces that with a batched engine in the BatchHL+ direction
(VLDB 2023): mixed batches of insertions, deletions and weight changes
are reflected through the ordinary maintenance driver and its sweeps,
with rebuilds reserved for the cases that genuinely invalidate the
hierarchy.

**One fold.** :func:`classify_batch` folds each of a batch's three
lists by ``graph.road_key`` (the last mention of a road in a list
wins), refuses a road named in two lists, and sorts each road once —
a change on an existing road, a new road or an already-deleted one —
before anything is written. The batch then takes one sweep or one
rebuild: never a sweep that a rebuild then throws away.

**Deletion fast path.** A deletion is a change to ``inf`` through the
ordinary maintenance driver; the slot stays allocated but is
*logically dead*. The compaction pass
(below) reclaims dead slots once their fraction crosses the configured
threshold.

**Insertion fast path.** The shortcut structure of a fixed contraction
order is the transitive closure of a clique invariant: contracting ``v``
adds a shortcut between every pair of its not-yet-contracted neighbours,
so every up-row is a clique. Adding edge ``(u, v)`` while *keeping the
contraction order* therefore adds exactly the closure of the pair
``(u, v)``: for each new pair ``(lo, hi)`` (``lo`` deeper), every
partner ``x`` in ``lo``'s final up-row needs the pair ``(x, hi)``, and
so on upward. Two gates guard the fast path:

* ``hq.comparable(u, v)`` — a vertex's ancestors form a chain, so the
  whole closure is automatically ⪯_H-comparable when the seed pair is;
  an *incomparable* new edge violates the separator property of H_Q and
  forces the repartition fallback. Endpoints sharing a leaf node of H_Q
  are always comparable — the common fast case.
* the closure size against ``config.insert_closure_limit`` — a closure
  that outgrows the budget (the new arc's LCA subtree is large) falls
  back to rebuilding H_U + L on the *same* H_Q, which is still far
  cheaper than repartitioning.

The fallback is one ladder for every index family, built or loaded:
closure fast path → rebuild on the same H_Q → repartition. The last
rung splices a fresh partition of the LCA subtree into the partition
tree that H_Q's arrays encode (:meth:`QueryHierarchy.partition_tree`).

Qualifying batches allocate their closure slots in one
:func:`~repro.hierarchy.csr.extend_slots` merge (weights ``inf`` —
allocated, not yet relaxed), add the new edges as logically-deleted, and
run one ``update`` over the batch's changes and new edges together: for
the new arcs that is the monotone min-relaxation from ``inf``, which
reaches exactly the Property-3.1 fixpoint of the extended store. A
build runs the same relaxation over a whole empty store
(:func:`~repro.labelling.driver.fill_weights`), so an inserted slot
ends with the bits a fresh build would give it. On a previously
compacted store the sweep can produce a finite
candidate for a removed pair; the shortcut sweep reports it
and the driver raises
:class:`~repro.exceptions.StructuralFallbackRequired` → rebuild.

**Compaction.** Dead slots (weight ``inf`` in every plane of the store
— both directions for the directed index) are squeezed out of the CSR
store and their graph edges removed physically; label rows are
exactly ``tau + 1`` entries and hold nothing to reclaim. Removing only
inf slots preserves the minimum-weight property of every surviving
slot (triangles through a removed slot contributed ``inf``) and pure
weight maintenance can never miss them (see the kernel guards);
deletions become *permanent* — restoring a compacted edge routes
through the insertion path.

Everything here is written against the store contract (``planes``,
``plane_views``) and one road vocabulary on the graph (``road_key`` /
``has_edge`` / ``weight`` / ``set_weight`` / ``add_edge`` /
``remove_edge`` / ``edges()`` — on a :class:`~repro.graph.DiGraph` the
arc methods under a second name, and ``road_key`` the arc itself), so
an edge below is an arc when the index is directed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import MaintenanceError, StructuralFallbackRequired
from repro.graph.graph import Graph
from repro.hierarchy.csr import ShortcutCSR, compact_slots, extend_slots
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.labelling.build import build_labelling
from repro.labelling.maintenance import MaintenanceStats, WeightChange
from repro.observability.phases import phase
from repro.partition.recursive import PartitionTreeNode
from repro.utils import pairs

__all__ = [
    "StructuralStats",
    "CompactionStats",
    "apply_batch",
    "classify_batch",
    "compact_index",
    "dead_fraction",
    "restore_edge",
    "delete_vertex",
]


@dataclass
class StructuralStats:
    """Outcome of one :func:`apply_batch` call.

    ``maintenance`` holds the stats of the batch's one sweep (or of its
    rebuild: every label affected); the counters say *how* the batch
    was absorbed — how many roads each list moved, how many new roads
    took the insertion fast path versus a fallback rebuild, how many
    slots the closure allocated, and how many deletions were dropped
    because the road was already dead.
    """

    maintenance: MaintenanceStats = field(default_factory=MaintenanceStats)
    inserted: int = 0
    deleted: int = 0
    weight_changed: int = 0
    already_deleted: int = 0
    fastpath_inserts: int = 0
    fallback_rebuilds: int = 0
    repartitions: int = 0
    new_slots: int = 0


@dataclass
class CompactionStats:
    """Outcome of one compaction pass."""

    dead_slots_reclaimed: int = 0
    bytes_reclaimed: int = 0


def structural_counters(index) -> dict[str, int]:
    """The index's persistent structural counters (created on demand)."""
    counters = getattr(index, "_structural_counters", None)
    if counters is None:
        counters = index._structural_counters = {
            "already_deleted_edges": 0,
            "fastpath_inserts": 0,
            "fallback_rebuilds": 0,
            "compactions": 0,
            "dead_slots_reclaimed": 0,
            "bytes_reclaimed": 0,
        }
    return counters


def _bump(index, key: str, by: int = 1) -> None:
    counters = structural_counters(index)
    counters[key] = counters.get(key, 0) + by


# ---------------------------------------------------------------------------
# insertion closure
# ---------------------------------------------------------------------------

def _ordered_pair(rank: np.ndarray, u: int, v: int) -> tuple[int, int]:
    """``(lo, hi)`` with ``lo`` the deeper (earlier-contracted) endpoint."""
    return (u, v) if rank[u] < rank[v] else (v, u)


def _insertion_closure(
    csr: ShortcutCSR,
    rank: np.ndarray,
    pairs: list[tuple[int, int]],
    limit: int,
) -> list[tuple[int, int]] | None:
    """Transitive closure of new shortcut pairs under the clique invariant.

    For each genuinely new pair ``(lo, hi)``, every partner in ``lo``'s
    final up-row (existing row plus partners this closure adds) must
    also pair with ``hi`` — the exact set of shortcuts
    ``contract_in_order`` would create for the same order on the updated
    graph. Returns the new pairs (deterministic order), or ``None`` when
    the closure exceeds *limit* (fall back to a rebuild).
    """
    new_rows: dict[int, list[int]] = {}
    seen: set[tuple[int, int]] = set()
    work = list(pairs)
    while work:
        lo, hi = work.pop()
        if (lo, hi) in seen or csr.find_slot(lo, hi) >= 0:
            continue
        seen.add((lo, hi))
        if len(seen) > limit:
            return None
        partners = csr.row(lo).tolist() + new_rows.get(lo, [])
        new_rows.setdefault(lo, []).append(hi)
        for x in partners:
            if x == hi:
                continue
            pair = _ordered_pair(rank, x, hi)
            if pair not in seen:
                work.append(pair)
    return sorted(seen)


# ---------------------------------------------------------------------------
# rebuild fallbacks
# ---------------------------------------------------------------------------

def _rebuild(index, hq: QueryHierarchy) -> None:
    """Re-contract and relabel the current graph over *hq*, in place.

    Works on snapshot-loaded indexes too — the contraction order is a
    pure function of ``hq.tau``, which is always available.
    """
    hu = index._hierarchy.build(index.graph, hq)
    index._adopt(hq, hu, [build_labelling(hu, plane) for plane in range(hu.planes)])


def _lca_node(hq: QueryHierarchy, u: int, v: int) -> int:
    """The H_Q node whose subtree is the LCA subtree of ``u`` and ``v``:
    the ancestor of ``u``'s node at the depth where the two nodes' path
    bits first differ (in preorder, the last node at that depth up to
    ``u``'s)."""
    nu, nv = int(hq.node_of[u]), int(hq.node_of[v])
    depth = min(int(hq.depth[nu]), int(hq.depth[nv]))
    diff = hq.path[nu] ^ hq.path[nv]
    for word, bits in enumerate(diff.tolist()):
        if bits:
            depth = min(depth, 64 * word + 64 - bits.bit_length())
            break
    return int(np.flatnonzero(hq.depth[: nu + 1] == depth)[-1])


def _splice_repartition(
    index, hq: QueryHierarchy, skeleton: Graph, u: int, v: int
) -> QueryHierarchy:
    """*hq* with the LCA subtree of ``(u, v)`` repartitioned over *skeleton*.

    The edge must already be in the skeleton. Untouched subtrees are
    reused verbatim; H_U/L are *not* rebuilt here — the caller does that
    once per batch.
    """
    nid = _lca_node(hq, u, v)
    nodes = list(hq.partition_tree().iter_nodes())  # preorder: node ids
    old_node = nodes[nid]
    affected = sorted(x for node in old_node.iter_nodes() for x in node.vertices)
    subgraph, local_to_global = skeleton.induced_subgraph(affected)
    sub_tree = index._bisect(subgraph, index.config)

    def relabel(node: PartitionTreeNode) -> PartitionTreeNode:
        return PartitionTreeNode(
            vertices=[local_to_global[x] for x in node.vertices],
            children=[relabel(c) for c in node.children],
        )

    new_subtree = relabel(sub_tree)
    if nid == 0:
        root = new_subtree
    else:
        parent_node = nodes[int(hq.parent()[nid])]
        parent_node.children[parent_node.children.index(old_node)] = new_subtree
        root = nodes[0]
    return QueryHierarchy.from_partition_tree(root, skeleton.num_vertices)


def _repartition(index, incomparable: np.ndarray) -> None:
    """Restore the separator property the *incomparable* new edges
    (``(m, 2)`` ids) broke, then rebuild H_U + L. The edges must
    already be in the graph."""
    hq = index.hq
    skeleton = index._hierarchy.skeleton(index.graph)
    while len(incomparable):
        # An earlier splice may already have separated a later pair
        # (always so for the second arc of a two-way road).
        broken = np.flatnonzero(~hq.comparable(incomparable[:, 0], incomparable[:, 1]))
        if not len(broken):
            break
        u, v = incomparable[broken[0]].tolist()
        hq = _splice_repartition(index, hq, skeleton, u, v)
        incomparable = incomparable[broken[0] + 1 :]
    _rebuild(index, hq)


# ---------------------------------------------------------------------------
# the batch driver
# ---------------------------------------------------------------------------

def classify_batch(
    graph, insertions=(), deletions=(), weight_changes=()
) -> tuple[list[WeightChange], list[WeightChange], StructuralStats]:
    """Fold and sort one structural batch against *graph*, writing nothing.

    Each list is checked (:mod:`repro.utils.pairs`; an insertion's
    weight finite) and folded by ``graph.road_key`` (a road's last
    mention in a list wins); a road named in two lists raises
    :class:`MaintenanceError`. Each folded road is then sorted once: a
    change on an existing road (a live road's deletion is a change to
    ``inf``; a weight it already has is dropped), a new road, or an
    already-deleted or missing one. Returns ``(changes, new_roads,
    stats)``, *stats* holding the counts.
    """
    n, road_key = graph.num_vertices, graph.road_key
    added = {
        road_key(u, v): (u, v, w)
        for u, v, w in pairs.weight_changes(n, insertions, insertions=True)
    }
    deletions = [pairs.vertex_pair(n, u, v) for u, v in deletions]
    dropped = {road_key(u, v): (u, v) for u, v in deletions}
    reweighed = {
        road_key(u, v): (u, v, w)
        for u, v, w in pairs.weight_changes(n, weight_changes)
    }
    twice = (added.keys() & dropped.keys()) | (
        reweighed.keys() & (added.keys() | dropped.keys())
    )
    if twice:
        u, v = min(twice)
        raise MaintenanceError(
            f"road ({u}, {v}) is named in more than one of insertions, "
            "deletions and weight_changes"
        )

    stats = StructuralStats()
    changes: list[WeightChange] = []
    new_roads: list[WeightChange] = []
    for u, v in dropped.values():
        if graph.has_edge(u, v) and math.isfinite(graph.weight(u, v)):
            changes.append((u, v, math.inf))
            stats.deleted += 1
        else:
            stats.already_deleted += 1
    for u, v, w in reweighed.values():
        if w != graph.weight(u, v):
            changes.append((u, v, w))
            stats.weight_changed += 1
    for u, v, w in added.values():
        if not graph.has_edge(u, v):
            new_roads.append((u, v, w))
        elif w != graph.weight(u, v):
            changes.append((u, v, w))
            stats.weight_changed += 1
    stats.inserted = len(new_roads)
    return changes, new_roads, stats


def apply_batch(
    index,
    insertions=(),
    deletions=(),
    weight_changes=(),
) -> StructuralStats:
    """Apply one mixed structural batch to an index in place.

    *deletions* are ``(u, v)`` pairs (a dead or missing road only
    counts as ``already_deleted``), *weight_changes* ``(u, v, w)`` on
    existing roads (a finite ``w`` on a dead one restores it), and
    *insertions* ``(u, v, w)`` (a weight change on an existing road).
    :func:`classify_batch` folds and checks them before any write. Then
    one step, one epoch: when a new road needs the rebuild on the same
    H_Q or the repartition (see the module docstring), the graph takes
    every change and new road and the index is rebuilt once; otherwise
    the closure slots are allocated, the new roads enter at ``inf``,
    and one :meth:`IndexCore.update` runs them with the changes. In a
    two-plane store the directions share one structural CSR, so a new
    arc whose reverse already exists has an empty closure. Returns a
    :class:`StructuralStats`.
    """
    graph = index.graph
    changes, new_roads, stats = classify_batch(
        graph, insertions, deletions, weight_changes
    )
    _bump(index, "already_deleted_edges", stats.already_deleted)

    # An incomparable new road breaks H_Q's separator property, which
    # only a repartition restores; a closure past the limit rebuilds.
    ends = np.array([(u, v) for u, v, _ in new_roads], dtype=np.int64).reshape(-1, 2)
    incomparable = ends[~index.hq.comparable(ends[:, 0], ends[:, 1])]
    closure = None
    if not len(incomparable):
        pairs = [_ordered_pair(index.hu.rank, u, v) for u, v in ends.tolist()]
        closure = _insertion_closure(
            index.hu.csr, index.hu.rank, pairs, index.config.insert_closure_limit
        )
    if closure is None:
        with phase("structural.fallback_rebuild"):
            for u, v, w in changes:
                graph.set_weight(u, v, w)
            for u, v, w in new_roads:
                graph.add_edge(u, v, w)
            if len(incomparable):
                _repartition(index, incomparable)
            else:
                _rebuild(index, index.hq)
        stats.repartitions = len(incomparable)
        _fell_back(index, stats)
        return stats

    if new_roads:
        with phase("structural.slot_alloc"):
            if closure:
                new_lo = np.fromiter((p[0] for p in closure), np.int64, len(closure))
                new_hi = np.fromiter((p[1] for p in closure), np.int64, len(closure))
                extend_slots(index.hu, new_lo, new_hi)
            # New roads enter logically deleted; the sweep relaxes them
            # (and their closure) to the Property-3.1 fixpoint.
            for u, v, _ in new_roads:
                graph.add_edge(u, v, 0.0)
                graph.set_weight(u, v, math.inf)
        stats.new_slots = len(closure)

    with phase("structural.sweep"):
        try:
            stats.maintenance = index.update(changes + new_roads)
        except StructuralFallbackRequired:
            # The sweep needed a pair that compaction removed. The graph
            # already carries the final weights (the driver applies them
            # before sweeping); rebuild H_U + L from it.
            with phase("structural.fallback_rebuild"):
                _rebuild(index, index.hq)
            _fell_back(index, stats)
            return stats
    stats.fastpath_inserts = len(new_roads)
    _bump(index, "fastpath_inserts", len(new_roads))
    return stats


def _fell_back(index, stats: StructuralStats) -> None:
    """Record one fallback rebuild: every label may have moved."""
    stats.maintenance = MaintenanceStats(
        affected_labels=set(range(index.graph.num_vertices)),
        label_positions=None,
    )
    stats.fallback_rebuilds += 1
    _bump(index, "fallback_rebuilds")


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------

def _dead_slots(store) -> np.ndarray:
    """Mask of the slots that are logically dead: inf in every plane."""
    planes = store.up_weights.reshape(store.planes, store.csr.num_slots)
    return np.isinf(planes).all(axis=0)


def dead_fraction(store) -> float:
    """Fraction of *store*'s slots that are logically dead."""
    dead = _dead_slots(store)
    return float(dead.mean()) if len(dead) else 0.0


def compact_index(index) -> CompactionStats:
    """Squeeze dead slots out of an index's shortcut store, in place.

    Dead shortcut slots leave the CSR store, their (dead) graph edges
    are removed physically — deletion becomes permanent; the bytes
    reclaimed are the measured drop of the store's ``memory_bytes()``.
    Queried distances are unchanged: every removed triangle contributed
    ``inf``. Bumps the epoch when anything was reclaimed, which routes
    worker/replica runtimes through their existing whole-buffer
    republish path.
    """
    hu, graph = index.hu, index.graph
    stats = CompactionStats()
    with phase("structural.compaction"):
        store_bytes = hu.memory_bytes()
        dead = _dead_slots(hu)
        stats.dead_slots_reclaimed = int(dead.sum())
        if stats.dead_slots_reclaimed:
            compact_slots(hu, ~dead)
        stats.bytes_reclaimed = store_bytes - hu.memory_bytes()
        # A deleted edge whose slot kept a finite witness shortcut is
        # still physically dead in the graph — remove it even when no
        # slot was reclaimed, so restores always route through the
        # insertion path.
        dead_edges = [(u, v) for u, v, w in graph.edges() if math.isinf(w)]
        for u, v in dead_edges:
            graph.remove_edge(u, v)
        if stats.bytes_reclaimed or dead_edges:
            index._epoch += 1
            index._refresh_size_stats()
    _bump(index, "compactions")
    _bump(index, "dead_slots_reclaimed", stats.dead_slots_reclaimed)
    _bump(index, "bytes_reclaimed", stats.bytes_reclaimed)
    return stats


# ---------------------------------------------------------------------------
# single-edge conveniences (the historical Section 8 surface)
# ---------------------------------------------------------------------------

def restore_edge(index, u: int, v: int, weight: float) -> MaintenanceStats:
    """Restore a logically deleted edge with *weight* (a decrease), as
    an insertion through :func:`apply_batch`: after a compaction pass
    the edge is physically gone and is inserted again."""
    graph = index.graph
    ((u, v, weight),) = pairs.weight_changes(
        graph.num_vertices, [(u, v, weight)], insertions=True
    )
    if graph.has_edge(u, v) and weight > graph.weight(u, v):
        raise MaintenanceError(
            f"edge ({u}, {v}) currently weighs {graph.weight(u, v)}; restoring "
            "to a larger weight is an increase — use increase()"
        )
    return apply_batch(index, insertions=[(u, v, weight)]).maintenance


def delete_vertex(index, v: int) -> MaintenanceStats:
    """Logically delete vertex *v*: all incident roads become infinite.

    The neighbour set is snapshotted before any mutation (the live
    adjacency view must not be iterated while maintenance writes to it)
    and the deletions run as one batch, returning the merged stats.
    """
    neighbors = list(index.graph.neighbors(v).items())
    deletions = [(v, u) for u, w in neighbors if math.isfinite(w)]
    if not deletions:
        return MaintenanceStats()
    return apply_batch(index, deletions=deletions).maintenance

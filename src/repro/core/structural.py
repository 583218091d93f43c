"""Batch-dynamic structural updates — insert/delete fast paths.

The paper treats topology as stable (Section 8) and handles exceptions
coarsely: insertion repartitioned the LCA subtree and rebuilt H_U and L
wholesale, deletion left infinite-weight slots allocated forever. This
module replaces that with a batched engine in the BatchHL+ direction
(VLDB 2023): mixed batches of insertions, deletions and weight changes
are reflected through the ordinary maintenance driver and its sweeps,
with rebuilds reserved for the cases that genuinely invalidate the
hierarchy.

**Deletion fast path.** A deletion is an infinite-weight increase
through the ordinary maintenance driver; the slot stays allocated but
is *logically dead*. The compaction pass
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

The fallback is one ladder for every index family: closure fast path →
rebuild on the same H_Q → repartition. The last rung splices a fresh
subtree into the partition tree when the index still has it
(``hq.tree_nodes``) and builds from scratch when it does not (a
snapshot-loaded index — the tree is not persisted).

Qualifying batches allocate their closure slots in one
:func:`~repro.hierarchy.csr.extend_slots` merge (weights ``inf`` —
allocated, not yet relaxed), add the new edges as logically-deleted, and
seed one decrease sweep from the new arcs: the monotone min-relaxation
from ``inf`` reaches exactly the Property-3.1 fixpoint of the extended
store. A build runs the same relaxation over a whole empty store
(:func:`~repro.labelling.driver.fill_weights`), so an inserted slot
ends with the bits a fresh build would give it. On a previously
compacted store the sweep can produce a finite
candidate for a removed pair; the shortcut sweep reports it
and the driver raises
:class:`~repro.exceptions.StructuralFallbackRequired` → rebuild.

**Compaction.** Dead slots (weight ``inf`` in every plane of the store
— both directions for the directed index) are squeezed out of the CSR
store, their graph edges removed physically, and label-store slack
repacked. Removing only inf slots preserves the minimum-weight property
of every surviving slot (triangles through a removed slot contributed
``inf``) and pure weight maintenance can never miss them (see the
kernel guards); deletions become *permanent* — restoring a compacted
edge routes through the insertion path.

Everything here is written against the store contract (``planes``,
``edge_key``, ``plane_views``) and one road vocabulary on the graph
(``has_edge`` / ``weight`` / ``set_weight`` / ``add_edge`` /
``remove_edge`` / ``edges()`` — on a :class:`~repro.graph.DiGraph` the
arc methods under a second name), so an edge below is an arc when the
index is directed.
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
from repro.labelling.driver import fold_batch
from repro.labelling.maintenance import MaintenanceStats
from repro.observability.phases import phase
from repro.partition.recursive import PartitionTreeNode

__all__ = [
    "StructuralStats",
    "CompactionStats",
    "apply_batch",
    "compact_index",
    "dead_fraction",
    "restore_edge",
    "delete_vertex",
]


@dataclass
class StructuralStats:
    """Outcome of one :func:`apply_batch` call.

    ``maintenance`` merges the kernel stats of every sub-pass;
    the counters say *how* the batch was absorbed — how many arcs took
    the insertion fast path versus a fallback rebuild, how many slots
    the closure allocated, and how many deletions were dropped because
    the edge was already dead.
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


def _subtree_vertices(hq: QueryHierarchy, node_id: int) -> list[int]:
    """All vertices owned by the subtree rooted at H_Q node *node_id*."""
    children: dict[int, list[int]] = {}
    for nid, parent in enumerate(hq.node_parent):
        if parent >= 0:
            children.setdefault(parent, []).append(nid)
    vertices: list[int] = []
    stack = [node_id]
    while stack:
        nid = stack.pop()
        vertices.extend(hq.node_members[nid])
        stack.extend(children.get(nid, ()))
    return vertices


def _splice_repartition(
    index, hq: QueryHierarchy, skeleton: Graph, u: int, v: int
) -> QueryHierarchy:
    """*hq* with the LCA subtree of ``(u, v)`` repartitioned over *skeleton*.

    The edge must already be in the skeleton. Untouched subtrees are
    reused verbatim; H_U/L are *not* rebuilt here — the caller does that
    once per batch.
    """
    depth = hq.lca_depth(u, v)
    nid = int(hq.node_of[u])
    while hq.node_depth[nid] > depth:
        nid = hq.node_parent[nid]

    affected = sorted(_subtree_vertices(hq, nid))
    subgraph, local_to_global = skeleton.induced_subgraph(affected)
    sub_tree = index._bisect(subgraph, index.config)

    def relabel(node: PartitionTreeNode) -> PartitionTreeNode:
        return PartitionTreeNode(
            vertices=[local_to_global[x] for x in node.vertices],
            children=[relabel(c) for c in node.children],
        )

    new_subtree = relabel(sub_tree)
    old_node = hq.tree_nodes[nid]
    parent_id = hq.node_parent[nid]
    if parent_id < 0:
        root = new_subtree
    else:
        parent_node = hq.tree_nodes[parent_id]
        parent_node.children[parent_node.children.index(old_node)] = new_subtree
        root = hq.tree_nodes[0]
    return QueryHierarchy.from_partition_tree(root, skeleton.num_vertices)


def _repartition(index, incomparable: list[tuple[int, int]]) -> None:
    """Restore the separator property the *incomparable* new edges broke,
    then rebuild H_U + L. The edges must already be in the graph."""
    hq = index.hq
    if hq.tree_nodes is None:
        # Loaded from a snapshot: the partition tree was not persisted,
        # so there is nothing to splice into — partition afresh.
        fresh = type(index).build(index.graph, index.config)
        index._adopt(fresh.hq, fresh.hu, fresh.labellings)
        return
    skeleton = index._hierarchy.skeleton(index.graph)
    for u, v in incomparable:
        # An earlier splice may already have separated this pair (always
        # so for the second arc of a two-way road).
        if not hq.comparable(u, v):
            hq = _splice_repartition(index, hq, skeleton, u, v)
    _rebuild(index, hq)


# ---------------------------------------------------------------------------
# the batch driver
# ---------------------------------------------------------------------------

def _validate_insertion(u: int, v: int, w: float) -> None:
    if u == v:
        raise MaintenanceError(f"cannot insert a self-loop at vertex {u}")
    if not math.isfinite(w) or w < 0:
        raise MaintenanceError(
            f"weight must be finite and non-negative, got {w!r}"
        )


def apply_batch(
    index,
    insertions=(),
    deletions=(),
    weight_changes=(),
) -> StructuralStats:
    """Apply one mixed structural batch to an index in place.

    * *deletions* — ``(u, v)`` pairs; live edges become infinite-weight
      increases (the deletion fast path), already-dead or missing edges
      only bump the ``already_deleted`` counter.
    * *weight_changes* — ``(u, v, w)`` triples on existing edges,
      folded as in :meth:`IndexCore.update` and classified into one
      :meth:`~IndexCore.increase` and one :meth:`~IndexCore.decrease`
      call with the deletions (a finite ``w`` on a dead edge is a
      restore: a plain decrease).
    * *insertions* — ``(u, v, w)`` triples; an existing edge folds into
      a weight change, new edges take the closure fast path or a
      fallback rebuild (see the module docstring). In a two-plane store
      the directions share one structural CSR, so a new arc whose
      reverse already exists (or whose pair survived as a shortcut) has
      an empty closure: a pure weight decrease from ``inf``.

    Mutates the index (hierarchies, labels, engine are swapped on
    fallback) and returns a :class:`StructuralStats`.
    """
    graph = index.graph
    stats = StructuralStats()

    increases: list[tuple[int, int, float]] = []
    decreases: list[tuple[int, int, float]] = []
    for u, v in deletions:
        if not graph.has_edge(u, v) or math.isinf(graph.weight(u, v)):
            stats.already_deleted += 1
            _bump(index, "already_deleted_edges")
        else:
            increases.append((u, v, math.inf))
            stats.deleted += 1

    # Duplicate reports on one edge coalesce last-wins (sequential
    # semantics) — increase() and decrease() reject the other direction.
    for u, v, w in fold_batch(weight_changes, index.hu.edge_key):
        current = graph.weight(u, v)
        if w != current:
            (increases if w > current else decreases).append((u, v, w))
            stats.weight_changed += 1

    real_inserts: list[tuple[int, int, float]] = []
    for u, v, w in insertions:
        _validate_insertion(u, v, w)
        if graph.has_edge(u, v):
            current = graph.weight(u, v)
            if w < current:
                decreases.append((u, v, w))
            elif w > current:
                increases.append((u, v, w))
            stats.weight_changed += 1
        else:
            real_inserts.append((u, v, w))

    if increases:
        stats.maintenance = stats.maintenance.merge(index.increase(increases))
    if decreases:
        stats.maintenance = stats.maintenance.merge(index.decrease(decreases))
    if real_inserts:
        stats.inserted = len(real_inserts)
        _apply_insertions(index, real_inserts, stats)
    return stats


def _fell_back(index, stats: StructuralStats) -> None:
    """Record one fallback rebuild: every label may have moved."""
    everyone = MaintenanceStats(
        affected_labels=set(range(index.graph.num_vertices)),
        label_positions=None,
    )
    stats.maintenance = stats.maintenance.merge(everyone)
    stats.fallback_rebuilds += 1
    _bump(index, "fallback_rebuilds")


def _apply_insertions(index, inserts, stats: StructuralStats) -> None:
    """Route genuinely new edges down the ladder: closure fast path,
    rebuild on the same H_Q, repartition."""
    graph = index.graph
    hq: QueryHierarchy = index.hq
    hu = index.hu

    # An incomparable pair genuinely invalidates the separator property
    # of H_Q; only a repartition restores it.
    incomparable = [
        (u, v) for u, v, _ in inserts if not hq.comparable(u, v)
    ]
    closure = None
    if not incomparable:
        pairs = [_ordered_pair(hu.rank, u, v) for u, v, _ in inserts]
        closure = _insertion_closure(
            hu.csr, hu.rank, pairs, index.config.insert_closure_limit
        )
    if closure is None:
        with phase("structural.fallback_rebuild"):
            for u, v, w in inserts:
                graph.add_edge(u, v, w)
            if incomparable:
                _repartition(index, incomparable)
            else:
                _rebuild(index, hq)
        stats.repartitions = len(incomparable)
        _fell_back(index, stats)
        return

    with phase("structural.slot_alloc"):
        if closure:
            new_lo = np.fromiter((p[0] for p in closure), np.int64, len(closure))
            new_hi = np.fromiter((p[1] for p in closure), np.int64, len(closure))
            extend_slots(hu, new_lo, new_hi)
        # New edges enter logically deleted; the seeded decrease sweep
        # relaxes them (and their closure) to the Property-3.1 fixpoint.
        for u, v, _ in inserts:
            graph.add_edge(u, v, 0.0)
            graph.set_weight(u, v, math.inf)
    stats.new_slots = len(closure)

    with phase("structural.fastpath_sweep"):
        try:
            sweep = index.decrease(inserts)
        except StructuralFallbackRequired:
            # The sweep needed a pair that compaction removed. The graph
            # already carries the final weights (the driver applies them
            # before sweeping); rebuild H_U + L from it.
            with phase("structural.fallback_rebuild"):
                _rebuild(index, hq)
            _fell_back(index, stats)
            return
    stats.maintenance = stats.maintenance.merge(sweep)
    stats.fastpath_inserts = len(inserts)
    _bump(index, "fastpath_inserts", len(inserts))


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
    """Squeeze dead slots out of an index's stores, in place.

    Dead shortcut slots leave the CSR store, their (dead) graph edges
    are removed physically — deletion becomes permanent — and the slack
    of every labelling is repacked; the bytes reclaimed are the measured
    drop of the store's ``memory_bytes()`` plus the label slack. Queried
    distances are unchanged: every removed triangle contributed
    ``inf``. Bumps the epoch when anything was reclaimed, which routes
    worker/replica runtimes through their existing whole-buffer
    republish path.
    """
    hu, graph = index.hu, index.graph
    stats = CompactionStats()
    with phase("structural.compaction"):
        label_bytes = sum(labels.compact() for labels in index.labellings)
        store_bytes = hu.memory_bytes()
        dead = _dead_slots(hu)
        stats.dead_slots_reclaimed = int(dead.sum())
        if stats.dead_slots_reclaimed:
            compact_slots(hu, ~dead)
        stats.bytes_reclaimed = store_bytes - hu.memory_bytes() + label_bytes
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
    """Restore a logically deleted edge with *weight* (a decrease).

    After a compaction pass the edge is physically gone; restoring then
    routes through the insertion path of :func:`apply_batch`.
    """
    if not math.isfinite(weight) or weight < 0:
        raise MaintenanceError(f"restore weight must be finite, got {weight!r}")
    if not index.graph.has_edge(u, v):
        return apply_batch(
            index, insertions=[(u, v, weight)]
        ).maintenance
    current = index.graph.weight(u, v)
    if weight > current:
        raise MaintenanceError(
            f"edge ({u}, {v}) currently weighs {current}; restoring to a "
            "larger weight is an increase — use increase()"
        )
    return index.decrease([(u, v, weight)])


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

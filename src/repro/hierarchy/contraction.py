"""Vertex-contraction engine for weight-independent shortcut graphs.

This is the DCH variant of contraction hierarchies [11, 17] used by both
the DHL update hierarchy and the DCH/IncH2H baselines: contracting a
vertex adds a shortcut between *every* pair of its not-yet-contracted
neighbours (no witness search), so the shortcut *structure* depends only
on the contraction order, never on edge weights — the structural
stability property (U1) that makes dynamic maintenance cheap.

A contraction is therefore two passes. :func:`eliminate` is the
symbolic one: it contracts an undirected skeleton over neighbour sets
and yields the structure alone — for a digraph the symmetrised
skeleton it is partitioned by, so one elimination serves both index
families. The weights are then filled by Algorithm 2 from an empty
store (:func:`~repro.labelling.driver.fill_weights`): every cell starts
at its direct road weight and the C shortcut sweep relaxes them to the
minimum-weight property (Property 3.1),

    w(u, v) = min( w_G(u, v), min_x w(x, u) + w(x, v) )

over all common "down" neighbours ``x`` (contracted before both). A
build is an insertion into an empty store, the same relaxation the
structural insertion fast path runs.

Storage is a flat CSR shortcut store (:mod:`repro.hierarchy.csr`): one
rank-sorted structure plus a single ``up_weights`` buffer of weight
planes. :class:`ContractionResult` is the store contract every index
family maintains through — the undirected hierarchy has one plane, the
directed one two.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.hierarchy.csr import ShortcutCSR, build_shortcut_csr

__all__ = [
    "ContractionResult",
    "contract_in_order",
    "eliminate",
    "min_degree_order",
    "unweighted_store",
]


class ContractionResult:
    """Shortcut graph produced by contraction — the shortcut-store contract.

    One :class:`~repro.hierarchy.csr.ShortcutCSR` of ``m`` slots plus
    ``planes`` weight planes laid end to end in ``up_weights``: the
    weight *cell* of slot ``s`` in plane ``p`` is ``s + m * p``. Slot
    ``(v, w)`` has ``v`` deeper (contracted earlier). With two planes
    (the directed index) plane 0 weighs the arc deeper -> shallower and
    plane 1 the arc shallower -> deeper; with one, cells are slots.

    Attributes
    ----------
    graph:
        The underlying road network (weights are kept current by the
        maintenance algorithms; the shortcut structure never changes
        under weight updates).
    order:
        Vertices in contraction order (earliest first).
    rank:
        ``rank[v]`` = position of ``v`` in ``order``. Up-neighbours have
        larger rank (contracted later).
    csr / up_weights:
        Structure and current weights — the single source of truth,
        replaced together and only through :meth:`rebind`.
    """

    planes = 1

    __slots__ = ("graph", "order", "rank", "csr", "up_weights", "direct")

    def __init__(
        self,
        graph,
        order: np.ndarray,
        rank: np.ndarray,
        csr: ShortcutCSR,
        up_weights: np.ndarray,
    ):
        self.graph = graph
        self.order = np.asarray(order, dtype=np.int64)
        self.rank = np.asarray(rank, dtype=np.int64)
        self.rebind(csr, up_weights)

    def rebind(self, csr: ShortcutCSR, up_weights: np.ndarray) -> None:
        """Swap in a new structure and its weight buffer.

        The one place either is replaced (construction, slot growth,
        compaction), so nothing derived from the old pair survives it:
        the per-cell direct weights are dropped here.
        """
        self.csr = csr
        self.up_weights = up_weights
        self.direct = None

    # -- addressing -----------------------------------------------------
    def shortcut_key(self, a: int, b: int) -> tuple[int, int]:
        """Normalise an endpoint pair to (earlier, later) contraction order."""
        return (a, b) if self.rank[a] < self.rank[b] else (b, a)

    #: What a weight batch dedupes on: the unordered pair here, the
    #: ordered arc in a two-plane store.
    edge_key = shortcut_key

    def find_edge_slot(self, a: int, b: int) -> int:
        """Weight cell of edge ``(a, b)`` — of arc ``a -> b`` in a
        two-plane store; -1 when the pair has no slot."""
        descending = self.rank[a] > self.rank[b]
        slot = self.csr.find_slot(b, a) if descending else self.csr.find_slot(a, b)
        if slot >= 0 and descending and self.planes == 2:
            slot += self.csr.num_slots
        return slot

    def edge_slot(self, a: int, b: int) -> int:
        """Like :meth:`find_edge_slot` but raises when the pair is absent."""
        cell = self.find_edge_slot(a, b)
        if cell < 0:
            raise KeyError(f"no shortcut ({a}, {b})")
        return cell

    def direct_weights(self) -> np.ndarray:
        """Each cell's direct road weight, inf where no road survives —
        the store's one road -> cell mapping, the base term of Property
        3.1 and the seed of a build.

        A derived cache in ``direct``, outside :meth:`memory_bytes` and
        snapshots: a build leaves it filled and the maintenance driver
        keeps it current; :meth:`rebind` drops it, so after a load or a
        slot growth or compaction it is rebuilt from the graph here, on
        first use.
        """
        if self.direct is None:
            direct = np.full(self.planes * self.csr.num_slots, math.inf)
            # A two-plane store weighs arcs (a digraph's ``edges()``):
            # a -> b falls in plane 1 when it descends (``a`` the
            # shallower endpoint).
            triples = list(self.graph.edges())
            if triples:
                arr = np.asarray([(u, v) for u, v, _ in triples], dtype=np.int64)
                u, v = arr[:, 0], arr[:, 1]
                flip = self.rank[u] > self.rank[v]
                cells = self.csr.slots_of(np.where(flip, v, u), np.where(flip, u, v))
                if self.planes == 2:
                    cells += flip * self.csr.num_slots
                direct[cells] = [w for _, _, w in triples]
            self.direct = direct
        return self.direct

    def plane_views(self) -> tuple:
        """Every weight plane shaped like a one-plane store (``tau``,
        ``csr``, that plane's ``up_weights``) — what Algorithm 1 and the
        label sweeps read. With one plane that is the store itself."""
        return (self,)

    def label_planes(self, labels) -> list[tuple]:
        """``(one-plane store, labelling)`` per weight plane — what the
        label phase of the maintenance driver runs over. *labels* holds
        one labelling per plane."""
        return list(zip(self.plane_views(), labels))

    # -- weight access --------------------------------------------------
    def has_shortcut(self, a: int, b: int) -> bool:
        return self.find_edge_slot(a, b) >= 0

    def weight(self, a: int, b: int) -> float:
        """Current weight of shortcut ``(a, b)``."""
        return float(self.up_weights[self.edge_slot(a, b)])

    def set_weight(self, a: int, b: int, w: float) -> float:
        """Set shortcut weight; returns the previous value."""
        cell = self.edge_slot(a, b)
        old = float(self.up_weights[cell])
        self.up_weights[cell] = w
        return old

    def up_row(self, v: int) -> tuple[list[int], list[float]]:
        """``v``'s up-neighbours in rank order and their shortcut weights."""
        start, end = self.csr.row_bounds(v)
        return (
            self.csr.indices[start:end].tolist(),
            self.up_weights[start:end].tolist(),
        )

    def down_row(self, v: int) -> tuple[list[int], list[float]]:
        """``v``'s down-neighbours by vertex id and their shortcut weights."""
        csr = self.csr
        start, end = int(csr.down_indptr[v]), int(csr.down_indptr[v + 1])
        return (
            csr.down_indices[start:end].tolist(),
            self.up_weights[csr.down_slots[start:end]].tolist(),
        )

    @property
    def num_shortcuts(self) -> int:
        return self.csr.num_slots

    def memory_bytes(self) -> int:
        """Footprint of the store: every CSR array and every weight plane."""
        return self.csr.memory_bytes() + self.up_weights.nbytes + self.order.nbytes

    # -- invariant checks (used heavily in tests) ------------------------
    def verify_minimum_weight_property(self, tolerance: float = 0.0) -> None:
        """Assert Property 3.1 for every cell of every weight plane.

        Cell ``(v, u)`` of plane 0 is the road ``v -> u``, of the second
        of two planes ``u -> v``; each is the direct road min-combined
        with every path through a common down-neighbour, whose first
        leg descends (the opposite plane) and second leg ascends.
        Raises AssertionError.
        """
        csr, graph, weights = self.csr, self.graph, self.up_weights
        m = csr.num_slots
        for cell in range(len(weights)):
            plane, slot = divmod(cell, m)
            v, u = int(csr.owners[slot]), int(csr.indices[slot])
            a, b = (u, v) if plane else (v, u)
            expected = graph.weight(a, b) if graph.has_edge(a, b) else math.inf
            slots_v, slots_u = csr.common_down(v, u)
            if len(slots_v):
                triangles = (
                    weights[slots_v + m * (self.planes - 1 - plane)]
                    + weights[slots_u + m * plane]
                )
                expected = min(expected, float(triangles.min()))
            actual = float(weights[cell])
            ok = (
                actual == expected
                or (math.isinf(actual) and math.isinf(expected))
                or abs(actual - expected) <= tolerance
            )
            assert ok, f"road {a} -> {b}: stored {actual}, recomputed {expected}"


def eliminate(skeleton: Graph, order: np.ndarray, rank: np.ndarray) -> ShortcutCSR:
    """The shortcut structure of contracting *skeleton* in *order*
    (``rank`` its inverse).

    Symbolic elimination over neighbour sets: contracting ``v`` makes
    its remaining neighbours its up-row and joins them pairwise. Since
    every up-row is a clique, joining the row into the row of its
    first-contracted member alone — the elimination-tree parent, which
    passes it on in turn — adds the same pairs, so each slot is merged
    once. A logically deleted (inf) edge is structure like any other.
    """
    ranks = rank.tolist()
    work = [
        {u for u in skeleton.neighbors(v) if ranks[u] > ranks[v]}
        for v in range(skeleton.num_vertices)
    ]
    for v in order.tolist():
        row = work[v]  # complete: every child has merged its row in
        if row:
            parent = min(row, key=ranks.__getitem__)
            work[parent] |= row
            work[parent].discard(parent)
    return build_shortcut_csr(work, rank)


def unweighted_store(
    graph, skeleton: Graph, order: Sequence[int], planes: int = 1
) -> ContractionResult:
    """The store of contracting *skeleton* in *order* (earliest first)
    over *graph*'s roads, its ``planes`` weight planes not yet filled."""
    n = skeleton.num_vertices
    order = np.asarray(order, dtype=np.int64)
    if len(order) != n or len(set(order.tolist())) != n:
        raise ValueError("order must be a permutation of all vertices")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    csr = eliminate(skeleton, order, rank)
    return ContractionResult(graph, order, rank, csr, np.empty(planes * csr.num_slots))


def weighed(store):
    """*store* with its cells filled: Algorithm 2 from an empty store
    (:func:`~repro.labelling.driver.fill_weights`)."""
    # The labelling package imports the hierarchies, so its driver is
    # imported at call time.
    from repro.labelling.driver import fill_weights

    fill_weights(store)
    return store


def contract_in_order(graph: Graph, order: Sequence[int]) -> ContractionResult:
    """Contract *graph* following *order* (earliest contracted first):
    the structure by :func:`eliminate`, the weights by Algorithm 2 from
    an empty store."""
    return weighed(unweighted_store(graph, graph, order))


def min_degree_order(graph: Graph) -> list[int]:
    """Contraction order by the minimum-degree heuristic [4].

    The degree used is the *current* degree in the partially contracted
    graph (original edges plus already-added shortcuts), the ordering DCH
    and IncH2H use. Simulates contraction structurally (weights ignored).
    """
    n = graph.num_vertices
    work: list[set[int]] = [set(graph.neighbors(v)) for v in range(n)]
    # Lazy deletion with heapq: ``(degree, push counter, vertex)``
    # entries and each vertex's live key in ``queued``; a push no lower
    # than the live key is refused and a pop that is not it is skipped.
    heap = [(len(work[v]), v, v) for v in range(n)]
    heapify(heap)
    queued = {v: len(work[v]) for v in range(n)}
    counter = itertools.count(n)

    def push(v: int) -> None:
        key = len(work[v])
        if queued.get(v, key + 1) > key:
            queued[v] = key
            heappush(heap, (key, next(counter), v))

    contracted = bytearray(n)
    order: list[int] = []
    while len(order) < n:
        key, _, v = heappop(heap)
        if queued.get(v) != key:
            continue
        del queued[v]
        if contracted[v]:
            continue
        if key != len(work[v]):
            push(v)
            continue
        contracted[v] = 1
        order.append(v)
        nbrs = [u for u in work[v] if not contracted[u]]
        for i, u in enumerate(nbrs):
            work[u].discard(v)
            for x in nbrs[i + 1 :]:
                if x not in work[u]:
                    work[u].add(x)
                    work[x].add(u)
        for u in nbrs:
            push(u)
        work[v].clear()
    return order

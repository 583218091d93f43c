"""A sharded flush costs its written label entries: deltas and clique refresh.

After the shard sweeps return, a flush ships the label entries each
touched shard's sweep wrote to its replicas and refreshes the overlay
clique edges whose endpoints' labels moved. Both run as whole-array
numpy work:

* a delta starts from the sweep's own list of written positions
  (``MaintenanceStats.label_positions``), which are positions of the
  layout the replicas hold while the shard's store holds the offsets
  array that was published (label rows never change length). The
  shared-memory delta is one gather from the parent's store and one
  scatter into the segment; the inline (TCP) delta ships the positions
  and their values, which each replica scatters into its copy — no
  :meth:`HierarchicalLabelling.view` call per vertex. A shard whose
  labels were swapped since the publish is a republish, never a torn
  delta;
* the clique refresh compares the recomputed rows of the touched
  boundary vertices against the held clique matrix
  (``ShardedDHLIndex.cliques``) — no overlay-graph lookup per pair.

The identity checks: segment bytes equal the parent's buffers after
every burst, a swapped shard store republishes that shard alone, the
held matrices equal the overlay graph's clique weights
under any interleaving of maintenance, compaction and reloads, and a
compaction keeps the infinite clique edges a later reconnecting
insertion decreases.
"""

from __future__ import annotations

import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra
from repro.core.sharded import ShardedDHLIndex
from repro.graph.generators import grid_network
from repro.graph.graph import Graph
from repro.labelling.build import build_labelling
from repro.labelling.labels import HierarchicalLabelling
from repro.service import DistanceService, ShardWorkerRuntime
from repro.service.protocol import AckReply, EpochDelta
from repro.service.workers import ShardExecutor, _InlineBuffers, _ShmBuffers
from repro.sharding.overlay import clique_refresh_changes, clique_weights
from tests.conftest import build_sharded
from tests.strategies import rolling_stream


def _forbid(*_args, **_kwargs):
    raise AssertionError("called on the flush path")


def _all_pairs_match_dijkstra(answer, graph: Graph) -> None:
    """``answer(pairs)`` equals Dijkstra on every ordered vertex pair."""
    n = graph.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    want = np.concatenate([dijkstra(graph, s) for s in range(n)])
    np.testing.assert_array_equal(answer(pairs), want)


def _assert_cliques_held(index: ShardedDHLIndex) -> None:
    """Every ordered clique pair's held weight is its overlay edge's."""
    if index.overlay is None:
        assert index.cliques == []
        return
    for held, overlays in zip(index.cliques, index.boundary_overlay):
        assert held.shape == (len(overlays), len(overlays))
        for i, a in enumerate(overlays.tolist()):
            for j, b in enumerate(overlays.tolist()):
                if i != j:
                    assert held[i, j] == index.overlay.graph.weight(a, b)


# ---------------------------------------------------------------------------
# guards: no per-vertex views, no per-pair graph lookups
# ---------------------------------------------------------------------------

def test_flush_makes_no_label_view_calls(transport, monkeypatch):
    """A flush through either transport copies labels in whole-array
    gathers: patching ``view`` to raise leaves the flush unharmed, the
    bursts ride the delta path and the replicas answer exactly."""
    graph = grid_network(12, 12)
    index = build_sharded(graph)
    with transport(index) as runtime:
        service = DistanceService(runtime, flush_threshold=1 << 20)
        for changes, _ in rolling_stream(index.graph, index.region_of, group=8):
            service.submit_many(changes)
            deltas = runtime.stats.delta_syncs
            with monkeypatch.context() as patch:
                patch.setattr(HierarchicalLabelling, "view", _forbid)
                service.flush()
            assert runtime.stats.delta_syncs > deltas
        assert runtime.stats.republishes == 0
        _all_pairs_match_dijkstra(service.distances, index.graph)


def test_clique_refresh_reads_no_graph_weights(monkeypatch):
    """The refresh finds moved clique edges against the held matrix: no
    ``Graph.weight`` call, and the same changes in the same ``(lo, hi)``
    order as comparing every recomputed pair with the overlay graph."""
    index = build_sharded(grid_network(16, 16))
    rid = max(range(index.k), key=lambda r: len(index.boundary_local[r]))
    boundary = index.boundary_local[rid]
    overlays = index.boundary_overlay[rid]
    shard = index.shards[rid]
    on_boundary = set(boundary.tolist())
    edges = sorted(
        (u, v, w) for u, v, w in shard.graph.edges() if u in on_boundary
    )
    stats = shard.update([(u, v, 3 * w) for u, v, w in edges[:6]])
    fresh = clique_weights(shard, boundary)
    expected = [
        (int(overlays[i]), int(overlays[j]), float(fresh[i, j]))
        for i, j in zip(*np.triu_indices(len(boundary), k=1))
        if fresh[i, j]
        != index.overlay.graph.weight(int(overlays[i]), int(overlays[j]))
    ]
    assert expected
    held = index.cliques[rid]
    with monkeypatch.context() as patch:
        patch.setattr(Graph, "weight", _forbid)
        changes = clique_refresh_changes(
            shard, boundary, overlays, held, stats.affected_labels
        )
    assert changes == expected
    np.testing.assert_array_equal(held, fresh)


# ---------------------------------------------------------------------------
# identity: segment bytes, placement, held clique weights
# ---------------------------------------------------------------------------

def test_segments_equal_parent_buffers_after_rolling_bursts():
    index = build_sharded(grid_network(16, 16))
    with ShardWorkerRuntime(index) as runtime:
        for changes, _ in rolling_stream(
            index.graph, index.region_of, rounds=20, group=8
        ):
            runtime.apply_update(changes)
            for sid in range(index.k):
                labels = index.shards[sid].labels
                values, offsets = labels.values, labels.offsets
                segments = runtime._buffers[sid].segments
                assert segments[0].array.tobytes() == values.tobytes()
                assert segments[1].array.tobytes() == offsets.tobytes()
        assert runtime.stats.delta_syncs >= 20
        assert runtime.stats.republishes == 0
        _all_pairs_match_dijkstra(runtime.distances, index.graph)


def test_inline_delta_round_trip_through_published_positions():
    """The inline delta ships the written positions of the published
    store as they are, with their values, and the replica's one scatter
    lands them in its copy."""
    index = build_sharded(grid_network(12, 12))
    labels = index.shards[0].labels
    buffers = _InlineBuffers(labels)
    executor = ShardExecutor()
    executor.values = labels.values.copy()
    vertices = np.array([3, 0, labels.num_vertices - 1])
    runs = [np.arange(labels.offsets[v], labels.offsets[v + 1]) for v in vertices]
    written = np.concatenate(runs)[::2]
    labels.values[written] += 1.0
    fields = buffers.delta(labels, written)
    assert fields["positions"] is written
    np.testing.assert_array_equal(fields["payload"], labels.values[written])
    assert isinstance(executor.apply_delta(EpochDelta(epoch=1, **fields)), AckReply)
    np.testing.assert_array_equal(executor.values, labels.values)
    assert executor.epoch == 1


def test_placement_maps_written_positions_or_refuses(transport):
    """While the parent's store holds the offsets array it published,
    written positions ship as they are; once the shard's labels are
    swapped (a copy, a rebuild on the same H_Q) they cannot be placed."""
    index = build_sharded(grid_network(12, 12))
    shard = index.shards[0]
    labels = shard.labels
    buffers = transport.channel_type.buffers(labels)
    try:
        written = np.array([5, 0, len(labels.values) - 1], dtype=np.int64)
        assert buffers.place(labels, written) is written
        # A swapped value buffer (a mapped store's first write) keeps
        # the offsets array, so the layout.
        labels.values = labels.values.copy()
        assert buffers.place(labels, written) is written
        assert buffers.place(labels.copy(), written) is None
        assert buffers.place(build_labelling(shard.hu), written) is None
    finally:
        buffers.destroy()


def test_a_swapped_shard_store_republishes_only_that_shard(transport):
    """Shard 0 adopts a rebuild of its labels on the same H_Q: the next
    burst republishes it alone — every other touched shard ships a
    delta — and later bursts are deltas again."""
    index = build_sharded(grid_network(12, 12))
    region_of = index.region_of
    burst = [
        next(
            (u, v, 3 * w)
            for u, v, w in index.graph.edges()
            if region_of[u] == r == region_of[v]
        )
        for r in range(index.k)
    ]
    with transport(index) as runtime:
        shard = index.shards[0]
        shard._adopt(shard.hq, shard.hu, (build_labelling(shard.hu),))
        stats = runtime.apply_update(burst)
        assert set(stats.touched_shards) == set(range(index.k))
        assert runtime.stats.republishes == 1
        assert runtime.stats.delta_syncs == index.k - 1
        runtime.apply_update([(u, v, w / 3) for u, v, w in burst])
        assert runtime.stats.republishes == 1
        assert runtime.stats.delta_syncs == 2 * index.k - 1
        for sid, buffers in enumerate(runtime._buffers):
            assert buffers._source is index.shards[sid].labels.offsets
            if isinstance(buffers, _ShmBuffers):
                np.testing.assert_array_equal(
                    buffers.segments[0].array, index.shards[sid].labels.values
                )
        _all_pairs_match_dijkstra(runtime.distances, index.graph)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["burst", "cut", "insert", "delete", "compact", "reload"]),
        st.integers(0, 2**31),
    ),
    min_size=1,
    max_size=6,
)


def _step(index: ShardedDHLIndex, op: str, seed: int) -> ShardedDHLIndex:
    rng = random.Random(seed)
    graph, region_of = index.graph, index.region_of
    live = [(u, v, w) for u, v, w in graph.edges() if math.isfinite(w)]
    cut = [(u, v, w) for u, v, w in live if region_of[u] != region_of[v]]
    if op == "burst" and live:
        picks = rng.sample(live, min(6, len(live)))
        index.update([(u, v, float(rng.randint(1, 3000))) for u, v, _ in picks])
    elif op == "cut" and cut:
        u, v, w = rng.choice(cut)
        index.update([(u, v, rng.choice([2 * w, max(1.0, w // 2)]))])
    elif op == "insert":
        n = graph.num_vertices
        while True:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and not graph.has_edge(a, b):
                break
        index.apply_batch(insertions=[(a, b, float(rng.randint(1, 3000)))])
    elif op == "delete" and live:
        u, v, _ = rng.choice(live)
        index.apply_batch(deletions=[(u, v)])
    elif op == "compact":
        index.compact()
    elif op == "reload":
        with tempfile.TemporaryDirectory() as tmp:
            index.save(Path(tmp) / "index")
            index = ShardedDHLIndex.load(Path(tmp) / "index")
    return index


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_OPS)
def test_held_cliques_equal_overlay_weights_under_any_interleaving(ops):
    index = build_sharded(grid_network(8, 8, seed=1))
    _assert_cliques_held(index)
    for op, seed in ops:
        index = _step(index, op, seed)
        _assert_cliques_held(index)
        _all_pairs_match_dijkstra(index.distances, index.graph)


# ---------------------------------------------------------------------------
# compaction keeps the overlay's deleted clique slots
# ---------------------------------------------------------------------------

def _isolate_boundary_vertex(index: ShardedDHLIndex) -> list[tuple[int, int]]:
    """Both intra-region roads of boundary vertex 24 of the 8x8 grid."""
    assert index.overlay_of[24] >= 0
    return [
        (24, v)
        for v in index.graph.neighbors(24)
        if index.region_of[v] == index.region_of[24]
    ]


def _infinite_overlay_edges(index: ShardedDHLIndex) -> int:
    return sum(math.isinf(w) for _, _, w in index.overlay.graph.edges())


def test_compaction_keeps_clique_slots_for_a_reconnecting_insertion():
    index = build_sharded(grid_network(8, 8, seed=1))
    index.apply_batch(deletions=_isolate_boundary_vertex(index))
    assert _infinite_overlay_edges(index) == 7
    edges = index.overlay.graph.num_edges
    index.compact()
    assert index.overlay.graph.num_edges == edges
    assert _infinite_overlay_edges(index) == 7
    index.apply_batch(insertions=[(24, 16, 1967.0)])
    assert _infinite_overlay_edges(index) == 0
    _assert_cliques_held(index)
    _all_pairs_match_dijkstra(index.distances, index.graph)
    index.verify()


def test_compaction_then_reconnecting_insertion_through_the_runtime():
    index = build_sharded(grid_network(8, 8, seed=1))
    with ShardWorkerRuntime(index) as runtime:
        runtime.apply_structural(deletions=_isolate_boundary_vertex(index))
        runtime.compact()
        runtime.apply_structural(insertions=[(24, 16, 1967.0)])
        _assert_cliques_held(index)
        _all_pairs_match_dijkstra(runtime.distances, index.graph)


@pytest.mark.parametrize("k", [2, 3])
def test_loaded_index_holds_the_saved_clique_weights(tmp_path, k):
    index = build_sharded(grid_network(10, 10), k=k)
    index.update([(u, v, 2 * w) for u, v, w in list(index.graph.edges())[::7]])
    index.save(tmp_path / "index")
    loaded = ShardedDHLIndex.load(tmp_path / "index")
    assert len(loaded.cliques) == len(index.cliques) == k
    for held, saved in zip(loaded.cliques, index.cliques):
        np.testing.assert_array_equal(held, saved)
    _assert_cliques_held(loaded)

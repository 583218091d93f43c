"""Sharded index: equivalence, routing, persistence, service integration."""

from __future__ import annotations

import math
import platform

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import PartitionError, SerializationError, VertexNotFound
from repro.graph.generators import delaunay_network, grid_network
from repro.labelling.maintenance import MaintenanceStats
from repro.partition.regions import partition_regions, regions_from_assignment
from repro.service.service import DistanceService
from repro.service.workload import commute_traffic, replay
from repro.sharding.stats import ShardedMaintenanceStats
from tests.strategies import connected_graphs, update_sequences


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(s, t) for s in range(n) for t in range(n)]


def assert_matches_monolithic_and_dijkstra(graph, sharded, mono) -> None:
    n = graph.num_vertices
    pairs = all_pairs(n)
    got = sharded.distances(pairs)
    want = mono.distances(pairs)
    np.testing.assert_array_equal(got, want)
    for s in range(n):
        dist = dijkstra(graph, s)
        np.testing.assert_array_equal(got[s * n : (s + 1) * n], dist)


# ---------------------------------------------------------------------------
# region partition
# ---------------------------------------------------------------------------

def test_partition_regions_covers_all_vertices():
    graph = delaunay_network(200, seed=5, style="city", edge_factor=1.35)
    partition = partition_regions(graph, 4, seed=0)
    partition.validate()
    assert partition.k == 4
    assert sorted(v for r in partition.regions for v in r) == list(range(200))
    # Boundary vertices are exactly the cut-edge endpoints.
    endpoints = {u for u, _, _ in partition.cut_edges}
    endpoints |= {v for _, v, _ in partition.cut_edges}
    assert set(partition.boundary_vertices()) == endpoints


def test_partition_regions_clamps_k():
    graph = delaunay_network(64, seed=1)
    partition = partition_regions(graph, 500, seed=0)
    assert partition.k == 64
    assert all(len(r) == 1 for r in partition.regions)


def test_partition_regions_single_region():
    graph = grid_network(4, 4)
    partition = partition_regions(graph, 1)
    assert partition.k == 1
    assert partition.cut_edges == []
    assert partition.boundary == [[]]


def test_partition_regions_rejects_bad_k():
    graph = grid_network(3, 3)
    with pytest.raises(PartitionError):
        partition_regions(graph, 0)


def test_regions_from_assignment_roundtrip():
    graph = delaunay_network(150, seed=2)
    partition = partition_regions(graph, 3, seed=0)
    rebuilt = regions_from_assignment(graph, partition.region_of)
    assert rebuilt.regions == partition.regions
    assert rebuilt.boundary == partition.boundary
    assert rebuilt.cut_edges == partition.cut_edges
    with pytest.raises(PartitionError):
        regions_from_assignment(graph, partition.region_of[:-1])


# ---------------------------------------------------------------------------
# equivalence (acceptance property test)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 4])
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=connected_graphs(min_n=6, max_n=20))
def test_sharded_matches_monolithic_and_dijkstra(data, k):
    graph = data
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = ShardedDHLIndex.build(graph.copy(), k=k, config=DHLConfig(seed=0))
    assert_matches_monolithic_and_dijkstra(graph, sharded, mono)


@pytest.mark.parametrize("k", [2, 4])
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=connected_graphs(min_n=6, max_n=16).flatmap(
    lambda g: update_sequences(g, max_steps=4, max_batch=3).map(lambda s: (g, s))
))
def test_sharded_matches_after_interleaved_updates(data, k):
    graph, sequence = data
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = ShardedDHLIndex.build(graph.copy(), k=k, config=DHLConfig(seed=0))
    reference = graph.copy()
    for batch in sequence:
        mono.update(batch)
        sharded.update(batch)
        for u, v, w in batch:
            reference.set_weight(u, v, w)
        assert_matches_monolithic_and_dijkstra(reference, sharded, mono)


# ---------------------------------------------------------------------------
# routing and maintenance behaviour
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def road_pair():
    graph = delaunay_network(260, seed=11, style="city", edge_factor=1.35)
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    sharded = ShardedDHLIndex.build(graph.copy(), k=4, config=DHLConfig(seed=0))
    return graph, mono, sharded


def test_intra_region_update_touches_only_owning_shard(road_pair):
    graph, _, sharded = road_pair
    rid = max(range(sharded.k), key=lambda i: len(sharded.shard_vertices[i]))
    region = set(sharded.shard_vertices[rid].tolist())
    u, v, w = next(
        (u, v, w)
        for u, v, w in sharded.graph.edges()
        if u in region and v in region
    )
    stats = sharded.update([(u, v, 3.0 * w)])
    try:
        assert stats.touched_shards == [rid]
        assert stats.per_shard[rid].labels_changed >= 0
        assert stats.labels_changed == (
            stats.per_shard[rid].labels_changed
            + stats.overlay_stats.labels_changed
        )
    finally:
        sharded.update([(u, v, w)])


def test_cut_edge_update_routes_to_overlay(road_pair):
    graph, mono, sharded = road_pair
    assert sharded.partition.cut_edges, "expected cut edges at k=4"
    u, v, w = sharded.partition.cut_edges[0]
    stats = sharded.update([(u, v, 2.0 * w)])
    mono.update([(u, v, 2.0 * w)])
    try:
        assert stats.per_shard == {}  # no shard saw the cut edge
        assert stats.overlay_stats.labels_changed >= 0
        pairs = [(u, v), (v, u), (0, graph.num_vertices - 1)]
        np.testing.assert_array_equal(
            sharded.distances(pairs), mono.distances(pairs)
        )
    finally:
        sharded.update([(u, v, w)])
        mono.update([(u, v, w)])


def test_absorb_maps_ids_and_keeps_the_last_old_weight():
    """One fancy index maps a component's stats to global ids; a
    shortcut two components report keeps the old weight absorbed last."""
    stats = ShardedMaintenanceStats()
    first = MaintenanceStats(
        shortcuts_changed=2,
        labels_changed=3,
        entries_processed=4,
        affected_shortcuts={(0, 1): 5.0, (2, 1): 7.0},
        affected_labels={0, 2},
        phases={"increase.seed": 1.0},
    )
    second = MaintenanceStats(
        shortcuts_changed=1,
        affected_shortcuts={(1, 0): 9.0},
        affected_labels={0},
        phases={"increase.seed": 0.5},
    )
    stats.absorb(first, [10, 20, 30])
    stats.absorb(second, np.array([20, 10], dtype=np.int32))
    stats.absorb(MaintenanceStats(), np.array([], dtype=np.int64))
    assert stats.affected_shortcuts == {(10, 20): 9.0, (30, 20): 7.0}
    assert stats.affected_labels == {10, 20, 30}
    keys = [v for key in stats.affected_shortcuts for v in key]
    assert all(type(v) is int for v in keys + list(stats.affected_labels))
    assert (stats.shortcuts_changed, stats.labels_changed) == (3, 3)
    assert stats.entries_processed == 4
    assert stats.phases == {"increase.seed": 1.5}


def test_epoch_bumps_once_per_applied_batch(road_pair):
    _, _, sharded = road_pair
    before = sharded.epoch
    u, v, w = next(iter(sharded.graph.edges()))
    sharded.update([(u, v, w)])  # no-op: weight unchanged
    assert sharded.epoch == before
    sharded.update([(u, v, 2.0 * w)])
    assert sharded.epoch == before + 1
    # The batch folds to the final weight w (one real change back from
    # 2w), so exactly one more epoch — not two.
    sharded.update([(u, v, 5.0 * w), (v, u, w)])
    assert sharded.epoch == before + 2
    assert sharded.graph.weight(u, v) == w
    # Folding a batch whose net effect equals the live weight applies
    # nothing and leaves the epoch alone.
    sharded.update([(u, v, 5.0 * w), (v, u, w)])
    assert sharded.epoch == before + 2


def test_update_coalesced_last_write_wins(road_pair):
    graph, mono, sharded = road_pair
    u, v, w = next(iter(sharded.graph.edges()))
    sharded.update([(u, v, 9.0 * w), (v, u, 4.0 * w)])
    mono.update([(u, v, 4.0 * w)])
    assert sharded.graph.weight(u, v) == 4.0 * w
    pairs = [(u, v), (u, (v + 7) % graph.num_vertices)]
    np.testing.assert_array_equal(sharded.distances(pairs), mono.distances(pairs))
    sharded.update([(u, v, w)])
    mono.update([(u, v, w)])


@pytest.mark.parametrize(
    "bad", [(0, -1), (-2, 5), (0, None)], ids=["0,-1", "-2,5", "0,n"]
)
def test_ids_outside_the_graph_raise_vertex_not_found(road_pair, bad):
    """``(0, -1)`` used to answer d(0, n - 1) and ``(0, n)`` raised a bare
    IndexError: every door now checks ``[0, n)`` once."""
    graph, _, sharded = road_pair
    n = graph.num_vertices
    s, t = (n if v is None else v for v in bad)
    with pytest.raises(VertexNotFound):
        sharded.distances([(s, t)])
    with pytest.raises(VertexNotFound):
        sharded.distances(np.array([(1, 2), (s, t)]))
    with pytest.raises(VertexNotFound):
        sharded.distance(s, t)
    with pytest.raises(VertexNotFound):
        sharded.distances_from(s, [t])
    with pytest.raises(VertexNotFound):
        sharded.distances_from(0, [3, s, t])


@pytest.mark.parametrize("family", ["mono", "sharded"])
@pytest.mark.parametrize("bad", [-1, None], ids=["-1", "n"])
def test_search_space_size_checks_ids(road_pair, family, bad):
    """``search_space_size(-1, 5)`` used to wrap onto vertex n - 1 and
    ``(n, 5)`` raised a bare IndexError, on both engines."""
    graph, mono, sharded = road_pair
    engine = (mono if family == "mono" else sharded).engine
    with pytest.raises(VertexNotFound):
        engine.search_space_size(graph.num_vertices if bad is None else bad, 5)


def test_facade_helpers(road_pair):
    graph, mono, sharded = road_pair
    n = graph.num_vertices
    targets = list(range(0, n, 7))
    np.testing.assert_array_equal(
        sharded.distances_from(3, targets), mono.distances_from(3, targets)
    )
    assert sharded.k_nearest(3, targets, 4) == mono.k_nearest(3, targets, 4)
    assert sharded.distance(3, 3) == 0.0
    assert math.isfinite(sharded.distance(0, n - 1))
    stats = sharded.stats()
    assert stats.k == 4
    assert len(stats.shards) == 4
    assert stats.label_entries > 0


def test_single_region_has_no_overlay():
    graph = grid_network(5, 5)
    sharded = ShardedDHLIndex.build(graph.copy(), k=1, config=DHLConfig(seed=0))
    assert sharded.overlay is None
    mono = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    pairs = all_pairs(graph.num_vertices)
    np.testing.assert_array_equal(sharded.distances(pairs), mono.distances(pairs))


def test_a_sharded_build_starts_no_child_process(monkeypatch):
    """Every shard builds in the calling process: no process object is
    started, nothing is forked and no subprocess runs."""
    import multiprocessing.process
    import os
    import subprocess

    graph = grid_network(12, 12, seed=2)
    DHLIndex.build(graph.copy(), DHLConfig(seed=0))  # the library is loaded
    started = []

    def refuse(name):
        def call(*args, **kwargs):
            started.append(name)
            raise AssertionError(f"{name} called during a sharded build")

        return call

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", refuse("Process.start")
    )
    monkeypatch.setattr(os, "fork", refuse("os.fork"))
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse("Popen"))
    sharded = ShardedDHLIndex.build(graph.copy(), k=3, config=DHLConfig(seed=0))
    assert started == []
    build = sharded.stats().build
    assert len(build.per_shard_seconds) == sharded.k == 3
    assert build.total_seconds == sum(build.per_shard_seconds) > 0.0


#: Two 512 KiB temporaries alive at once, freed, made again: the
#: pattern glibc's default thresholds hand back to the kernel each time.
PAIRED_TEMPORARIES = """
import resource
import numpy as np
from repro.core.config import DHLConfig
from repro.core.sharded import ShardedDHLIndex
from repro.graph.generators import grid_network

ShardedDHLIndex.build(grid_network(8, 8, seed=2), k=2, config=DHLConfig(seed=0))

def faults(rounds):
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(rounds):
        a, b = np.ones(1 << 16), np.ones(1 << 16)
        del a, b
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

faults(3)
print(faults(20))
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="glibc's mallopt and RUSAGE_THREAD"
)
def test_a_sharded_build_keeps_freed_heap_blocks_mapped():
    """After a sharded build, temporaries freed at the top of the heap
    stay mapped: making them again faults no page in. Run in a fresh
    interpreter, whose glibc thresholds nothing else has raised yet."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", PAIRED_TEMPORARIES],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert int(result.stdout.split()[-1]) == 0


@pytest.mark.parametrize("k", [2, 4])
def test_shards_and_overlay_are_the_builds_of_their_regions(k):
    """Each shard has every label byte of ``DHLIndex.build`` over its
    region's induced subgraph, and the overlay every byte of
    ``DHLIndex.build`` over the boundary graph its cliques make."""
    from repro.sharding.overlay import build_overlay_graph

    graph = delaunay_network(180, seed=9, style="city", edge_factor=1.35)
    config = DHLConfig(seed=0)
    sharded = ShardedDHLIndex.build(graph.copy(), k=k, config=config)
    for shard, region in zip(sharded.shards, sharded.partition.regions, strict=True):
        alone = DHLIndex.build(graph.induced_subgraph(region)[0], config)
        assert shard.labels.values.tobytes() == alone.labels.values.tobytes()
        assert shard.labels.offsets.tobytes() == alone.labels.offsets.tobytes()
    boundary = build_overlay_graph(
        sharded.cliques,
        sharded.boundary_overlay,
        sharded.partition.cut_edges,
        sharded.overlay_of,
        len(sharded.boundary_global),
    )
    overlay = DHLIndex.build(boundary, config)
    assert sharded.overlay.labels.values.tobytes() == overlay.labels.values.tobytes()


def test_pickled_index_still_maintains_correctly():
    """An index crosses process boundaries by pickle.

    Maintenance on an unpickled index (pickled twice, so a clone of a
    clone) must write into the clone's own label buffer and serve the
    distances the original serves. Guard the explicit pickle path.
    """
    import pickle

    graph = delaunay_network(150, seed=4, style="city", edge_factor=1.35)
    reference = DHLIndex.build(graph.copy(), DHLConfig(seed=0))
    shipped = pickle.loads(pickle.dumps(reference))
    shipped = pickle.loads(pickle.dumps(shipped))
    u, v, w = next(iter(graph.edges()))
    reference.update([(u, v, 4.0 * w)])
    shipped.update([(u, v, 4.0 * w)])
    pairs = all_pairs(min(graph.num_vertices, 40))
    np.testing.assert_array_equal(
        shipped.distances(pairs), reference.distances(pairs)
    )


# ---------------------------------------------------------------------------
# persistence (format v3)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mmap_labels", [False, True])
def test_sharded_save_load_roundtrip(tmp_path, road_pair, mmap_labels):
    graph, mono, sharded = road_pair
    path = tmp_path / "snapshot"
    sharded.save(path)
    assert (path / "shard_00" / "label_values.npy").exists()
    assert (path / "overlay" / "manifest.json").exists()
    loaded = ShardedDHLIndex.load(path, mmap_labels=mmap_labels)
    assert loaded.k == sharded.k
    pairs = [(0, graph.num_vertices - 1), (5, 9), (17, 17)]
    np.testing.assert_array_equal(loaded.distances(pairs), sharded.distances(pairs))
    # Maintenance after load (materialises writable labels under mmap).
    u, v, w = next(iter(loaded.graph.edges()))
    loaded.update([(u, v, 2.0 * w)])
    mono.update([(u, v, 2.0 * w)])
    try:
        np.testing.assert_array_equal(
            loaded.distances(pairs), mono.distances(pairs)
        )
    finally:
        mono.update([(u, v, w)])


def test_sharded_load_rejects_wrong_dir(tmp_path, road_pair):
    _, mono, _ = road_pair
    mono.save(tmp_path / "mono")
    with pytest.raises(SerializationError):
        ShardedDHLIndex.load(tmp_path / "mono")
    with pytest.raises(SerializationError):
        ShardedDHLIndex.load(tmp_path / "nothing-here")


# ---------------------------------------------------------------------------
# serving layer integration
# ---------------------------------------------------------------------------

def test_service_accepts_sharded_backend(road_pair):
    graph, _, _ = road_pair
    sharded = ShardedDHLIndex.build(graph.copy(), k=4, config=DHLConfig(seed=0))
    events = commute_traffic(
        graph,
        sharded.region_of,
        boundary=sharded.partition.boundary,
        query_batches=6,
        batch_size=60,
        seed=3,
    )
    mono_service = DistanceService(DHLIndex.build(graph.copy(), DHLConfig(seed=0)))
    shard_service = DistanceService(sharded)
    mono_report = replay(mono_service, events)
    shard_report = replay(shard_service, events)
    assert round(mono_report.distance_checksum, 6) == round(
        shard_report.distance_checksum, 6
    )

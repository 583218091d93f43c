"""Batch-dynamic structural updates: differential and compaction tests.

A mixed batch of insertions, deletions and weight changes applied
through ``apply_batch`` must leave queried distances equal to Dijkstra
on the mutated graph, across the undirected, directed and sharded
backends, on the C sweeps and on their oracle. Compaction must reclaim
dead slots without moving any distance, and compacted indexes must
survive snapshot round-trips and worker-pool republish. That random
scripts of batches, interleaved with compaction and snapshots, leave a
monolithic index equal to a fresh build is the model-based oracle's job
(``tests/test_index_model.py``).
"""
from __future__ import annotations

import math
import random
from contextlib import nullcontext

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra, dijkstra_distance
from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import StructuralFallbackRequired
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, random_connected_graph
from repro.graph.graph import Graph
from repro.hierarchy.csr import compact_slots
from repro.service import DistanceService, ShardWorkerRuntime
from repro.service.coalescer import UpdateCoalescer
from tests.conftest import directed_dijkstra
from tests.oracles.kernels import python_kernels


def assert_matches_dijkstra(index, graph, pairs):
    for s, t in pairs:
        got = index.distance(s, t)
        ref = dijkstra_distance(graph, s, t)
        if math.isinf(ref):
            assert math.isinf(got), (s, t, got, ref)
        else:
            assert got == pytest.approx(ref, abs=1e-9), (s, t, got, ref)


def sample_pairs(n, rng, count=25):
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def test_c_and_oracle_sweeps_agree_on_structural_batches():
    """A fixed mixed script of deletions, raises, restores and new links
    leaves the same bits on the C sweeps as on their oracle."""
    graph = delaunay_network(150, seed=21)
    cfg = DHLConfig(leaf_size=6, seed=0)
    indexes = [DHLIndex.build(graph.copy(), cfg)]
    with python_kernels():
        indexes.append(DHLIndex.build(graph.copy(), cfg))
    rng = random.Random(99)
    edges = [(u, v) for u, v, _ in graph.edges()]
    dels = rng.sample(edges, 8)
    # restore two, insert two new links
    restores = [(u, v, 2.0) for u, v in dels[:2]]
    n = graph.num_vertices
    new_links = []
    while len(new_links) < 2:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not graph.has_edge(a, b):
            new_links.append((a, b, float(rng.randint(1, 20))))
    for index, kernels in zip(indexes, (nullcontext, python_kernels)):
        with kernels():
            index.apply_batch(deletions=dels[:5], weight_changes=[
                (u, v, graph.weight(u, v) * 3.0) for u, v in dels[5:]
            ])
            index.apply_batch(insertions=restores + new_links)
        assert_matches_dijkstra(index, index.graph, sample_pairs(n, rng, 40))
        index.verify()
    compiled, oracle = indexes
    assert compiled.labels.equals(oracle.labels)
    assert compiled.hu.up_weights.tobytes() == oracle.hu.up_weights.tobytes()


def test_insert_fast_path_fires_on_comparable_pairs(small_index):
    """Comparable non-adjacent endpoints take the slot-extension path."""
    index = small_index
    hq = index.hq
    n = index.graph.num_vertices
    pair = None
    for u in range(n):
        for v in range(u + 1, n):
            if hq.comparable(u, v) and not index.graph.has_edge(u, v):
                pair = (u, v)
                break
        if pair:
            break
    if pair is None:
        pytest.skip("no comparable non-adjacent pair on this fixture")
    before = dict(index.structural_counters)
    stats = index.apply_batch(insertions=[(pair[0], pair[1], 1.5)])
    after = index.structural_counters
    assert stats.fastpath_inserts == 1
    assert stats.new_slots >= 1
    assert after["fastpath_inserts"] == before.get("fastpath_inserts", 0) + 1
    assert after["fallback_rebuilds"] == before.get("fallback_rebuilds", 0)
    assert index.distance(*pair) <= 1.5
    rng = random.Random(3)
    assert_matches_dijkstra(index, index.graph, sample_pairs(n, rng, 20))


def test_insert_closure_limit_zero_disables_fast_path(small_road):
    cfg = DHLConfig(leaf_size=6, seed=0, insert_closure_limit=0)
    index = DHLIndex.build(small_road.copy(), cfg)
    hq = index.hq
    n = index.graph.num_vertices
    pair = next(
        (
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if hq.comparable(u, v) and not index.graph.has_edge(u, v)
        ),
        None,
    )
    if pair is None:
        pytest.skip("no comparable non-adjacent pair on this fixture")
    stats = index.apply_batch(insertions=[(pair[0], pair[1], 1.5)])
    assert stats.fastpath_inserts == 0
    assert stats.fallback_rebuilds == 1
    assert index.distance(*pair) <= 1.5


def test_insert_fast_path_builds_what_the_rebuild_tier_builds(small_road):
    """Four comparable links in one batch: the slot-extension fast path
    and the fallback rebuild (``insert_closure_limit=0``) must leave
    bit-equal labels — the fast path is a shortcut, not an
    approximation."""
    fast, rebuilt = (
        DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=6, seed=0, **extra))
        for extra in ({}, {"insert_closure_limit": 0})
    )
    hq, n = fast.hq, small_road.num_vertices
    links = []
    for a in range(n):
        b = next(
            (
                b
                for b in range(a + 1, n)
                if hq.comparable(a, b) and not small_road.has_edge(a, b)
            ),
            None,
        )
        if b is not None:
            # Slightly better than the current route: real label work.
            links.append((a, b, float(max(1, round(0.95 * fast.distance(a, b))))))
        if len(links) == 4:
            break
    a = fast.apply_batch(insertions=links)
    b = rebuilt.apply_batch(insertions=links)
    assert (a.fastpath_inserts, a.fallback_rebuilds) == (4, 0)
    assert (b.fastpath_inserts, b.fallback_rebuilds) == (0, 1)
    assert fast.labels.equals(rebuilt.labels)
    assert a.maintenance.labels_changed > 0


def test_already_deleted_counter(small_index):
    index = small_index
    u, v, _ = next(iter(index.graph.edges()))
    index.apply_batch(deletions=[(u, v)])
    stats = index.apply_batch(deletions=[(u, v)])
    assert stats.already_deleted == 1
    assert stats.maintenance.labels_changed == 0
    assert index.structural_counters["already_deleted_edges"] >= 1
    # deleting a never-existing edge counts too, instead of raising
    n = index.graph.num_vertices
    a, b = 0, n - 1
    if not index.graph.has_edge(a, b):
        stats = index.apply_batch(deletions=[(a, b)])
        assert stats.already_deleted == 1


def test_delete_vertex_snapshot_semantics(small_index):
    """delete_vertex must snapshot the neighbor view before mutating it."""
    index = small_index
    v = max(
        range(index.graph.num_vertices),
        key=lambda x: len(index.graph.neighbors(x)),
    )
    degree = sum(
        1 for w in index.graph.neighbors(v).values() if math.isfinite(w)
    )
    assert degree >= 2
    stats = index.delete_vertex(v)
    # every incident edge went dead in one merged batch
    assert all(
        math.isinf(w) for w in index.graph.neighbors(v).values()
    )
    assert stats.labels_changed > 0
    other = 0 if v != 0 else 1
    assert math.isinf(index.distance(other, v))


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------

def _held_bytes(index) -> int:
    """The shortcut store plus every label buffer: compaction shrinks
    the store alone (label rows are exactly ``tau + 1`` entries)."""
    return index.hu.memory_bytes() + sum(
        labels.values.nbytes + labels.offsets.nbytes
        for labels in index.labellings
    )


def _kill_edges(index, count, rng):
    edges = [(u, v) for u, v, w in index.graph.edges() if math.isfinite(w)]
    victims = rng.sample(edges, min(count, len(edges) - 1))
    index.apply_batch(deletions=victims)
    return victims


def test_compaction_reclaims_dead_slots(small_road):
    cfg = DHLConfig(leaf_size=6, seed=0)
    index = DHLIndex.build(small_road.copy(), cfg)
    rng = random.Random(31)
    _kill_edges(index, 60, rng)
    frac_before = index.dead_fraction
    assert frac_before > 0.0
    reference = {
        (s, t): index.distance(s, t)
        for s, t in sample_pairs(index.graph.num_vertices, rng, 60)
    }
    held = _held_bytes(index)
    stats = index.compact()
    assert stats.dead_slots_reclaimed > 0
    assert stats.bytes_reclaimed == held - _held_bytes(index) > 0
    assert index.dead_fraction < frac_before
    for (s, t), ref in reference.items():
        got = index.distance(s, t)
        assert (math.isinf(got) and math.isinf(ref)) or got == pytest.approx(
            ref, abs=1e-9
        )
    index.verify()
    assert index.structural_counters["dead_slots_reclaimed"] > 0


@pytest.mark.usefixtures("on_kernels")
def test_restore_after_compaction_reinserts(small_road):
    """A weight report on a compacted-away edge re-enters via insertion."""
    cfg = DHLConfig(leaf_size=6, seed=0)
    index = DHLIndex.build(small_road.copy(), cfg)
    u, v, w = next(iter(index.graph.edges()))
    index.apply_batch(deletions=[(u, v)])
    index.compact()
    assert not index.graph.has_edge(u, v)
    index.apply_batch(insertions=[(u, v, w)])
    assert index.graph.weight(u, v) == w
    assert index.distance(u, v) == pytest.approx(
        dijkstra_distance(index.graph, u, v)
    )


def _drop_pair(hu, a, b) -> None:
    """Remove one shortcut pair from the store, the way a compaction pass
    that found it infinite would have."""
    keep = np.ones(hu.csr.num_slots, dtype=bool)
    keep[hu.cells_of(a, b) % hu.csr.num_slots] = False
    compact_slots(hu, keep)


def _triangle_over(index, need_edge: bool):
    """``(x, p, q, o)``: x's up-row holds p and q with ``w(q, x) < w(q, p)``,
    and p's holds a vertex o outside x's row, contracted after q — so
    lowering ``x -> p`` far enough lowers ``q -> p`` (not ``o -> p``),
    whose relaxation then looks the pair ``(q, o)`` up in q's up-row.
    *need_edge* picks whether ``x -> p`` must or must not be in the graph.
    """
    hu = index.hu
    has_edge = index.graph.has_edge
    for x in range(hu.csr.n):
        row = hu.csr.row(x).tolist()
        for i, p in enumerate(row):
            if has_edge(x, p) != need_edge:
                continue
            for q in row[i + 1 :]:
                others = [
                    o
                    for o in hu.csr.row(p).tolist()
                    if o not in row and hu.rank[q] < hu.rank[o]
                ]
                if others and hu.weight(q, x) < hu.weight(q, p):
                    return x, p, q, others[0]
    raise AssertionError("fixture has no such triangle")


#: Both families run the driver's sweeps, so the compacted-slot guard
#: must hold for each of them, on the C sweeps and on their oracle.
FAMILIES = {
    "undirected": lambda graph, config: DHLIndex.build(graph.copy(), config),
    "directed": lambda graph, config: DirectedDHLIndex.build(
        DiGraph.from_undirected(graph), config
    ),
}

#: Each family's exact oracle over ``index.graph``.
ROAD_DIJKSTRA = {"undirected": dijkstra, "directed": directed_dijkstra}


@pytest.mark.parametrize("kernels", [nullcontext, python_kernels], ids=["c", "oracle"])
def test_decrease_onto_compacted_slot_raises_on_every_sweep(kernels, small_road):
    """The compacted-slot guard is part of the sweep contract: a finite
    candidate for a removed pair must surface, not be skipped. The pop
    of ``(x, p)`` before it has seen p's up-row, which holds ``o``: a
    slot map the C sweep did not clear after that pop would hand
    ``(q, o)`` the slot of ``(p, o)``."""
    for build in FAMILIES.values():
        index = build(small_road, DHLConfig(leaf_size=6, seed=0))
        x, p, q, o = _triangle_over(index, need_edge=True)
        _drop_pair(index.hu, q, o)
        with kernels(), pytest.raises(StructuralFallbackRequired):
            index.decrease([(x, p, 0.0)])


@pytest.mark.usefixtures("on_kernels")
def test_insertion_onto_compacted_slot_falls_back_to_rebuild(small_road):
    for family, build in FAMILIES.items():
        index = build(small_road, DHLConfig(leaf_size=6, seed=0))
        x, p, q, o = _triangle_over(index, need_edge=False)
        _drop_pair(index.hu, q, o)
        stats = index.apply_batch(insertions=[(x, p, 0.0)])
        assert stats.fallback_rebuilds == 1 and stats.fastpath_inserts == 0
        index.verify()
        for s, t in sample_pairs(index.graph.num_vertices, random.Random(5)):
            assert index.distance(s, t) == ROAD_DIJKSTRA[family](index.graph, s)[t]


def _vertex_pairs(n):
    """Every ``(a, b)`` with ``a < b``, in row order, as two id arrays."""
    return np.triu_indices(n, 1)


def _incomparable_pairs(index, count, below_root=False):
    """A fixed sample of *count* incomparable pairs; with *below_root*,
    only pairs whose LCA node is not the root: their common ancestors
    outnumber the root's members, and a repartition of their LCA
    subtree keeps the rest of the partition tree."""
    a, b = _vertex_pairs(index.graph.num_vertices)
    apart = ~index.hq.comparable(a, b)
    if below_root:
        apart &= index.engine.common_ancestor_counts(a, b) > index.hq.chain[0, 0]
    pairs = list(zip(a[apart].tolist(), b[apart].tolist()))
    return random.Random(3).sample(pairs, count)


def _canonical(graph):
    """*graph* with its adjacency in ``edges()`` order — the order a
    digraph's skeleton has, so both families partition it alike."""
    return Graph.from_edges(graph.num_vertices, graph.edges())


def _assert_bit_equal(index, other):
    """Labels, store weights and slots, and H_Q's five arrays."""
    for labels, twin in zip(index.labellings, other.labellings, strict=True):
        assert labels.values.tobytes() == twin.values.tobytes()
        assert labels.offsets.tobytes() == twin.offsets.tobytes()
    assert index.hu.up_weights.tobytes() == other.hu.up_weights.tobytes()
    assert index.hu.csr.indices.tobytes() == other.hu.csr.indices.tobytes()
    for name in ("tau", "node_of", "depth", "path", "chain"):
        assert getattr(index.hq, name).tobytes() == getattr(other.hq, name).tobytes()


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_one_insertion_ladder_for_both_families(loaded, tmp_path, small_road):
    """An incomparable insertion repartitions: a fresh partition of the
    LCA subtree is spliced into the partition tree that H_Q's arrays
    encode — in both families, with the same counters. A saved and
    loaded index takes that rung too: its stats, labels, store and H_Q
    end bit-equal to the index it was saved from (a partition from
    scratch would not, for LCAs below the root)."""
    graph = _canonical(small_road)
    outcomes = {}
    for family, build in FAMILIES.items():
        index = build(graph, DHLConfig(leaf_size=6, seed=0))
        (a, b), (c, d) = _incomparable_pairs(index, 2, below_root=True)
        batch = [(a, b, 2.0), (d, c, 3.0)]
        if loaded:
            index.save(tmp_path / family)
            saved_from, index = index, type(index).load(tmp_path / family)
        old_hq = index.hq
        stats = index.apply_batch(insertions=batch)
        assert stats.repartitions == 2 and stats.fallback_rebuilds == 1
        assert stats.fastpath_inserts == 0 and index.hq is not old_hq
        index.verify()
        for s, t in sample_pairs(index.graph.num_vertices, random.Random(5)):
            assert index.distance(s, t) == ROAD_DIJKSTRA[family](index.graph, s)[t]
        if loaded:
            assert saved_from.apply_batch(insertions=batch) == stats
            _assert_bit_equal(index, saved_from)
        outcomes[family] = (stats.repartitions, stats.fallback_rebuilds, index.epoch)
    assert outcomes["undirected"] == outcomes["directed"]


def test_families_agree_on_a_symmetric_digraph(small_road):
    """Same core, same skeleton: equal distances, equal hubs and equal
    structural counters for the same (symmetric) batch."""
    graph = _canonical(small_road)
    config = DHLConfig(leaf_size=6, seed=0, insert_closure_limit=64)
    mono, directed = (build(graph, config) for build in FAMILIES.values())
    rng = random.Random(9)
    edges = [(u, v, w) for u, v, w in graph.edges()]
    victims = rng.sample(edges, 12)
    reweighed = [(u, v, w + 5.0) for u, v, w in rng.sample(edges, 8)]
    a, b = _vertex_pairs(graph.num_vertices)
    near = mono.hq.comparable(a, b)
    comparable = [
        (a, b, 4.0)
        for a, b in zip(a[near].tolist(), b[near].tolist())
        if not graph.has_edge(a, b)
    ]
    new = rng.sample(comparable, 6)

    def both(roads):
        return roads + [(v, u, *w) for u, v, *w in roads]

    batches = (
        dict(deletions=[(u, v) for u, v, _ in victims], weight_changes=reweighed),
        dict(insertions=new),
        dict(insertions=[(*_incomparable_pairs(mono, 1)[0], 6.0)]),
    )
    pairs = sample_pairs(graph.num_vertices, rng, 200)
    for batch in batches:
        a = mono.apply_batch(**batch)
        b = directed.apply_batch(**{k: both(v) for k, v in batch.items()})
        # events and slots are counted once, roads once per arc
        assert (a.fallback_rebuilds, a.new_slots) == (b.fallback_rebuilds, b.new_slots)
        for per_road in ("inserted", "deleted", "fastpath_inserts", "repartitions"):
            assert 2 * getattr(a, per_road) == getattr(b, per_road), per_road
        values, hubs = mono.engine.distances_with_hubs(pairs)
        dvalues, dhubs = directed.engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(values, dvalues)
        np.testing.assert_array_equal(hubs, dhubs)
    assert mono.compact().dead_slots_reclaimed == (
        directed.compact().dead_slots_reclaimed
    )
    directed.verify()


def test_service_follows_a_fallback_rebuild(small_road):
    """A rebuild adopts a new query engine; the in-process runtime must
    not keep answering from the one it first saw."""
    for family, build in FAMILIES.items():
        index = build(small_road, DHLConfig(leaf_size=6, seed=0))
        with DistanceService(index, cache_capacity=1) as service:
            a, b = _incomparable_pairs(index, 1)[0]
            assert index.apply_batch(insertions=[(a, b, 1.0)]).repartitions == 1
            pairs = sample_pairs(index.graph.num_vertices, random.Random(2), 60)
            for (s, t), got in zip(pairs, service.distances(pairs)):
                assert got == ROAD_DIJKSTRA[family](index.graph, s)[t], (s, t)


def test_compaction_roundtrips_v2_snapshot(tmp_path, small_road):
    index = DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=6, seed=0))
    rng = random.Random(7)
    _kill_edges(index, 40, rng)
    index.compact()
    path = tmp_path / "compacted"
    index.save(path)
    loaded = DHLIndex.load(path)
    for s, t in sample_pairs(index.graph.num_vertices, rng, 40):
        a, b = index.distance(s, t), loaded.distance(s, t)
        assert (math.isinf(a) and math.isinf(b)) or a == b
    # a loaded index supports structural work
    loaded.apply_batch(deletions=[next(
        (u, v) for u, v, w in loaded.graph.edges() if math.isfinite(w)
    )])
    loaded.compact()


def test_directed_compaction_roundtrips_v2_snapshot(tmp_path):
    g = random_connected_graph(60, extra_edges=50, seed=8)
    dg = DiGraph.from_undirected(g)
    index = DirectedDHLIndex.build(dg, DHLConfig(leaf_size=4, seed=0))
    rng = random.Random(11)
    arcs = [(u, v) for u, v, _ in index.digraph.arcs()]
    both = rng.sample(arcs, 6)
    dels = [(u, v) for u, v in both] + [(v, u) for u, v in both]
    index.apply_batch(deletions=dels)
    held = _held_bytes(index)
    stats = index.compact()
    assert stats.dead_slots_reclaimed > 0
    assert stats.bytes_reclaimed == held - _held_bytes(index) > 0
    path = tmp_path / "dcompacted"
    index.save(path)
    loaded = DirectedDHLIndex.load(path)
    for s, t in sample_pairs(60, rng, 40):
        a, b = index.distance(s, t), loaded.distance(s, t)
        assert (math.isinf(a) and math.isinf(b)) or a == b


# ---------------------------------------------------------------------------
# directed differential
# ---------------------------------------------------------------------------

def test_directed_batch_matches_dijkstra():
    g = random_connected_graph(60, extra_edges=50, seed=8)
    dg = DiGraph.from_undirected(g)
    rng = random.Random(17)
    index = DirectedDHLIndex.build(dg, DHLConfig(leaf_size=4, seed=0))
    arcs = [(u, v) for u, v, _ in index.digraph.arcs()]
    dels = rng.sample(arcs, 5)
    changes = [
        (u, v, index.digraph.weight(u, v) + 7.0)
        for u, v in rng.sample(arcs, 3)
        if (u, v) not in dels
    ]
    inserts = []
    while len(inserts) < 2:
        a, b = rng.randrange(60), rng.randrange(60)
        if a != b and not index.digraph.has_arc(a, b):
            inserts.append((a, b, float(rng.randint(1, 15))))
    index.apply_batch(
        insertions=inserts, deletions=dels, weight_changes=changes
    )
    for s in range(0, 60, 7):
        ref = directed_dijkstra(index.digraph, s)
        for t in range(0, 60, 3):
            got = index.distance(s, t)
            assert (math.isinf(got) and math.isinf(ref[t])) or got == (
                pytest.approx(ref[t], abs=1e-9)
            ), (s, t)


# ---------------------------------------------------------------------------
# sharded differential + worker republish
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sharded_road():
    graph = delaunay_network(200, seed=23)
    index = ShardedDHLIndex.build(graph.copy(), k=2, config=DHLConfig(seed=0))
    return graph, index


def test_sharded_batch_matches_dijkstra(sharded_road):
    graph, index = sharded_road
    rng = random.Random(41)
    region_of = index.region_of
    edges = [(u, v) for u, v, w in index.graph.edges() if math.isfinite(w)]
    intra = [e for e in edges if region_of[e[0]] == region_of[e[1]]]
    cut = [e for e in edges if region_of[e[0]] != region_of[e[1]]]
    dels = rng.sample(intra, 4) + ([cut[0]] if cut else [])
    inserts = []
    while len(inserts) < 2:
        a, b = rng.randrange(200), rng.randrange(200)
        if a != b and region_of[a] == region_of[b] and not index.graph.has_edge(a, b):
            inserts.append((a, b, float(rng.randint(1, 20))))
    index.apply_batch(insertions=inserts, deletions=dels)
    assert_matches_dijkstra(index, index.graph, sample_pairs(200, rng, 30))
    # cross-region insertion rebuilds boundary structures
    cross = None
    while cross is None:
        a, b = rng.randrange(200), rng.randrange(200)
        if a != b and region_of[a] != region_of[b] and not index.graph.has_edge(a, b):
            cross = (a, b, 4.0)
    index.apply_batch(insertions=[cross])
    assert_matches_dijkstra(index, index.graph, sample_pairs(200, rng, 30))
    index.verify()


def test_sharded_compaction(sharded_road):
    _, index = sharded_road
    rng = random.Random(53)
    edges = [(u, v) for u, v, w in index.graph.edges() if math.isfinite(w)]
    index.apply_batch(deletions=rng.sample(edges, 10))
    frac = index.dead_fraction
    assert frac > 0.0
    reference = {
        (s, t): index.distance(s, t) for s, t in sample_pairs(200, rng, 40)
    }
    stats = index.compact()
    assert stats.dead_slots_reclaimed > 0
    for (s, t), ref in reference.items():
        got = index.distance(s, t)
        assert (math.isinf(got) and math.isinf(ref)) or got == pytest.approx(
            ref, abs=1e-9
        )
    index.verify()


def test_sharded_compaction_roundtrips_v3_snapshot(tmp_path):
    graph = delaunay_network(160, seed=29)
    index = ShardedDHLIndex.build(graph.copy(), k=2, config=DHLConfig(seed=0))
    rng = random.Random(61)
    edges = [(u, v) for u, v, w in index.graph.edges() if math.isfinite(w)]
    index.apply_batch(deletions=rng.sample(edges, 8))
    index.compact()
    path = tmp_path / "scompacted"
    index.save(path)
    loaded = ShardedDHLIndex.load(path)
    for s, t in sample_pairs(160, rng, 40):
        a, b = index.distance(s, t), loaded.distance(s, t)
        assert (math.isinf(a) and math.isinf(b)) or a == b


def test_worker_pool_republishes_after_structural_flush():
    """Label-layout-only structural work rides the full-sync republish."""
    graph = delaunay_network(160, seed=37)
    index = ShardedDHLIndex.build(graph.copy(), k=2, config=DHLConfig(seed=0))
    rng = random.Random(43)
    region_of = index.region_of
    with ShardWorkerRuntime(index) as runtime:
        service = DistanceService(runtime, flush_threshold=64)
        intra = [
            (u, v)
            for u, v, w in index.graph.edges()
            if math.isfinite(w) and region_of[u] == region_of[v]
        ]
        for u, v in rng.sample(intra, 5):
            service.submit_delete(u, v)
        service.flush()
        assert_matches_dijkstra(index, index.graph, sample_pairs(160, rng, 25))
        got = service.distances(sample_pairs(160, rng, 25))
        assert np.all(np.isfinite(got) | np.isinf(got))
        # pooled compaction republishes every shard buffer
        service.compact()
        pairs = sample_pairs(160, rng, 25)
        got = service.distances(pairs)
        for (s, t), d in zip(pairs, got):
            ref = dijkstra_distance(index.graph, s, t)
            assert (math.isinf(d) and math.isinf(ref)) or d == pytest.approx(
                ref, abs=1e-9
            )


# ---------------------------------------------------------------------------
# coalescer state machine
# ---------------------------------------------------------------------------

class TestCoalescerStateMachine:
    def _graph(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        return g

    def test_insert_then_delete_cancels(self):
        c = UpdateCoalescer(Graph.road_key)
        c.add_insert(0, 3, 5.0)
        c.add_delete(0, 3)
        assert len(c) == 0
        assert c.stats().cancelled_pairs == 1

    def test_delete_then_insert_folds_to_weight(self):
        c = UpdateCoalescer(Graph.road_key)
        c.add_delete(0, 1)
        c.add_insert(0, 1, 9.0)
        batch = c.drain(self._graph())
        assert batch.deletions == []
        assert batch.insertions == []
        assert batch.changes == [(0, 1, 9.0)]

    def test_weight_on_queued_insert_folds_into_insert(self):
        c = UpdateCoalescer(Graph.road_key)
        c.add_insert(2, 3, 5.0)
        c.add(2, 3, 7.0)
        batch = c.drain(self._graph())
        assert batch.insertions == [(2, 3, 7.0)]

    def test_weight_on_missing_edge_becomes_insertion(self):
        c = UpdateCoalescer(Graph.road_key)
        c.add(0, 3, 4.0)
        batch = c.drain(self._graph())
        assert batch.insertions == [(0, 3, 4.0)]
        assert batch.is_structural

    def test_plain_weight_batch_not_structural(self):
        c = UpdateCoalescer(Graph.road_key)
        c.add(0, 1, 3.0)
        batch = c.drain(self._graph())
        assert not batch.is_structural
        assert batch.changes == [(0, 1, 3.0)]


# ---------------------------------------------------------------------------
# service integration: auto-compaction + stats
# ---------------------------------------------------------------------------

def test_service_auto_compacts_past_threshold():
    graph = delaunay_network(150, seed=47)
    cfg = DHLConfig(leaf_size=6, seed=0, compaction_threshold=0.02)
    index = DHLIndex.build(graph.copy(), cfg)
    service = DistanceService(index, flush_threshold=512)
    rng = random.Random(3)
    edges = [(u, v) for u, v, w in graph.edges() if math.isfinite(w)]
    for u, v in rng.sample(edges, 30):
        service.submit_delete(u, v)
    service.flush()
    st = service.stats()
    assert st.structural_batches == 1
    assert st.compactions >= 1
    assert st.dead_slots_reclaimed > 0
    assert st.bytes_reclaimed > 0
    assert index.dead_fraction < cfg.compaction_threshold
    assert_matches_dijkstra(index, index.graph, sample_pairs(150, rng, 30))
    service.close()


def test_service_threshold_one_disables_auto_compaction():
    graph = delaunay_network(120, seed=47)
    index = DHLIndex.build(graph.copy(), DHLConfig(leaf_size=6, seed=0))
    assert index.config.compaction_threshold == 1.0 or (
        index.config.compaction_threshold < 1.0
    )
    service = DistanceService(
        DHLIndex.build(
            graph.copy(), DHLConfig(leaf_size=6, seed=0, compaction_threshold=1.0)
        ),
        flush_threshold=512,
    )
    rng = random.Random(5)
    edges = [(u, v) for u, v, _ in graph.edges()]
    for u, v in rng.sample(edges, 20):
        service.submit_delete(u, v)
    service.flush()
    assert service.stats().compactions == 0
    service.close()

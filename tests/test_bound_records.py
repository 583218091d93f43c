"""Bound records: bound once, read cheaply, rebound whenever a buffer
moves.

Each owner of a buffer the kernels read (a label store, the LCA
tables, a shard's boundary and block, the sharded index's routing
state, the shortcut store) keeps one C record of its arrays'
addresses. Two kinds of test hold that contract without a clock:

* *Address counts.* :func:`repro.labelling.native.engine.address` is
  the one place an address is read. Spied on after a warm-up call, a
  one-pair ``DHLIndex.distances``, a replica's sub-query, a sharded
  split and combine, a weight update and a label build read only the
  addresses of their own per-call operands, never one of a buffer an
  owner holds.
* *Rebinding.* Every path that swaps a buffer — a structural insert,
  compaction, copy-on-write of a mapped store, a
  pickle, a save and load, a replica's attach and republish, an
  overlay-epoch change, a boundary rebuild, slot growth and slot
  compaction of the shortcut store — is followed by queries held bit
  for bit to the ``tests/oracles/`` bodies of the gather, set,
  shard-batch, split and combine kernels (or, for the shortcut store,
  an update and a label build held to the sweep and build oracles),
  and by a check that the record now points at the owner's new arrays.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.hierarchy.csr import ShortcutCSR
from repro.labelling.build import build_labelling
from repro.labelling.native import engine as native_engine
from repro.service import ShardExecutor
from repro.service.protocol import (
    ComputeBatch,
    ComputeReply,
    SpecRequest,
    SubQuery,
    decode_frame,
    encode_frame,
)
from repro.sharding.engine import BatchSplit, sub_query
from tests.oracles import query as oracle_query
from tests.oracles.kernels import python_kernels


@pytest.fixture
def reads(monkeypatch) -> list[np.ndarray]:
    """Every array whose address is read from now on."""
    seen: list[np.ndarray] = []
    real = native_engine.address

    def spy(arr):
        seen.append(arr)
        return real(arr)

    monkeypatch.setattr(native_engine, "address", spy)
    return seen


def label_buffers(labels) -> list[np.ndarray]:
    return [labels.values, labels.offsets]


def table_buffers(engine) -> list[np.ndarray]:
    hq = engine.hq
    return [hq.node_of, hq.depth, hq.path, hq.chain, hq.tau]


def engine_buffers(engine) -> list[np.ndarray]:
    """What a query engine's owners hold: labels, tables and the
    one-pair buffers of this thread."""
    owned = label_buffers(engine.labels) + label_buffers(engine.target_labels)
    owned += table_buffers(engine)
    one = getattr(engine._scratch, "one", None)
    if one is not None:
        owned += [one.ids, one.out]
    return owned


def assert_reads_no_owned(read: list[np.ndarray], owned: list[np.ndarray]) -> None:
    for arr in read:
        for buffer in owned:
            assert not np.may_share_memory(arr, buffer), (arr.shape, buffer.shape)


def sharded(k: int = 2) -> ShardedDHLIndex:
    return ShardedDHLIndex.build(grid_network(12, 12, seed=3), k=k, config=DHLConfig())


def routing_buffers(index: ShardedDHLIndex) -> list[np.ndarray]:
    routing = index.engine.routing()
    owned = [index.region_of, index.local_of, *index.boundary_local]
    owned += [routing.region_of, routing.local_of, routing.routed, routing.bounds]
    owned += [shard.boundary for shard in routing.shards]
    if routing.matrix is not None:
        owned.append(routing.matrix)
    return owned


def batch(n: int, seed: int, m: int = 240) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, (m, 2))
    pairs[:12, 1] = pairs[:12, 0]
    return pairs


# ---------------------------------------------------------------------------
# address counts
# ---------------------------------------------------------------------------

def test_a_one_pair_query_reads_only_its_operands(reads):
    index = DHLIndex.build(grid_network(32, 32, seed=7))
    want = index.distances([(3, 900)])
    assert index.distance(3, 900) == want[0]  # binds the one-pair buffers
    reads.clear()
    got = index.distances([(3, 900)])
    assert np.array_equal(got, want)
    assert len(reads) == 2  # the pair array and the output arena
    assert_reads_no_owned(reads, engine_buffers(index.engine))
    reads.clear()
    assert index.distance(3, 900) == want[0]
    assert index.distance_with_hub(3, 900)[0] == want[0]
    assert reads == []  # the scalar path reads no address at all


def test_a_replica_sub_query_reads_only_its_operands(reads):
    index = sharded()
    executor = ShardExecutor()
    executor.setup(
        SpecRequest(payload=index.shard_worker_payload(0), epoch=0),
        *index.shard_buffers(0),
    )
    pairs = batch(index.graph.num_vertices, 1)
    split = BatchSplit(index, pairs)
    s, t, fan, block = split.subs[0]
    assert block is not None and len(s) and len(fan)

    def compute(**sub):
        message = ComputeBatch(
            epoch=0, subs=[SubQuery(s=s, t=t, fan=fan, block_epoch=5, **sub)]
        )
        reply = executor.compute(decode_frame(encode_frame(message)))
        assert isinstance(reply, ComputeReply), reply
        return reply.results[0]

    first = compute(block=block)  # binds the labels, tables and block
    reads.clear()
    again = compute(block_cached=True)
    assert len(reads) == 2  # the ids operand and the output arena
    owned = engine_buffers(executor.index.engine)
    owned += [executor.values, executor.boundary_local]
    owned.append(executor._block)
    assert_reads_no_owned(reads, owned)
    for field in ("final", "fan", "fan_inverse"):
        assert np.array_equal(getattr(again, field), getattr(first, field))


def test_a_split_and_combine_read_only_their_operands(reads):
    index = sharded(3)
    pairs = batch(index.graph.num_vertices, 2)
    split = BatchSplit(index, pairs)
    results = {
        sid: sub_query(
            index.shards[sid].engine,
            split.routing.shards[sid],
            *sub[:3],
            sub[3] is not None,
        )
        for sid, sub in split.subs.items()
    }
    want = split.answer(results)
    assert split.routes and split.intra_pairs
    index.distances(pairs)  # binds every shard's records
    reads.clear()
    again = BatchSplit(index, pairs)
    assert np.array_equal(again.answer(results), want)
    owned = routing_buffers(index)
    assert_reads_no_owned(reads, owned)
    reads.clear()
    assert np.array_equal(index.distances(pairs), want)
    for shard in index.shards:
        owned += engine_buffers(shard.engine)
    assert_reads_no_owned(reads, owned)


# ---------------------------------------------------------------------------
# rebinding: every path that swaps a buffer, held to the oracles
# ---------------------------------------------------------------------------

def queries(index, pairs: np.ndarray) -> list:
    """Every query kernel the index's engine reaches."""
    engine = index.engine
    ids = np.unique(pairs.ravel())[:9]
    out = [engine.distances(pairs), engine.distances_arrays(pairs[:, 0], pairs[:, 1])]
    if isinstance(index, ShardedDHLIndex):
        arena, intra = native_engine.batch_split(engine.routing(), pairs)
        out += [arena, intra]  # the split's order, local ids and bounds
        out.append(index.distances_from(int(pairs[0, 0]), ids))
        shard = index.shards[0].engine
        local = np.arange(min(9, index.shards[0].graph.num_vertices))
        out.append(shard.distance_matrix(local, local[::-1]))
    else:
        out.append(engine.distance_matrix(ids, ids[::-1]))
        out.append(engine.distances_with_hubs(pairs)[1])
    out.append([engine.distance(int(a), int(b)) for a, b in pairs[:16]])
    return out


def assert_on_oracles(index, seed: int) -> None:
    pairs = batch(index.graph.num_vertices, seed)
    got = queries(index, pairs)
    with python_kernels():
        want = queries(index, pairs)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def assert_bound_to_current(labels) -> None:
    record = labels._record
    assert record.refs[0]() is labels.values
    assert record.refs[1]() is labels.offsets


def monolithic() -> DHLIndex:
    return DHLIndex.build(grid_network(10, 10, seed=2))


def insert(index) -> DHLIndex:
    n = index.graph.num_vertices
    u, v = next(
        (a, b)
        for a in range(n)
        for b in oracle_query.ancestors(index.hq, a)[:-1]
        if not index.graph.has_edge(a, b)
    )
    index.apply_batch(insertions=[(u, v, 1.0)])
    return index


def compact(index) -> DHLIndex:
    u, v, _ = next(iter(index.graph.edges()))
    index.apply_batch(deletions=[(u, v)])
    index.compact()
    return index


def mapped_then_written(index, tmp_path) -> DHLIndex:
    index.save(tmp_path / "idx")
    loaded = DHLIndex.load(tmp_path / "idx", mmap_labels=True)
    assert_on_oracles(loaded, 5)  # bound to the read-only map
    u, v, w = next(iter(loaded.graph.edges()))
    loaded.update([(u, v, w + 3.0)])  # copy-on-first-write swaps values
    assert loaded.labels.values.flags.writeable
    return loaded


def pickled(index) -> DHLIndex:
    return pickle.loads(pickle.dumps(index))


def loaded(index, tmp_path) -> DHLIndex:
    index.save(tmp_path / "idx")
    return DHLIndex.load(tmp_path / "idx")


MONOLITHIC = {
    "structural-insert": lambda index, _: insert(index),
    "compact": lambda index, _: compact(index),
    "ensure_writable": mapped_then_written,
    "pickle": lambda index, _: pickled(index),
    "save-load": loaded,
}


@pytest.mark.parametrize("path", list(MONOLITHIC))
def test_a_swapped_label_buffer_is_rebound(path, tmp_path):
    index = monolithic()
    assert_on_oracles(index, 1)  # every record bound to the first buffers
    before = index.labels._record
    index = MONOLITHIC[path](index, tmp_path)
    assert_on_oracles(index, 2)
    assert_bound_to_current(index.labels)
    if path == "ensure_writable":
        assert index.labels._record is not before


def test_a_pickled_record_comes_back_unbound():
    index = monolithic()
    index.distances([(0, 5)])
    assert pickle.loads(pickle.dumps(index.labels._record)) is None
    assert pickle.loads(pickle.dumps(index.labels))._record is None


def cut_edge(index: ShardedDHLIndex) -> tuple[int, int, float]:
    region_of = index.region_of
    return next(
        (u, v, w) for u, v, w in index.graph.edges() if region_of[u] != region_of[v]
    )


def overlay_epoch(index: ShardedDHLIndex, _) -> ShardedDHLIndex:
    epoch = index.overlay.epoch
    u, v, w = cut_edge(index)
    index.update([(u, v, w + 5.0)])
    assert index.overlay.epoch != epoch
    return index


def boundary_rebuild(index: ShardedDHLIndex, _) -> ShardedDHLIndex:
    boundary = index.boundary_local
    region_of = index.region_of
    n = index.graph.num_vertices
    u, v = next(
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if region_of[a] != region_of[b] and not index.graph.has_edge(a, b)
    )
    index.apply_batch(insertions=[(u, v, 2.0)])
    assert index.boundary_local is not boundary
    return index


def sharded_loaded(index: ShardedDHLIndex, tmp_path) -> ShardedDHLIndex:
    index.save(tmp_path / "sharded")
    return ShardedDHLIndex.load(tmp_path / "sharded")


def shard_compact(index: ShardedDHLIndex, _) -> ShardedDHLIndex:
    region_of = index.region_of
    u, v, _ = next(
        (u, v, w) for u, v, w in index.graph.edges() if region_of[u] == region_of[v]
    )
    index.apply_batch(deletions=[(u, v)])
    index.compact()
    return index


SHARDED = {
    "overlay-epoch": overlay_epoch,
    "boundary-rebuild": boundary_rebuild,
    "shard-compact": shard_compact,
    "pickle": lambda index, _: pickled(index),
    "save-load": sharded_loaded,
}


@pytest.mark.parametrize("path", list(SHARDED))
def test_a_swapped_routing_state_is_rebound(path, tmp_path):
    index = sharded()
    assert_on_oracles(index, 1)
    routing = index.engine.routing()
    index = SHARDED[path](index, tmp_path)
    assert_on_oracles(index, 2)
    current = index.engine.routing()
    assert current.holds(index, current.matrix)
    if path in ("overlay-epoch", "boundary-rebuild"):
        assert current is not routing
    for shard in index.shards:
        assert_bound_to_current(shard.labels)


def executor_answers(executor, index, sid, pairs) -> list[np.ndarray]:
    split = BatchSplit(index, pairs)
    s, t, fan, block = split.subs[sid]
    message = ComputeBatch(
        epoch=executor.epoch, subs=[SubQuery(s=s, t=t, fan=fan, block=block)]
    )
    reply = executor.compute(decode_frame(encode_frame(message)))
    assert isinstance(reply, ComputeReply), reply
    (result,) = reply.results
    return [result.final, result.fan[result.fan_inverse]]


def test_a_replica_rebinds_on_attach_and_republish():
    """A replica's label store is bound at attach; a republish hands it
    new buffers (here after the parent updated the shard), and its
    answers follow them: equal to the oracle bodies' on the same
    executor and to the parent's own shard kernel."""
    index = sharded()
    pairs = batch(index.graph.num_vertices, 4)
    executor = ShardExecutor()
    executor.setup(
        SpecRequest(payload=index.shard_worker_payload(0), epoch=0),
        *(buffer.copy() for buffer in index.shard_buffers(0)),
    )

    def check():
        got = executor_answers(executor, index, 0, pairs)
        with python_kernels():
            want = executor_answers(executor, index, 0, pairs)
        split = BatchSplit(index, pairs)
        s, t, fan, block = split.subs[0]
        final, rows, inverse = sub_query(
            index.shards[0].engine, split.routing.shards[0], s, t, fan, block is not None
        )
        for a, b, c in zip(got, want, (final, rows[inverse])):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        assert_bound_to_current(executor.index.labels)

    check()
    labels = executor.index.labels
    values = index.shards[0].labels.values.copy()
    vertices = index.shard_vertices[0]
    u, v, w = next(iter(index.shards[0].graph.edges()))
    index.update([(int(vertices[u]), int(vertices[v]), w * 9)])
    assert not np.array_equal(index.shards[0].labels.values, values)
    executor.bind(*(buffer.copy() for buffer in index.shard_buffers(0)))
    assert executor.index.labels is not labels
    check()


# ---------------------------------------------------------------------------
# the shortcut store: the sweeps and the build
# ---------------------------------------------------------------------------

def store_buffers(store) -> list[np.ndarray]:
    """What a shortcut store holds: its structure, weights and tau."""
    csr = store.csr
    return [getattr(csr, name) for name in ShortcutCSR.ARRAYS] + [
        store.up_weights,
        store.tau,
    ]


def reweigh(index, seed: int, count: int = 6) -> list:
    """A mixed batch of integer weight changes on live roads."""
    rng = np.random.default_rng(seed)
    roads = [(u, v, w) for u, v, w in index.graph.edges() if math.isfinite(w)]
    picks = rng.choice(len(roads), count, replace=False).tolist()
    return [
        (u, v, w + 3.0 if i % 2 else max(1.0, w - 1.0))
        for i, (u, v, w) in enumerate(roads[j] for j in picks)
    ]


def test_a_warm_update_reads_only_its_operands(reads):
    index = DHLIndex.build(grid_network(16, 16, seed=7))
    index.update(reweigh(index, 1))  # binds the store and the labels
    reads.clear()
    stats = index.update(reweigh(index, 2))
    assert stats.shortcuts_changed and stats.labels_changed
    # The shortcut sweep's seeds, direct and four marks; the label
    # sweep's slots, two slot marks and five entry marks.
    assert len(reads) == 15
    assert_reads_no_owned(reads, store_buffers(index.hu) + label_buffers(index.labels))


def test_a_label_build_reads_only_its_order(reads):
    index = DHLIndex.build(grid_network(16, 16, seed=7))
    labels = build_labelling(index.hu)  # binds the new labels' record
    order = np.argsort(index.hu.tau, kind="stable")
    reads.clear()
    native_engine.label_build(index.hu, labels, order)
    assert len(reads) == 1 and reads[0] is order
    assert labels.equals(index.labels)


def assert_store_bound_to_current(store) -> None:
    record = store._record
    assert record.refs[0]() is store.csr
    assert record.refs[1]() is store.up_weights
    assert record.refs[2]() is store.tau


def assert_maintenance_on_oracles(index, seed: int) -> None:
    """An update on C leaves the bits the sweep oracles leave on a
    pickled twin, and a label build on C, on the oracles and the
    maintained labels agree bit for bit."""
    twin = pickle.loads(pickle.dumps(index))
    batch = reweigh(index, seed)
    index.update(batch)
    with python_kernels():
        twin.update(batch)
    assert index.hu.up_weights.tobytes() == twin.hu.up_weights.tobytes()
    for plane, labels in enumerate(index.labellings):
        assert labels.equals(twin.labellings[plane])
        built = build_labelling(index.hu, plane)
        with python_kernels():
            want = build_labelling(index.hu, plane)
        assert built.values.tobytes() == want.values.tobytes()
        assert built.equals(labels)
    assert_store_bound_to_current(index.hu)


def kill_roads(index, count: int = 40) -> None:
    """Delete roads until some shortcut slot is dead in every plane."""
    rng = np.random.default_rng(4)
    roads = [(u, v) for u, v, w in index.graph.edges() if math.isfinite(w)]
    for j in rng.permutation(len(roads))[:count].tolist():
        index.apply_batch(deletions=[roads[j]])
        if index.dead_fraction > 0:
            return
    raise AssertionError("no slot died")


def slots_grown(index, _) -> object:
    slots = index.hu.csr.num_slots
    insert(index)
    assert index.hu.csr.num_slots > slots
    return index


def slots_compacted(index, _) -> object:
    kill_roads(index)
    slots = index.hu.csr.num_slots
    assert index.compact().dead_slots_reclaimed
    assert index.hu.csr.num_slots < slots
    return index


def store_loaded(index, tmp_path) -> object:
    index.save(tmp_path / "idx")
    return type(index).load(tmp_path / "idx")


def store_mapped_then_written(index, tmp_path) -> object:
    index.save(tmp_path / "idx")
    loaded = type(index).load(tmp_path / "idx", mmap_labels=True)
    loaded.distances([(0, 5)])  # binds the labels read-only
    assert not any(labels.values.flags.writeable for labels in loaded.labellings)
    return loaded


STORE = {
    "extend_slots": slots_grown,
    "compact_slots": slots_compacted,
    "ensure_writable": store_mapped_then_written,
    "save-load": store_loaded,
    "pickle": lambda index, _: pickled(index),
}


def road_index(family):
    graph = delaunay_network(300, seed=77)
    if family is DirectedDHLIndex:
        graph = DiGraph.from_undirected(graph)
    return family.build(graph, DHLConfig(leaf_size=6, seed=0))


@pytest.mark.parametrize(
    "family", [DHLIndex, DirectedDHLIndex], ids=["one-plane", "two-plane"]
)
@pytest.mark.parametrize("path", list(STORE))
def test_a_swapped_store_buffer_is_rebound(path, family, tmp_path):
    index = road_index(family)
    assert_maintenance_on_oracles(index, 1)  # the first store record
    before = index.hu._record
    # Keep the buffers the first record was made from alive: a record
    # that is not rebound then reads and writes them, and the bits part
    # from the oracles' instead of faulting.
    held = [index.hu.csr, index.hu.up_weights]
    held += [labels.values for labels in index.labellings]
    index = STORE[path](index, tmp_path)
    assert_maintenance_on_oracles(index, 2)
    if path in ("extend_slots", "compact_slots"):
        assert index.hu._record is not before
    del held

"""The flat pair table and the array-native service door in front of it.

The table's contract is *a cache may forget, never lie*: the model
tests replay interleaved ``insert`` / ``lookup`` / ``get`` /
``invalidate_all`` against a dict oracle and a
one-set table against an exact LRU, on the C kernels and on their numpy
oracle (``tests/oracles/cache.py``), and a differential test holds the
door's probe and fill to that oracle step by step. The door tests pin
what the batch path promises its callers: vertex ids are checked before
anything is touched, every input shape gives the same bits on every
backend behind every runtime, and the counters stay truthful.
"""

from __future__ import annotations

import asyncio
import copy
import math
import os
import pickle
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.exceptions import VertexNotFound
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.graph.graph import Graph
from repro.labelling.native import engine as native_engine
from repro.service import (
    AsyncDistanceService,
    DistanceService,
    InProcessRuntime,
    ShardWorkerRuntime,
    SocketShardRuntime,
)
from repro.service.cache import EpochLRUCache, pair_key
from tests.conftest import build_sharded
from tests.oracles.kernels import python_kernels
from tests.strategies import assert_stream_parity, rolling_stream
from tests.test_structural_batch import directed_dijkstra

VERTICES = 12  # small universe: keys collide, repeat and get evicted


# ---------------------------------------------------------------------------
# the table against its models
# ---------------------------------------------------------------------------

keys_st = st.tuples(
    st.integers(0, VERTICES - 2), st.integers(0, VERTICES - 2)
).map(lambda ab: pair_key(min(ab), max(ab) + 1))

ops_st = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.lists(keys_st, min_size=0, max_size=10, unique=True),
            st.integers(0, 3),  # epoch offset below the newest epoch
        ),
        st.tuples(st.just("lookup"), st.lists(keys_st, max_size=10)),
        st.tuples(st.just("get"), keys_st),
        st.tuples(st.just("invalidate"), st.integers(0, 2)),
    ),
    max_size=40,
)


class Oracle:
    """What the table may serve: the last insert per key, while valid."""

    def __init__(self) -> None:
        self.entries: dict[int, tuple[float, int]] = {}
        self.watermark = 0

    def insert(self, key, value, epoch) -> None:
        if epoch >= self.watermark:  # a stale insert is ignored
            self.entries[key] = (value, epoch)

    def valid(self, key) -> float | None:
        entry = self.entries.get(key)
        if entry is None or entry[1] < self.watermark:
            return None
        return entry[0]


#: A hypothesis test that also takes ``on_kernels`` (set once per test,
#: not per example).
FIXTURED = [HealthCheck.function_scoped_fixture]


@pytest.mark.usefixtures("on_kernels")
@given(capacity=st.sampled_from([1, 3, 8, 23, 24, 40, 200]), ops=ops_st)
@settings(max_examples=150, deadline=None, suppress_health_check=FIXTURED)
def test_model_a_hit_is_the_last_valid_insert(capacity, ops):
    cache, oracle = EpochLRUCache(capacity), Oracle()
    epoch, serial, probes = 3, 0.0, 0
    for op in ops:
        if op[0] == "insert":
            _, keys, back = op
            values = np.arange(len(keys), dtype=np.float64) + serial
            serial += len(keys)
            cache.insert(np.array(keys, dtype=np.int64), values, epoch - back)
            for key, value in zip(keys, values):
                oracle.insert(key, value, epoch - back)
        elif op[0] == "lookup":
            keys = np.array(op[1], dtype=np.int64)
            values, hit = cache.lookup(keys)
            probes += len(keys)
            for key, value, was_hit in zip(op[1], values, hit):
                if was_hit:  # forgetting is allowed, lying is not
                    assert value == oracle.valid(key)
        elif op[0] == "get":
            value = cache.get(op[1])
            probes += 1
            if value is not None:
                assert value == oracle.valid(op[1])
        elif op[0] == "invalidate":
            epoch += op[1]
            cache.invalidate_all(epoch)
            oracle.watermark = max(oracle.watermark, epoch)
        assert len(cache) <= capacity
    stats = cache.stats()
    assert stats.hits + stats.misses == probes
    assert stats.size == len(cache) <= capacity
    assert stats.invalidated >= 0 and stats.lru_evictions >= 0
    # Whatever is still served is still right, key by key.
    for key in oracle.entries:
        value = cache.get(key)
        if value is not None:
            assert value == oracle.valid(key)


@pytest.mark.usefixtures("on_kernels")
@given(capacity=st.integers(1, 23), ops=ops_st)
@example(  # a held key is as recent as its batch index, not older
    capacity=15,
    ops=[
        ("insert", [2], 0),
        ("insert", [pair_key(1, 2), 2, 8, 11, pair_key(1, 5)], 0),
        ("insert", [1, 3, 4, 5, 6, 7, 10, pair_key(1, 6)], 0),
        ("insert", [9, pair_key(1, 3), pair_key(1, 4)], 0),
        ("lookup", [2]),
    ],
)
@settings(max_examples=150, deadline=None, suppress_health_check=FIXTURED)
def test_one_set_table_is_an_exact_lru(capacity, ops):
    """Below 24 entries the table is one set: hits, misses and LRU
    evictions equal an ``OrderedDict`` LRU that forgets stale entries
    when the watermark passes them. A batch's keys, held or new, are
    used in batch order: the tick of key ``i`` is the batch's first
    tick plus ``i``."""
    cache = EpochLRUCache(capacity)
    lru: OrderedDict[int, tuple[float, int]] = OrderedDict()
    watermark, epoch, serial, evictions = 0, 3, 0.0, 0

    def probe(key):
        entry = lru.get(key)
        if entry is None:
            return None
        lru.move_to_end(key)
        return entry[0]

    for op in ops:
        if op[0] == "insert":
            _, keys, back = op
            keys = keys[:capacity]  # which of a surplus stay is not promised
            values = np.arange(len(keys), dtype=np.float64) + serial
            serial += len(keys)
            cache.insert(np.array(keys, dtype=np.int64), values, epoch - back)
            if epoch - back < watermark:
                continue  # stale on arrival: ignored
            entries = {key: (value, epoch - back) for key, value in zip(keys, values)}
            for key in [k for k in keys if k in lru]:  # overwritten in place
                lru[key] = entries.pop(key)
                lru.move_to_end(key)
            for key, entry in entries.items():  # then the new ones, in order
                if len(lru) == capacity:
                    lru.popitem(last=False)
                    evictions += 1
                lru[key] = entry
            for key in keys:  # a batch's keys are used in batch order
                lru.move_to_end(key)
        elif op[0] == "lookup":
            values, hit = cache.lookup(np.array(op[1], dtype=np.int64))
            for key, value, was_hit in zip(op[1], values, hit):
                want = probe(key)
                assert was_hit == (want is not None)
                assert not was_hit or value == want
        elif op[0] == "get":
            assert cache.get(op[1]) == probe(op[1])
        elif op[0] == "invalidate":
            epoch += op[1]
            cache.invalidate_all(epoch)
            watermark = max(watermark, epoch)
            for key in [k for k, e in lru.items() if e[1] < watermark]:
                del lru[key]
        assert len(cache) == len(lru)
    assert cache.stats().lru_evictions == evictions


#: Vertex ids of the door streams: a few small ones, so pairs repeat,
#: collide and crowd their sets, and 31-bit ones, so the hash's top
#: bits move.
DOOR_IDS = [0, 1, 2, 3, 4, 5, 6, 123_456_789, 2**30 + 7, 2**31 - 2, 2**31 - 1]

door_pairs_st = st.lists(
    st.tuples(st.sampled_from(DOOR_IDS), st.sampled_from(DOOR_IDS)), max_size=24
)

door_ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), door_pairs_st),
        st.tuples(st.just("fill"), door_pairs_st, st.integers(0, 2)),
        st.tuples(st.just("invalidate"), st.integers(0, 2)),
    ),
    max_size=30,
)


def table_state(cache: EpochLRUCache) -> list:
    """The table's clock, watermark, counters and column bytes."""
    table = cache._table
    counters = "tick watermark hits misses stored replaced lru_evictions"
    columns = [table.keys, table.values, table.epochs, table.ticks]
    return [int(table.header[name]) for name in counters.split()] + [
        column.tobytes() for column in columns
    ]


@given(
    capacity=st.sampled_from([1, 5, 24, 40, 200]),
    directed=st.booleans(),
    ops=door_ops_st,
)
@settings(max_examples=200, deadline=None)
def test_the_door_probe_and_fill_equal_their_oracle(capacity, directed, ops):
    """One stream of door batches, fills and watermark raises on two
    tables, one on the C kernels and one on the numpy
    oracle: equal answers, miss pairs, positions and inverse, equal
    ``stats()`` and equal table bytes after every step; and every hit
    is the last value filled under its key at a valid epoch."""
    ours, theirs = EpochLRUCache(capacity), EpochLRUCache(capacity)
    model: dict[tuple[int, int], tuple[float, int]] = {}
    epoch, serial = 3, 0.0

    def both(call):
        got = call(ours)
        with python_kernels():
            want = call(theirs)
        return got, want

    def ordered(pairs):
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return pairs if directed else np.sort(pairs, axis=1)

    def fill(pairs, at):
        nonlocal serial
        values = np.arange(len(pairs), dtype=np.float64) + serial
        serial += len(pairs)
        both(lambda cache: cache.fill_pairs(pairs, values, at))
        if at >= ours.watermark:
            for pair, value in zip(map(tuple, pairs.tolist()), values):
                model[pair] = (value, at)
        return values

    for op in ops:
        if op[0] == "batch":
            pairs = np.array(op[1], dtype=np.int64).reshape(-1, 2)
            got, want = both(lambda cache: cache.probe_pairs(pairs, directed))
            out, misses, positions, inverse = got
            for mine, other in zip(got[1:], want[1:]):
                np.testing.assert_array_equal(mine, other)
            answered = np.ones(len(pairs), dtype=bool)
            answered[positions] = False
            np.testing.assert_array_equal(out[answered], want[0][answered])
            for pair, value in zip(ordered(pairs[answered]).tolist(), out[answered]):
                if pair[0] != pair[1]:  # a hit never lies
                    assert model[tuple(pair)][1] >= ours.watermark
                    assert value == model[tuple(pair)][0]
            seen = ordered(pairs[positions])  # distinct, in first-seen order
            _, first = np.unique(seen, axis=0, return_index=True)
            np.testing.assert_array_equal(misses, seen[np.sort(first)])
            np.testing.assert_array_equal(misses[inverse], seen)
            fill(misses, epoch)
        elif op[0] == "fill":
            pairs = ordered([(s, t) for s, t in op[1] if s != t])
            _, first = np.unique(pairs, axis=0, return_index=True)
            fill(pairs[np.sort(first)], epoch - op[2])
        else:
            epoch += op[1]
            both(lambda cache: cache.invalidate_all(epoch))
        assert ours.stats() == theirs.stats()
        assert table_state(ours) == table_state(theirs)
        assert len(ours) <= capacity


def test_an_insert_below_the_watermark_is_ignored():
    cache = EpochLRUCache(2)
    cache.put(pair_key(0, 1), 1.0, 5)
    cache.invalidate_all(5)
    cache.put(pair_key(0, 1), 9.0, 4)  # older than what is held
    cache.put(pair_key(0, 2), 2.0, 4)
    assert cache.get(pair_key(0, 1)) == 1.0
    assert cache.get(pair_key(0, 2)) is None
    assert len(cache) == 1 and cache.stats().invalidated == 0


def test_insert_replaces_rather_than_shadows():
    cache = EpochLRUCache(64)
    key = np.array([pair_key(2, 9)], dtype=np.int64)
    cache.insert(key, np.array([5.0]), 0)
    cache.insert(key, np.array([7.0]), 0)
    assert cache.get(pair_key(2, 9)) == 7.0
    assert len(cache) == 1
    stats = cache.stats()
    assert stats.invalidated == 0 and stats.lru_evictions == 0


@pytest.mark.usefixtures("on_kernels")
def test_a_crowded_set_forgets_but_stays_bounded():
    cache = EpochLRUCache(64)  # 7 sets of 9 ways
    keys = pair_key(np.arange(1, 401), np.arange(1, 401) + 1)
    for chunk in np.split(keys, 8):
        cache.insert(chunk, chunk.astype(np.float64), 0)
    assert len(cache) <= 64
    values, hit = cache.lookup(keys)
    assert 0 < hit.sum() <= 64
    np.testing.assert_array_equal(values[hit], keys[hit].astype(np.float64))
    stats = cache.stats()
    # Every stored entry is resident or was displaced while live.
    assert stats.invalidated == 0
    assert stats.lru_evictions > 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_never_writes_into_its_parents_table():
    # The columns sit on anonymous mappings; they must be private ones.
    cache = EpochLRUCache()
    cache.put(pair_key(1, 2), 5.0, 0)
    pid = os.fork()
    if pid == 0:
        cache.put(pair_key(1, 2), 9.0, 0)
        cache.put(pair_key(3, 4), 1.0, 0)
        os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    assert cache.get(pair_key(1, 2)) == 5.0
    assert cache.get(pair_key(3, 4)) is None


def test_a_copied_table_probes_its_own_columns():
    """The kernels read column addresses the table keeps: a deep copy
    (a pickle round trip) must be bound to its own columns, so writing
    one table never shows in the other."""
    cache = EpochLRUCache(64)
    cache.insert(np.array([pair_key(1, 2)]), np.array([5.0]), 0)
    clone = copy.deepcopy(cache)
    clone.put(pair_key(1, 2), 9.0, 0)
    clone.put(pair_key(3, 4), 1.0, 0)
    assert (cache.get(pair_key(1, 2)), cache.get(pair_key(3, 4))) == (5.0, None)
    assert (clone.get(pair_key(1, 2)), clone.get(pair_key(3, 4))) == (9.0, 1.0)
    assert (len(cache), len(clone)) == (1, 2)
    assert (cache.stats().hits, clone.stats().hits) == (1, 2)


@pytest.mark.parametrize("made", ["new", "deepcopy", "pickle"])
def test_the_table_is_bound_once_when_it_is_made(monkeypatch, made):
    """The header record takes its column addresses when the table is
    made — constructed, or rebuilt by a copy or an unpickle, bound to
    its own columns — and keeps them: no probe, fill or invalidation
    binds again, and the record has four column fields, no more."""
    cache = EpochLRUCache(64)
    cache.put(pair_key(1, 2), 5.0, 0)
    if made == "deepcopy":
        cache = copy.deepcopy(cache)
    elif made == "pickle":
        cache = pickle.loads(pickle.dumps(cache))
    table = cache._table
    header = table.header.copy()
    columns = ("keys", "values", "epochs", "ticks")
    for name in columns:
        assert int(header[name]) == getattr(table, name).ctypes.data, name
    assert table._one_fill[2] == table.one.ctypes.data
    binds = []
    monkeypatch.setattr(native_engine.PairTable, "_bind", binds.append)
    cache.put(pair_key(3, 4), 1.0, 0)
    cache.insert(np.array([pair_key(5, 6), pair_key(1, 7)]), np.array([2.0, 3.0]), 0)
    cache.fill_pairs(np.array([[2, 9]]), np.array([4.0]), 0)
    out, misses, _, _ = cache.probe_pairs(np.array([[1, 2], [4, 3], [9, 2]]), False)
    assert out.tolist() == [5.0, 1.0, 4.0] and len(misses) == 0
    assert cache.get(pair_key(5, 6)) == 2.0
    cache.invalidate_all(1)
    assert cache.get(pair_key(5, 6)) is None
    assert binds == []
    for name in ("sets", "ways", *columns):
        assert table.header[name] == header[name], name
    assert native_engine.CACHE_HEADER.names[:6] == ("sets", "ways", *columns)
    assert native_engine.CACHE_HEADER.itemsize == 13 * 8


def test_idle_table_costs_no_counted_entries():
    cache = EpochLRUCache()
    assert len(cache) == 0
    stats = cache.stats()
    assert (stats.size, stats.capacity) == (0, 65_536)
    assert stats.invalidated == stats.lru_evictions == 0
    cache.clear()
    assert cache.stats().invalidated == 0


# ---------------------------------------------------------------------------
# the service door: batch shapes, counters, bounds
# ---------------------------------------------------------------------------

def two_islands() -> Graph:
    """Two 4-paths with no road between them."""
    g = Graph(8)
    for base in (0, 4):
        for i in range(3):
            g.add_edge(base + i, base + i + 1, 2.0)
    return g


def test_a_disconnected_distance_is_cached_and_served_as_a_hit():
    index = DHLIndex.build(two_islands(), DHLConfig(leaf_size=2, seed=0))
    with DistanceService(index) as service:
        first = service.distances([(0, 7), (1, 3)])
        again = service.distances(np.array([[7, 0], [1, 3]]))
        assert math.isinf(first[0]) and first[1] == 4.0
        np.testing.assert_array_equal(first, again)
        cache = service.stats().cache
        assert (cache.hits, cache.misses, cache.size) == (2, 2, 2)
        assert service.distance(7, 0) == math.inf
        assert service.stats().cache.hits == 3


@pytest.mark.usefixtures("on_kernels")
def test_duplicates_self_pairs_empty_and_single_batches(small_index):
    with DistanceService(small_index) as service:
        assert service.distances([]).shape == (0,)
        assert service.distances(np.empty((0, 2), dtype=np.int64)).shape == (0,)
        assert service.stats().cache.misses == 0

        np.testing.assert_array_equal(service.distances([(4, 4)]), [0.0])
        assert service.stats().cache.misses == 0  # a self pair probes nothing

        single = service.distances([(3, 40)])
        assert single.shape == (1,) and single[0] == small_index.distance(3, 40)
        assert service.stats().cache.misses == 1

        batch = [(5, 9), (9, 5), (7, 7), (5, 9), (3, 40), (0, 0), (11, 2)]
        out = service.distances(batch)
        np.testing.assert_array_equal(out, small_index.distances(batch))
        cache = service.stats().cache
        # Five non-self pairs probed: (3, 40) hits, the three copies of
        # (5, 9) and (11, 2) miss; two distinct keys are computed.
        assert cache.hits == 1 and cache.misses == 1 + 4
        assert cache.size == 3
        stats = service.stats()
        assert stats.queries == 1 + 1 + 7 and stats.batches == 5


@pytest.mark.usefixtures("on_kernels")
def test_stats_and_gauges_stay_truthful(small_index):
    from repro.observability import Observability

    obs = Observability.enabled()
    with DistanceService(
        small_index, cache_capacity=16, observability=obs
    ) as service:
        rng = np.random.default_rng(5)
        n = small_index.graph.num_vertices
        probed = 0
        for _ in range(6):
            pairs = rng.integers(0, n, size=(40, 2))
            service.distances(pairs)
            probed += int((pairs[:, 0] != pairs[:, 1]).sum())
        u, v, w = next(iter(small_index.graph.edges()))
        service.submit(u, v, w * 3)
        service.flush()
        pairs = rng.integers(0, n, size=(40, 2))
        service.distances(pairs)
        probed += int((pairs[:, 0] != pairs[:, 1]).sum())
        cache = service.stats().cache
        assert cache.hits + cache.misses == probed
        assert cache.size <= cache.capacity == 16
        assert cache.lru_evictions > 0
        # The 16 entries of before the flush went stale and were
        # overwritten (or dropped by a probe) by the batch after it.
        assert cache.invalidated > 0
        assert "LRU evictions" in service.stats().summary()
        metrics = service.metrics()
        for field in ("hits", "misses", "size", "lru_evictions", "invalidated"):
            assert metrics[f"dhl_cache_{field}"]["value"] == getattr(cache, field)


def door_runtimes(sharded_for):
    """One factory per runtime over fresh copies of a sharded index."""
    return {
        "in-process": lambda: InProcessRuntime(sharded_for()),
        "worker-pool": lambda: ShardWorkerRuntime(sharded_for()),
        "socket-pool": lambda: SocketShardRuntime(sharded_for(), replicas=1),
    }


@pytest.fixture(scope="module")
def door_graph() -> Graph:
    return delaunay_network(160, seed=21)


@pytest.mark.parametrize("kind", ["in-process", "worker-pool", "socket-pool"])
def test_unknown_vertices_are_refused_at_the_door(door_graph, kind):
    n = door_graph.num_vertices
    runtime = door_runtimes(lambda: build_sharded(door_graph))[kind]()
    with DistanceService(runtime) as service:
        service.distances([(0, 5), (3, 9)])
        before = service.stats()
        pool_before = runtime.pool_stats() and runtime.pool_stats().pairs
        for bad in ([(0, -1)], [(0, 5), (n, 2)], np.array([[1, 2], [3, n + 7]])):
            with pytest.raises(VertexNotFound):
                service.distances(bad)
        with pytest.raises(VertexNotFound) as info:
            service.distance(0, -1)
        assert info.value.vertex == -1
        with pytest.raises(VertexNotFound):
            service.distance(n, 0)
        after = service.stats()
        assert after.cache == before.cache  # not probed, not filled
        assert after.queries == before.queries
        assert (runtime.pool_stats() and runtime.pool_stats().pairs) == pool_before
        # The service still answers.
        np.testing.assert_array_equal(
            service.distances([(0, 5)]), runtime.index.distances([(0, 5)])
        )


@pytest.mark.parametrize("kind", ["in-process", "worker-pool"])
def test_a_non_integral_id_is_refused_at_both_scalar_doors(door_graph, kind):
    """``distance(1.5, 2)`` once answered d(1, 2) (from a warm cache, or
    always behind the async frontend) and ``distance("3", 4)`` d(3, 4):
    both doors take ids through ``operator.index``, so a float or a
    string raises ``TypeError`` before the cache or the runtime is
    touched, while numpy ints and bools still answer."""
    runtime = door_runtimes(lambda: build_sharded(door_graph))[kind]()
    with DistanceService(runtime) as service:
        d12, d34 = (runtime.index.distance(*pair) for pair in [(1, 2), (3, 4)])
        bad = [(1.5, 2), (1, 2.0), ("3", 4), (3, "4"), (np.float64(1), 2)]

        def untouched():
            pool = runtime.pool_stats()
            return service.stats().cache, pool and pool.pairs

        def refused_in_sync():
            before = untouched()
            for s, t in bad:
                with pytest.raises(TypeError):
                    service.distance(s, t)
            assert untouched() == before

        refused_in_sync()  # cold: (1, 2) is not cached yet
        assert service.distance(np.int64(1), np.int32(2)) == d12
        refused_in_sync()  # warm: it is
        assert service.distance(True, 2) == runtime.index.distance(1, 2)

        async def scenario():
            async with AsyncDistanceService(service) as frontend:
                before = untouched()
                for s, t in bad:
                    with pytest.raises(TypeError):
                        await frontend.distance(s, t)
                assert untouched() == before
                assert frontend.frontend_stats().offered_requests == 0
                return await frontend.distance(np.int64(3), np.uint8(4))

        assert asyncio.run(scenario()) == d34


def test_a_negative_id_no_longer_wraps_around(small_index):
    n = small_index.graph.num_vertices
    with DistanceService(small_index) as service:
        with pytest.raises(VertexNotFound):
            service.distances([(0, -1)])  # used to answer d(0, n - 1)
        assert pair_key(0, n - 1) not in service.cache
        assert isinstance(VertexNotFound(3), KeyError)  # old except clauses hold


class ServiceDoor:
    """A service dressed as a runtime for ``assert_stream_parity``.

    Every batch is asked in four input shapes — list of tuples,
    generator, ``int64`` and ``int32`` ``(m, 2)`` arrays — which must
    agree bit for bit (the first computes, the others are served from
    the table).
    """

    def __init__(self, service: DistanceService):
        self.service = service
        self.index = service.index

    def apply_update(self, changes):
        self.service.submit_many(changes)
        return self.service.flush()

    def distances(self, pairs):
        forms = [
            list(pairs),
            (pair for pair in pairs),
            np.array(pairs, dtype=np.int64),
            np.array(pairs, dtype=np.int32),
        ]
        answers = [self.service.distances(form) for form in forms]
        for other in answers[1:]:
            np.testing.assert_array_equal(other, answers[0])
        return answers[0]


def test_input_shapes_agree_on_a_monolithic_stream(door_graph):
    n = door_graph.num_vertices
    index = DHLIndex.build(door_graph.copy(), DHLConfig(seed=0))
    with DistanceService(index, cache_capacity=24) as service:
        halves = (np.arange(n) >= n // 2).astype(np.int64)
        assert_stream_parity([ServiceDoor(service)], door_graph, halves, seed=1)
        cache = service.stats().cache
        assert cache.hits > 0 and cache.lru_evictions > 0


def test_input_shapes_agree_behind_all_three_runtimes(door_graph):
    """One stream through the door of each runtime, in lockstep: every
    shape, every runtime, Dijkstra."""
    factories = door_runtimes(lambda: build_sharded(door_graph))
    services = [DistanceService(make()) for make in factories.values()]
    try:
        region_of = services[0].index.region_of
        assert_stream_parity(
            [ServiceDoor(service) for service in services],
            door_graph,
            region_of,
            seed=2,
        )
        for service in services:
            assert service.stats().cache.hits > 0
    finally:
        for service in services:
            service.close()


def test_wide_boundary_stream_through_the_door():
    graph = grid_network(10, 10, seed=4)
    with DistanceService(build_sharded(graph, k=3)) as service:
        assert_stream_parity(
            [ServiceDoor(service)], graph, service.index.region_of, seed=3
        )


def test_input_shapes_agree_on_a_directed_stream(door_graph):
    """Behind a directed index the table is keyed on ordered pairs: the
    service's updates move one arc, so d(s, t) and d(t, s) part ways
    and neither may be served for the other."""
    n = door_graph.num_vertices
    index = DirectedDHLIndex.build(
        DiGraph.from_undirected(door_graph), DHLConfig(seed=0)
    )
    halves = (np.arange(n) >= n // 2).astype(np.int64)
    with DistanceService(index) as service:
        door = ServiceDoor(service)
        asymmetric = 0
        for changes, pairs in rolling_stream(door_graph, halves, seed=4):
            door.apply_update(changes)
            pairs = pairs + [(t, s) for s, t in pairs[:12]]
            got = door.distances(pairs)
            rows = {s: directed_dijkstra(index.graph, s) for s, _ in pairs}
            want = np.array([rows[s][t] for s, t in pairs])
            np.testing.assert_array_equal(got, want)
            back = door.distances([(t, s) for s, t in pairs])
            asymmetric += int((back != got).sum())
        assert asymmetric > 0  # the stream did make d(s, t) != d(t, s)
        assert service.stats().cache.hits > 0

"""One kernel call per shard: the sharded batch path against its oracle.

A batch is cut into one sub-query per shard (:class:`BatchSplit`), each
answered by one :func:`shard_batch` call, and the cross region pairs
are combined in the parent. These tests hold that path
``np.array_equal`` to the region-pair composition it replaced — per
``(source region, target region)`` group: the pair kernel, fans over
``np.unique`` endpoints, the overlay block and a brute-force numpy
min-plus — on ``road`` and ``grid`` shards with k = 2 and 3, through
the C shard kernel and through its oracle, the numpy composition in
``tests/oracles/query.py``, and on hierarchies whose path bits fill a
64-bit word or spill past it. The path runs twice: in process
(``index.distances``) and
through one :class:`ShardExecutor` per shard over encoded frames, the
replica side of the shard runtime. The robustness tests feed the
executor and the parent combine what a bad frame could carry. The
update and robustness cases run on the C kernels and again with every
kernel swapped for its oracle (``tests/oracles/``).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DHLConfig
from repro.core.sharded import ShardedDHLIndex
from repro.graph.generators import delaunay_network, grid_network
from repro.service import ShardExecutor
from repro.service.protocol import (
    ComputeBatch,
    ComputeReply,
    EpochDelta,
    ErrorReply,
    SpecRequest,
    SubQuery,
    decode_frame,
    encode_frame,
)
from repro.sharding.engine import BatchSplit, shard_batch
from tests.oracles.kernels import python_kernels
from tests.strategies import WORD_EDGES, caterpillar_index, pair_matrix


PATHS = {"c": nullcontext, "oracle": python_kernels}
GRAPHS = {
    "road": lambda: delaunay_network(160, seed=21, style="city", edge_factor=1.35),
    "grid": lambda: grid_network(10, 10, seed=2),
}


def build(graph, k: int) -> ShardedDHLIndex:
    return ShardedDHLIndex.build(graph.copy(), k=k, config=DHLConfig(seed=0))


@pytest.fixture(scope="module")
def indexes():
    """``(graph, k) -> index``, built on first use."""
    built = {}

    def get(name: str, k: int) -> ShardedDHLIndex:
        if (name, k) not in built:
            built[name, k] = build(GRAPHS[name](), k)
        return built[name, k]

    return get


# ---------------------------------------------------------------------------
# the oracle and the two forms of the one-call path
# ---------------------------------------------------------------------------

def composed(index: ShardedDHLIndex, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The region-pair composition, group by group: the pair kernel for
    intra pairs, pair-kernel fans over the unique endpoints and overlay
    block, then ``min over (a, b) of (ds[a] + block[a, b]) + dt[b]``."""
    out = np.full(len(s), np.inf)
    rs, rt = index.region_of[s], index.region_of[t]
    ls, lt = index.local_of[s], index.local_of[t]
    for i in range(index.k):
        for j in range(index.k):
            at = np.flatnonzero((rs == i) & (rt == j))
            if not len(at):
                continue
            best = np.full(len(at), np.inf)
            if i == j:
                best = index.shards[i].engine.distances_arrays(ls[at], lt[at])
            bi, bj = index.boundary_local[i], index.boundary_local[j]
            if index.overlay is not None and len(bi) and len(bj):
                us, ds_inv = np.unique(ls[at], return_inverse=True)
                ut, dt_inv = np.unique(lt[at], return_inverse=True)
                ds = pair_matrix(index.shards[i].engine, us, bi)
                dt = pair_matrix(index.shards[j].engine, ut, bj)
                block = pair_matrix(
                    index.overlay.engine,
                    index.boundary_overlay[i],
                    index.boundary_overlay[j],
                )
                hop = (ds[ds_inv][:, :, None] + block[None]).min(axis=1)
                best = np.minimum(best, (hop + dt[dt_inv]).min(axis=1))
            out[at] = best
    out[s == t] = 0.0
    return out


def executors(index: ShardedDHLIndex) -> list[ShardExecutor]:
    """One replica-side executor per shard, attached at epoch 0."""
    out = []
    for sid in range(index.k):
        executor = ShardExecutor()
        executor.setup(
            SpecRequest(payload=index.shard_worker_payload(sid), epoch=0),
            *index.shard_buffers(sid),
        )
        out.append(executor)
    return out


def through_executors(index, replicas, s, t) -> np.ndarray:
    """The shard runtime's path without processes: one framed sub-query
    per shard, the executors' framed replies, the parent combine."""
    split = BatchSplit(index, s, t)
    results = {}
    for sid, (s_local, t_local, fan, block) in split.subs.items():
        batch = ComputeBatch(
            epoch=0, subs=[SubQuery(s=s_local, t=t_local, fan=fan, block=block)]
        )
        reply = decode_frame(
            encode_frame(replicas[sid].compute(decode_frame(encode_frame(batch))))
        )
        assert isinstance(reply, ComputeReply), reply
        (result,) = reply.results
        results[sid] = (result.final, result.fan, result.fan_inverse)
    return split.answer(results)


def assert_parity(index, s, t, replicas=None) -> np.ndarray:
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    want = composed(index, s, t)
    got = index.distances(np.stack([s, t], axis=1).reshape(-1, 2))
    assert got.dtype == np.float64 and not np.isnan(got).any()
    assert np.array_equal(got, want)
    replicas = replicas or executors(index)
    assert np.array_equal(through_executors(index, replicas, s, t), want)
    return got


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", list(GRAPHS))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture,
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
    ],
)
@given(data=st.data())
def test_one_call_path_equals_the_composition(indexes, name, k, path, data):
    """Random batches over a small vertex pool: duplicated endpoints,
    self-pairs and every mix of intra and cross pairs."""
    index = indexes(name, k)
    n = index.graph.num_vertices
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
    vertex = st.sampled_from(pool)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    s = np.array([p[0] for p in pairs], dtype=np.int64)
    t = np.array([p[1] for p in pairs], dtype=np.int64)
    with PATHS[path]():
        assert_parity(index, s, t)


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_every_batch_shape(indexes, name, k, path):
    with PATHS[path]():
        check_every_batch_shape(indexes(name, k))


def check_every_batch_shape(index):
    k = index.k
    replicas = executors(index)
    region_of = index.region_of
    n = index.graph.num_vertices
    rng = np.random.default_rng(k)
    s, t = rng.integers(0, n, 400), rng.integers(0, n, 400)
    s[:40] = t[:40]  # self-pairs
    s[40:80], t[40:80] = s[80:120], t[80:120]  # duplicated pairs
    intra = region_of[s] == region_of[t]
    assert intra.any() and (~intra).any()
    mixed = assert_parity(index, s, t, replicas)
    all_intra = assert_parity(index, s[intra], t[intra], replicas)
    all_cross = assert_parity(index, s[~intra], t[~intra], replicas)
    assert np.array_equal(all_intra, mixed[intra])
    assert np.array_equal(all_cross, mixed[~intra])
    assert len(assert_parity(index, s[:0], t[:0], replicas)) == 0
    # One shard alone, and only its sources / only its targets crossing.
    home = region_of[s] == 0
    assert_parity(index, s[home & intra], t[home & intra], replicas)
    assert_parity(index, s[home & ~intra], t[home & ~intra], replicas)
    assert_parity(index, t[home & ~intra], s[home & ~intra], replicas)


@pytest.mark.usefixtures("on_kernels")
@pytest.mark.parametrize("k", [2, 3])
def test_intra_pairs_whose_path_leaves_the_region(k):
    """Slow down one region's own roads at a time: pairs of its boundary
    vertices then take the boundary route through the other regions.
    Those pairs, all together and each alone in its batch."""
    graph = grid_network(10, 10, seed=2)
    index = build(graph, k)
    region_of, local_of = index.region_of, index.local_of
    for r in range(k):
        own = [e for e in graph.edges() if region_of[e[0]] == region_of[e[1]] == r]
        index.update([(u, v, 40 * w) for u, v, w in own])
        border = index.shard_vertices[r][index.boundary_local[r]]
        s = np.repeat(border, len(border))
        t = np.tile(border, len(border))
        direct = index.shards[r].engine.distances_arrays(local_of[s], local_of[t])
        detour = composed(index, s, t) < direct
        assert detour.any()
        replicas = executors(index)
        assert_parity(index, s, t, replicas)
        for pair in zip(s[detour][:6], t[detour][:6]):
            assert_parity(index, *np.array(pair)[:, None], replicas)
        index.update(own)


@pytest.mark.usefixtures("on_kernels")
@pytest.mark.parametrize("k", [2, 3])
def test_a_region_with_no_boundary_answers_inf_never_nan(k):
    """Cut the last region loose (its cut edges deleted, then compacted
    away): its cross pairs have no route and answer ``inf``; at k = 2
    there is no overlay at all."""
    index = build(grid_network(10, 10, seed=2), k)
    region_of = index.region_of
    loose = k - 1
    index.apply_batch(
        deletions=[
            (u, v)
            for u, v, _ in index.partition.cut_edges
            if loose in (region_of[u], region_of[v])
        ]
    )
    index.compact()
    assert len(index.boundary_local[loose]) == 0
    assert (index.overlay is None) == (k == 2)
    n = index.graph.num_vertices
    pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
    got = assert_parity(index, pairs[:, 0], pairs[:, 1])
    crossing = (region_of[pairs[:, 0]] == loose) != (region_of[pairs[:, 1]] == loose)
    assert np.isinf(got[crossing]).all() and np.isfinite(got[~crossing]).all()


@pytest.mark.usefixtures("on_kernels")
@pytest.mark.parametrize("name", list(GRAPHS))
def test_parity_after_an_overlay_burst(name):
    """A burst over cut edges and intra edges moves the overlay epoch:
    the next batch reads fresh blocks and fresh fans on both paths."""
    graph = GRAPHS[name]()
    index = build(graph, 3)
    n = graph.num_vertices
    rng = np.random.default_rng(5)
    s, t = rng.integers(0, n, 300), rng.integers(0, n, 300)
    before = assert_parity(index, s, t)
    region_of = index.region_of
    inner = [e for e in graph.edges() if region_of[e[0]] == region_of[e[1]]]
    epoch = index.overlay.epoch
    index.update(
        [(u, v, 5 * w) for u, v, w in index.partition.cut_edges[:6] + inner[:10]]
    )
    assert index.overlay.epoch != epoch
    after = assert_parity(index, s, t)
    assert not np.array_equal(before, after)


@pytest.mark.parametrize("depth", WORD_EDGES)
def test_word_edge_depths(depth):
    """A shard hierarchy whose path bits fill a 64-bit word or spill
    past it: the C shard kernel and its oracle give the scalar path's
    bits — pair answers lowered by the boundary route, and fan rows."""
    engine = caterpillar_index(depth).engine
    n = engine.hq.n
    rng = np.random.default_rng(depth)
    boundary = rng.choice(n, 6, replace=False)
    scalar = np.array([[engine.distance(u, b) for b in boundary] for u in range(n)])
    block = scalar[boundary] * 0.5  # a shortcut the route can take
    s, t = rng.integers(0, n, (2, 80))
    s[:5] = t[:5]
    fan = rng.integers(0, n, 30)
    route = ((scalar[s][:, :, None] + block) + scalar[t][:, None, :]).min(axis=(1, 2))
    direct = np.array([engine.distance(a, b) for a, b in zip(s.tolist(), t.tolist())])
    want = np.where(s == t, 0.0, np.minimum(direct, route))
    assert (route < direct).any() and (direct < route).any()
    for kernels in PATHS.values():
        with kernels():
            final, rows, inverse = shard_batch(engine, boundary, s, t, fan, block)
        assert np.array_equal(final, want)
        assert np.array_equal(rows[inverse], scalar[fan])


# ---------------------------------------------------------------------------
# robustness: what a bad frame could carry
# ---------------------------------------------------------------------------

@pytest.fixture
def attached(on_kernels):
    """Shard 0 of a k = 2 grid and its executor, on the C kernels and on
    their oracles."""
    index = build(grid_network(8, 8, seed=1), 2)
    (replica, _) = executors(index)
    return index, replica


def good_sub(index) -> dict:
    n = index.shards[0].graph.num_vertices
    width = len(index.boundary_local[0])
    return {
        "s": np.array([0, 1, 2], dtype=np.int64),
        "t": np.array([n - 1, 3, 2], dtype=np.int64),
        "fan": np.array([4, 4, n - 2], dtype=np.int64),
        "block": np.zeros((width, width)),
    }


def test_a_good_hand_built_batch_is_answered(attached):
    index, replica = attached
    reply = replica.compute(ComputeBatch(epoch=0, subs=[SubQuery(**good_sub(index))]))
    assert isinstance(reply, ComputeReply)
    (result,) = reply.results
    assert len(result.final) == 3 and len(result.fan) == 2
    assert result.fan_inverse.tolist() in ([0, 0, 1], [1, 1, 0])


@pytest.mark.parametrize("field", ["s", "t", "fan"])
@pytest.mark.parametrize("where", ["negative", "past_n"])
def test_ids_outside_the_shard_are_an_error_reply(attached, field, where):
    index, replica = attached
    n = index.shards[0].graph.num_vertices
    sub = good_sub(index)
    bad = sub[field].copy()
    bad[1] = -3 if where == "negative" else n
    sub[field] = bad
    reply = replica.compute(ComputeBatch(epoch=0, subs=[SubQuery(**sub)]))
    assert isinstance(reply, ErrorReply)
    assert "VertexNotFound" in reply.message and str(bad[1]) in reply.message
    assert replica.served == 1  # the epoch matched: counted, then refused


def test_a_block_of_the_wrong_shape_is_an_error_reply(attached):
    index, replica = attached
    sub = good_sub(index)
    sub["block"] = sub["block"][:, :-1].copy()
    reply = replica.compute(ComputeBatch(epoch=0, subs=[SubQuery(**sub)]))
    assert isinstance(reply, ErrorReply) and "overlay block" in reply.message


def test_mismatched_pair_arrays_are_an_error_reply(attached):
    index, replica = attached
    sub = good_sub(index)
    sub["t"] = sub["t"][:2].copy()
    reply = replica.compute(ComputeBatch(epoch=0, subs=[SubQuery(**sub)]))
    assert isinstance(reply, ErrorReply) and "length mismatch" in reply.message


def test_a_block_never_shipped_is_an_error_reply(attached):
    index, replica = attached
    sub = good_sub(index)
    del sub["block"]
    reply = replica.compute(
        ComputeBatch(epoch=0, subs=[SubQuery(**sub, block_cached=True, block_epoch=7)])
    )
    assert isinstance(reply, ErrorReply) and "no cached overlay block" in reply.message


@pytest.mark.parametrize("bad", ["negative", "past_end", "short", "broadcast"])
def test_a_bad_inline_delta_is_an_error_reply_and_splices_nothing(attached, bad):
    """An inline delta is checked before the scatter: position -2 would
    wrap onto the second-to-last entry, a payload short of one value
    per position would raise mid-write, and a one-value payload would
    broadcast over every written position."""
    _, replica = attached
    size = len(replica.values)
    positions = {
        "negative": [0, -2],
        "past_end": [0, size],
        "short": [0, size // 2, size - 1],
    }.get(bad, [0, size - 1])
    before = replica.values.copy()
    reply = replica.apply_delta(
        EpochDelta(
            epoch=1,
            positions=np.array(positions, dtype=np.int64),
            payload=np.full(1 if bad == "broadcast" else 2, 7.0),
        )
    )
    expected = "position outside" if bad in ("negative", "past_end") else "payload"
    assert isinstance(reply, ErrorReply) and expected in reply.message
    np.testing.assert_array_equal(replica.values, before)
    assert replica.epoch == 0


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("where", ["negative", "past_rows"])
def test_a_fan_inverse_past_its_rows_is_refused_by_the_combine(attached, side, where):
    """The parent reads each shard's fan inverse from a reply frame and
    hands it to the combine: an entry outside the fan's rows raises
    instead of reading another row (or another buffer)."""
    index, _ = attached
    region_of = index.region_of
    vertices = index.shard_vertices
    s = np.array([vertices[0][0], vertices[0][1]], dtype=np.int64)
    t = np.array([vertices[1][0], vertices[1][1]], dtype=np.int64)
    assert (region_of[s] != region_of[t]).all()
    split = BatchSplit(index, s, t)
    results = {
        sid: shard_batch(
            index.shards[sid].engine, index.boundary_local[sid], *split.subs[sid]
        )
        for sid in split.subs
    }
    sid = 0 if side == "source" else 1
    final, fan, inverse = results[sid]
    inverse = inverse.copy()
    inverse[0] = -1 if where == "negative" else len(fan)
    results[sid] = (final, fan, inverse)
    with pytest.raises(ValueError, match="row map"):
        split.answer(results)

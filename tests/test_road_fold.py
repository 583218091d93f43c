"""One road fold: every batch names a road by ``graph.road_key``.

A structural batch is folded and sorted once, before anything is
written (:func:`repro.core.structural.classify_batch`): a road named
twice in one list counts once, at its last mention; a road named in two
lists is refused; and the batch takes one sweep or one rebuild, so it
advances the epoch once. The service's coalescer keys its buffer the
same way, so a directed index's two arcs never merge.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import MaintenanceError
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network
from repro.service.service import DistanceService
from tests.conftest import directed_dijkstra
from tests.oracles.maintenance import find_edge_slot

CONFIG = DHLConfig(leaf_size=2, seed=0)
FAMILIES = {
    "monolithic": lambda graph, config: DHLIndex.build(graph, config),
    "directed": lambda graph, config: DirectedDHLIndex.build(
        DiGraph.from_undirected(graph), config
    ),
    "sharded": lambda graph, config: ShardedDHLIndex.build(graph, k=2, config=config),
}


def every_pair_is_exact(index) -> None:
    graph = index.graph
    n = graph.num_vertices
    oracle = directed_dijkstra if isinstance(graph, DiGraph) else dijkstra
    pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
    want = np.concatenate([oracle(graph, s) for s in range(n)])
    np.testing.assert_array_equal(index.distances(pairs), want)


def new_pair(index, comparable: bool) -> tuple[int, int]:
    """The first pair no road joins whose endpoints are (or are not)
    ⪯_H-comparable — inside one shard's hierarchy for a sharded index."""
    owners = [(index, np.arange(index.graph.num_vertices))]
    if isinstance(index, ShardedDHLIndex):
        owners = list(zip(index.shards, index.shard_vertices))
    for owner, ids in owners:
        n = owner.graph.num_vertices
        for a in range(n):
            for b in range(a + 1, n):
                if owner.graph.has_edge(a, b):
                    continue
                if bool(owner.hq.comparable([a], [b])[0]) == comparable:
                    return int(ids[a]), int(ids[b])
    raise AssertionError("no such pair")


@pytest.mark.parametrize("family", ["monolithic", "sharded"])
@pytest.mark.parametrize("comparable", [True, False], ids=["comparable", "apart"])
@pytest.mark.parametrize("flip", [False, True], ids=["same", "reversed"])
def test_a_new_road_named_twice_is_inserted_once(family, comparable, flip):
    """Both mentions of one new road used to reach ``add_edge``: the
    second raised ``GraphError`` after the first was written."""
    index = FAMILIES[family](grid_network(4, 4), CONFIG)
    u, v = new_pair(index, comparable)
    roads = index.graph.num_edges
    second = (v, u) if flip else (u, v)
    stats = index.apply_batch(insertions=[(u, v, 3.0), (*second, 2.0)])
    assert stats.inserted == 1
    assert index.graph.num_edges == roads + 1
    assert index.graph.weight(u, v) == 2.0
    every_pair_is_exact(index)
    index.verify()


@pytest.mark.parametrize(
    "door, start, want",
    [
        ("submit", 7.0, 7.0),
        ("submit_delete", None, math.inf),
        ("submit_insert", 7.0, 7.0),
    ],
)
def test_a_directed_service_moves_the_arc_it_is_given(door, start, want):
    """The coalescer keyed ``(2, 1)`` as the unordered pair ``(1, 2)``
    and moved arc 1 -> 2; it now names the arc. An insertion is of an
    arc whose reverse already exists."""
    digraph = DiGraph.from_undirected(grid_network(4, 4))
    if door == "submit_insert":
        digraph.remove_arc(2, 1)
    forward = digraph.weight(1, 2)
    index = DirectedDHLIndex.build(digraph, CONFIG)
    with DistanceService(index) as service:
        args = (2, 1) if start is None else (2, 1, start)
        getattr(service, door)(*args)
        service.flush()
    assert index.graph.weight(2, 1) == want
    assert index.graph.weight(1, 2) == forward
    every_pair_is_exact(index)


@pytest.mark.parametrize("family", ["monolithic", "sharded"])
def test_a_road_deleted_twice_counts_once(family):
    """Each mention was checked against the graph before the batch and
    counted, so one road read as two deletions."""
    index = FAMILIES[family](grid_network(4, 4), CONFIG)
    u, v, _ = next(iter(index.graph.edges()))
    stats = index.apply_batch(deletions=[(u, v), (v, u)])
    assert (stats.deleted, stats.already_deleted) == (1, 0)
    assert math.isinf(index.graph.weight(u, v))
    every_pair_is_exact(index)


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("second", ["weight_changes", "insertions"])
@pytest.mark.parametrize("lower", [True, False], ids=["lowered", "raised"])
def test_a_road_in_two_lists_is_refused_before_any_write(family, second, lower):
    """Deleting and raising one road raised mid-batch; deleting and
    lowering it applied the drop. Either way the batch is now refused
    whole."""
    index = FAMILIES[family](grid_network(4, 4), CONFIG)
    edges = sorted(index.graph.edges())
    (u, v, w), (a, b, x) = edges[0], edges[5]
    before, epoch = sorted(index.graph.edges()), index.epoch
    batch = {"deletions": [(u, v)], "weight_changes": [(a, b, x + 1.0)]}
    again = (u, v) if family == "directed" else (v, u)
    batch.setdefault(second, []).append((*again, w - 1.0 if lower else w + 1.0))
    with pytest.raises(MaintenanceError, match="more than one of"):
        index.apply_batch(**batch)
    assert sorted(index.graph.edges()) == before
    assert index.epoch == epoch
    every_pair_is_exact(index)


@pytest.mark.parametrize("family", ["monolithic", "directed"])
@pytest.mark.parametrize("limit", [4096, 0], ids=["closure", "rebuild"])
def test_a_mixed_batch_is_one_epoch(family, limit):
    """A raise, a drop and a new road: one sweep pair on the closure
    path, one rebuild (and no sweep before it) on the rebuild rung. It
    used to be three sweeps and three epochs."""
    config = DHLConfig(leaf_size=2, seed=0, insert_closure_limit=limit)
    index = FAMILIES[family](grid_network(4, 4), config)
    hu = index.hu
    u, v = next(
        (a, b)
        for a in range(16)
        for b in range(a + 1, 16)
        if not index.graph.has_edge(a, b)
        and bool(index.hq.comparable([a], [b])[0])
        and find_edge_slot(hu, a, b) < 0
    )
    (a, b, w), (c, d, x) = sorted(index.graph.edges())[:2]
    epoch = index.epoch
    stats = index.apply_batch(
        insertions=[(u, v, 1.0)], weight_changes=[(a, b, w + 9.0), (c, d, x - 9.0)]
    )
    assert index.epoch == epoch + 1
    assert stats.weight_changed == 2 and stats.inserted == 1
    rung = (stats.fastpath_inserts, stats.fallback_rebuilds)
    assert rung == ((1, 0) if limit else (0, 1))
    every_pair_is_exact(index)
    index.verify()

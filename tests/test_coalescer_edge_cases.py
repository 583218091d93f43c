"""Update-coalescer edge cases: no-ops, reversed duplicates, empty
flushes — and the same last-mention fold inside every index's
``update``, and the service's update doors refusing a bad id or weight
before it reaches the buffer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import MaintenanceError, VertexNotFound
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.service.coalescer import UpdateCoalescer
from repro.service.service import DistanceService
from tests.conftest import directed_dijkstra


def build_index():
    graph = delaunay_network(120, seed=21, style="city", edge_factor=1.35)
    return DHLIndex.build(graph, DHLConfig(seed=0))


def first_edge(graph):
    return next(iter(graph.edges()))


def test_resetting_current_weight_is_dropped_as_noop():
    index = build_index()
    u, v, w = first_edge(index.graph)
    coalescer = UpdateCoalescer(index.graph.road_key)
    coalescer.add(u, v, w)  # re-report of the live weight
    assert coalescer.pending_edges == 1  # buffered: graph not consulted yet
    batch = coalescer.drain(index.graph)
    assert batch.size == 0
    assert batch.noops == 1
    assert coalescer.stats().noops_dropped == 1
    assert not coalescer


def test_reversed_duplicate_edge_merges_to_one_change():
    index = build_index()
    u, v, w = first_edge(index.graph)
    coalescer = UpdateCoalescer(index.graph.road_key)
    coalescer.add(u, v, 2.0 * w)
    coalescer.add(v, u, 3.0 * w)  # same road, reversed endpoints
    assert coalescer.pending_edges == 1
    assert coalescer.stats().merged_duplicates == 1
    batch = coalescer.drain(index.graph)
    assert batch.size == 1
    ((bu, bv, bw),) = batch.changes
    assert {bu, bv} == {u, v}
    assert bw == 3.0 * w  # last write wins across orientations


def test_empty_coalesced_batch_leaves_epoch_untouched():
    index = build_index()
    u, v, w = first_edge(index.graph)
    service = DistanceService(index)
    before = index.epoch

    # Flush with nothing buffered.
    service.flush()
    assert index.epoch == before

    # Raise-then-restore coalesces to a no-op: nothing reaches the index.
    service.submit(u, v, 2.0 * w)
    service.submit(v, u, w)
    service.flush()
    assert index.epoch == before

    # Re-reporting the current weight is equally free.
    service.submit(u, v, w)
    service.flush()
    assert index.epoch == before

    # A real change does bump the epoch — the guard is not inert.
    service.submit(u, v, 2.0 * w)
    service.flush()
    assert index.epoch == before + 1


def test_index_level_coalescing_matches_service_semantics():
    index = build_index()
    u, v, w = first_edge(index.graph)
    before = index.epoch
    stats = index.update([(u, v, 5.0 * w), (v, u, w)])
    assert index.epoch == before  # net no-op applied nothing
    assert stats.shortcuts_changed == 0
    assert stats.labels_changed == 0


def family_index(family: str):
    """A 300-vertex index of *family*, one of its roads ``(u, v, w)`` —
    inside one shard for the sharded family — and the Dijkstra oracle
    over ``index.graph``."""
    graph = delaunay_network(300, seed=7)
    config = DHLConfig(seed=0)
    if family == "directed":
        index = DirectedDHLIndex.build(DiGraph.from_undirected(graph), config)
        return index, next(iter(index.graph.arcs())), directed_dijkstra
    if family == "sharded":
        index = ShardedDHLIndex.build(graph, k=2, config=config)
        region = index.region_of
        road = next(e for e in graph.edges() if region[e[0]] == region[e[1]])
        return index, road, dijkstra
    index = DHLIndex.build(graph, config)
    return index, next(iter(graph.edges())), dijkstra


@pytest.mark.parametrize("family", ["monolithic", "directed", "sharded"])
@pytest.mark.parametrize(
    "first, last",
    [(3.0, 2.0), (2.0, 1.0), (0.5, 2.0)],
    ids=["two-increases", "increase-then-restore", "decrease-then-increase"],
)
def test_update_naming_a_road_twice_keeps_the_last_mention(family, first, last):
    """Each mention alone is a legal change; together they are one road
    changed once, to the last weight — on the shard and on the global
    graph alike."""
    index, (u, v, w), oracle = family_index(family)
    index.update([(u, v, first * w), (u, v, last * w)])
    assert index.graph.weight(u, v) == last * w
    n = index.graph.num_vertices
    want = np.asarray(oracle(index.graph, u))
    np.testing.assert_array_equal(index.distances([(u, t) for t in range(n)]), want)
    assert index.distance(u, v) == want[v]


@pytest.mark.parametrize("family", ["monolithic", "directed", "sharded"])
def test_a_superseded_invalid_mention_still_rejects_the_batch(family):
    """The fold keeps the last mention but checks every one: a negative
    weight named first rejects the whole batch before any write."""
    index, (u, v, w), _ = family_index(family)
    epoch = index.epoch
    with pytest.raises(MaintenanceError, match="invalid weight"):
        index.update([(u, v, -w), (u, v, 2.0 * w)])
    assert index.graph.weight(u, v) == w and index.epoch == epoch


# ---------------------------------------------------------------------------
# the service's update doors check ids before anything is buffered
# ---------------------------------------------------------------------------

#: ``(u, v)`` a door must refuse, and what it raises.
BAD_ROADS = {
    "past-n": ((0, 99), VertexNotFound),
    "negative": ((-1, 2), VertexNotFound),
    "float": ((1.7, 2), TypeError),
    "string": (("1", 2), TypeError),
}
UPDATE_DOORS = {
    "submit": lambda svc, u, v: svc.submit(u, v, 5.0),
    "submit_insert": lambda svc, u, v: svc.submit_insert(u, v, 5.0),
    "submit_delete": lambda svc, u, v: svc.submit_delete(u, v),
    "submit_many": lambda svc, u, v: svc.submit_many([(0, 1, 7.0), (u, v, 5.0)]),
}


@pytest.mark.parametrize("door", list(UPDATE_DOORS))
@pytest.mark.parametrize("bad", list(BAD_ROADS))
def test_a_bad_id_is_refused_before_anything_is_buffered(door, bad):
    """One bad id used to stay in the buffer and fail every later
    flush (a float one as a ``TypeError`` on every query), so the valid
    change buffered with it never applied. Now the door refuses it and
    the next query flushes what was buffered before."""
    (u, v), error = BAD_ROADS[bad]
    graph = grid_network(4, 4)
    with DistanceService(DHLIndex.build(graph.copy(), DHLConfig(seed=0))) as svc:
        a, b, w = first_edge(svc.index.graph)
        svc.submit(a, b, 3.0 * w)
        before = sorted(svc.index.graph.edges())
        with pytest.raises(error):
            UPDATE_DOORS[door](svc, u, v)
        assert svc.pending_updates == 1
        assert sorted(svc.index.graph.edges()) == before
        got = svc.distance(a, b)
        assert svc.pending_updates == 0
        assert svc.index.graph.weight(a, b) == 3.0 * w
        assert got == dijkstra(svc.index.graph, a)[b]


# ---------------------------------------------------------------------------
# ... and weights: a bad one raised at the next flush, and the good
# changes buffered with it were lost
# ---------------------------------------------------------------------------

#: A call each door must refuse with ``MaintenanceError`` on
#: ``grid_network(4, 4)``, where ``(0, 5)`` and ``(4, 5)`` are roads.
BAD_WEIGHTS = {
    "submit-nan": lambda svc: svc.submit(4, 5, math.nan),
    "submit-negative": lambda svc: svc.submit(4, 5, -1.0),
    "submit-self-loop": lambda svc: svc.submit(3, 3, 1.0),
    "submit_many-nan": lambda svc: svc.submit_many([(2, 3, 1.0), (4, 5, math.nan)]),
    "submit_many-negative": lambda svc: svc.submit_many([(2, 3, 1.0), (4, 5, -1.0)]),
    "submit_insert-nan": lambda svc: svc.submit_insert(0, 5, math.nan),
    "submit_insert-negative": lambda svc: svc.submit_insert(0, 5, -1.0),
    "submit_insert-inf": lambda svc: svc.submit_insert(0, 5, math.inf),
    "submit_insert-self-loop": lambda svc: svc.submit_insert(3, 3, 1.0),
}


def small_service() -> DistanceService:
    return DistanceService(
        DHLIndex.build(grid_network(4, 4), DHLConfig(leaf_size=2, seed=0))
    )


@pytest.mark.parametrize("bad", list(BAD_WEIGHTS))
def test_a_bad_weight_is_refused_before_anything_is_buffered(bad):
    """A NaN or negative weight, an ``inf`` insertion (which quietly
    closed an existing road) or a self-loop used to be buffered; the
    next flush, whoever's query ran it, raised on it and dropped the
    good change queued before. Now the door raises and the buffer keeps
    only what it held."""
    with small_service() as svc:
        graph = svc.index.graph
        before = sorted(graph.edges())
        svc.submit(0, 1, 999.0)
        with pytest.raises(MaintenanceError):
            BAD_WEIGHTS[bad](svc)
        assert svc.pending_updates == 1
        got = svc.distance(0, 15)
        assert svc.pending_updates == 0
        assert graph.num_edges == len(before)
        for u, v, w in before:
            assert graph.weight(u, v) == (999.0 if {u, v} == {0, 1} else w)
        assert got == dijkstra(graph, 0)[15]


def test_closing_a_road_that_is_not_there_changes_nothing():
    """``inf`` on a missing road (a report, or one folded into a queued
    insertion) used to drain as an insertion at ``inf`` and fail the
    flush; it is a no-op."""
    with small_service() as svc:
        graph = svc.index.graph
        assert not graph.has_edge(0, 15) and not graph.has_edge(1, 14)
        before = sorted(graph.edges())
        svc.submit(0, 1, 999.0)
        svc.submit(0, 15, math.inf)
        svc.submit_insert(1, 14, 5.0)
        svc.submit(1, 14, math.inf)
        got = svc.distance(0, 15)
        assert svc.coalescer.stats().noops_dropped == 2
        assert graph.num_edges == len(before)
        assert graph.weight(0, 1) == 999.0
        assert got == dijkstra(graph, 0)[15]

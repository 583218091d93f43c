"""The road -> cell map and the seed step against their per-road oracles.

:meth:`ContractionResult.cells_of` maps a whole batch of roads to weight
cells in one call, and :func:`repro.labelling.driver.seed_cells` sorts a
checked, folded batch into raised and lowered seeds with numpy masks.
Both replaced per-road loops, kept in ``tests/oracles/maintenance.py``
(:func:`find_edge_slot`, :func:`seed_cells`); here they must agree on
one-plane (:class:`DHLIndex`) and two-plane (:class:`DirectedDHLIndex`)
stores alike — both orientations, roads named more than once, pairs
with no slot, unknown roads, and roads closed to ``inf`` and opened
again.
"""

from __future__ import annotations

import math
import pickle
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.exceptions import EdgeNotFound
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network
from repro.labelling import driver
from tests.oracles import maintenance as oracle
from tests.oracles.kernels import python_kernels
from tests.strategies import connected_graphs

CONFIG = DHLConfig(leaf_size=2, seed=0)
SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
FAMILIES = {
    "one-plane": lambda g: DHLIndex.build(g, CONFIG),
    "two-plane": lambda g: DirectedDHLIndex.build(DiGraph.from_undirected(g), CONFIG),
}
#: What a burst may set a road to: a small weight (ties everywhere) or
#: a closure.
REPORTS = st.one_of(st.integers(0, 6).map(float), st.just(math.inf))


def roads_of(index) -> list[tuple[int, int]]:
    """Every road the graph holds, as the store addresses it (arcs in a
    two-plane store), sorted."""
    return sorted((u, v) for u, v, _ in index.graph.edges())


def clone(index):
    return pickle.loads(pickle.dumps(index))


@pytest.mark.parametrize("family", list(FAMILIES))
@SETTINGS
@given(graph=connected_graphs(min_n=3, max_n=12), data=st.data())
def test_cells_of_is_the_per_road_map(family, graph, data):
    """Any pairs, both orientations: where each has a slot the cells
    are the oracle's, for an array and for one pair; where one has none
    the call raises ``KeyError``."""
    hu = FAMILIES[family](graph).hu
    n = graph.num_vertices
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    pairs = data.draw(st.lists(pair, min_size=1, max_size=12))
    u, v = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    want = np.array([oracle.find_edge_slot(hu, a, b) for a, b in pairs])
    has = want >= 0
    if has.any():
        np.testing.assert_array_equal(hu.cells_of(u[has], v[has]), want[has])
        a, b = int(u[has][0]), int(v[has][0])
        assert hu.cells_of(a, b) == want[has][0]
    if not has.all():
        with pytest.raises(KeyError):
            hu.cells_of(u, v)
        a, b = int(u[~has][0]), int(v[~has][0])
        with pytest.raises(KeyError):
            hu.cells_of(a, b)


@pytest.mark.parametrize("family", list(FAMILIES))
@SETTINGS
@given(graph=connected_graphs(min_n=3, max_n=12), data=st.data())
def test_seeds_are_the_per_road_seeds(family, graph, data):
    """Three bursts in a row (roads repeated, either orientation, to
    ``inf`` and back): each folded batch seeds the same raised and
    lowered cells, direct weights and graph as the per-road loop, and
    the index then takes the burst."""
    index = FAMILIES[family](graph)
    roads = roads_of(index)
    for _ in range(3):
        burst = data.draw(
            st.lists(
                st.tuples(st.sampled_from(roads), st.booleans(), REPORTS).map(
                    lambda r: (*(r[0][::-1] if r[1] else r[0]), r[2])
                ),
                min_size=1,
                max_size=8,
            )
        )
        batch = driver.validate_batch("update", index.graph, burst)
        assert len({index.graph.road_key(u, v) for u, v, _ in batch}) == len(batch)
        if batch:
            assert_same_seeds(index, batch, batch)
        index.update(burst)


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("kind", ["increase", "decrease"])
@SETTINGS
@given(graph=connected_graphs(min_n=3, max_n=12), data=st.data())
def test_a_one_kind_batch_seeds_its_last_mentions(family, kind, graph, data):
    """``increase`` / ``decrease`` name a road several times, each
    mention past the last; their batch keeps each road's last mention,
    and its seeds are the ones the per-road loop gets from every
    mention in order."""
    index = FAMILIES[family](graph)
    roads = data.draw(st.lists(st.sampled_from(roads_of(index)), min_size=1, max_size=5))
    weight = {road: index.graph.weight(*road) for road in roads}
    mentions = []
    for road in roads:
        step = data.draw(st.integers(1, 3)) * (1 if kind == "increase" else -1)
        if weight[road] + step < 0:
            continue
        weight[road] += step
        mentions.append((*road, weight[road]))
    batch = driver.validate_batch(kind, index.graph, mentions)
    assert batch == list({road[:2]: road for road in mentions}.values())
    if batch:
        assert_same_seeds(index, batch, mentions)


def assert_same_seeds(index, batch, mentions) -> None:
    """:func:`driver.seed_cells` over *batch* on one copy of *index*
    and the oracle's loop over *mentions* on another leave the same
    seeds, direct weights and graph."""
    ours, theirs = clone(index), clone(index)
    raised, lowered = driver.seed_cells(ours.hu, batch)
    want_raised, want_lowered = oracle.seed_cells(theirs.hu, mentions)
    for got, want in ((raised, want_raised), (lowered, want_lowered)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    assert not np.intersect1d(raised, lowered).size
    np.testing.assert_array_equal(ours.hu.direct, theirs.hu.direct)
    assert sorted(ours.graph.edges()) == sorted(theirs.graph.edges())


@pytest.mark.parametrize("family", list(FAMILIES))
def test_an_unknown_road_is_refused_before_any_write(family):
    """A pair that is no road raises ``EdgeNotFound`` from the check,
    with the good change before it unwritten, on C and on the oracles
    alike."""
    index = FAMILIES[family](grid_network(4, 4))
    (u, v), before = roads_of(index)[0], sorted(index.graph.edges())
    assert not index.graph.has_edge(0, 15)
    for kernels in (python_kernels, None):
        with kernels() if kernels else nullcontext():
            with pytest.raises(EdgeNotFound):
                index.update([(u, v, 1.0), (0, 15, 2.0)])
        assert sorted(index.graph.edges()) == before and index.epoch == 0


@pytest.mark.parametrize("family", list(FAMILIES))
def test_a_road_with_no_slot_is_refused_before_any_write(family):
    """A road written into the graph behind the store's back has no
    cell: the seed step raises ``KeyError`` before it writes the graph
    (the per-road loop raised after)."""
    index = FAMILIES[family](grid_network(4, 4))
    hu = index.hu
    a, b = next(
        (a, b)
        for a in range(16)
        for b in range(16)
        if a != b and oracle.find_edge_slot(hu, a, b) < 0
    )
    index.graph.add_edge(a, b, 1.0)
    u, v, w = next(iter(index.graph.edges()))
    batch = [(u, v, w + 1.0), (a, b, 2.0)]
    with pytest.raises(KeyError):
        driver.seed_cells(hu, batch)
    assert (index.graph.weight(u, v), index.graph.weight(a, b)) == (w, 1.0)
    with pytest.raises(KeyError):
        oracle.seed_cells(clone(index).hu, batch)

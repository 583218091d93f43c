"""The C sweeps must stay in lockstep with their oracle on the hard inputs.

The oracle (``tests/oracles/maintenance.py``: rank-ordered ``LazyHeap``
loops) and the C array heaps both run the paper's ordered sweeps, under
the same driver. Lockstep parity of
everything but ``entries_processed`` — on the inputs where ties, ``inf``
and long dependency chains are most likely to trip a heap sweep — plus
identity with a fresh build is the check that the C sweeps lose nothing.
Every mixed burst is also replayed as the paper's two passes (DHL+ on
its raised roads, then DHL- on its lowered ones) on a pickled copy:
the one-pass sweep must leave the same bits.
"""

from __future__ import annotations

import math
import pickle
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network
from repro.graph.graph import Graph
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.build import build_labelling
from repro.service.runtime import InProcessRuntime
from tests.oracles.kernels import OnOracles, python_kernels
from tests.strategies import (
    assert_stats_match,
    assert_stream_parity,
    caterpillar_index,
    rolling_stream,
)

def per_engine(build) -> list:
    """The index ``build(config)`` gives on the oracle kernels (first)
    and on the C ones; :func:`kernels_of` runs calls on each."""
    config = DHLConfig(leaf_size=4, seed=0)
    with python_kernels():
        oracle = build(config)
    return [oracle, build(config)]


def kernels_of(position: int):
    """The kernels of :func:`per_engine`'s index at *position*."""
    return python_kernels() if position == 0 else nullcontext()


def maintained_state(index) -> list[np.ndarray]:
    """Every buffer maintenance writes, whatever the index family."""
    if isinstance(index, ShardedDHLIndex):
        parts = [*index.shards, index.overlay]
        return [buf for part in parts for buf in maintained_state(part)]
    if isinstance(index, DirectedDHLIndex):
        return [
            index.labels_out.values,
            index.labels_in.values,
            index.out_weights,
            index.in_weights,
        ]
    return [index.labels.values, index.hu.up_weights]


def assert_in_lockstep(indexes, results) -> None:
    """Same stats (bar search effort) and bit-identical maintained state."""
    for stats in results[1:]:
        assert_stats_match(stats, results[0])
    want = maintained_state(indexes[0])
    for other in indexes[1:]:
        for got, ref in zip(maintained_state(other), want, strict=True):
            np.testing.assert_array_equal(got, ref)


def two_passes(index, burst):
    """A pickled copy of *index* after *burst* as two one-kind batches:
    its raised roads, then its lowered ones (the sharded index, which
    has only ``update()``, takes each as an update)."""
    twin = pickle.loads(pickle.dumps(index))
    raised = [(u, v, w) for u, v, w in burst if w > twin.graph.weight(u, v)]
    lowered = [(u, v, w) for u, v, w in burst if w < twin.graph.weight(u, v)]
    sharded = isinstance(twin, ShardedDHLIndex)
    (twin.update if sharded else twin.increase)(raised)
    (twin.update if sharded else twin.decrease)(lowered)
    return twin


def replay(indexes, bursts) -> None:
    """Each burst through every index in lockstep (each on its own
    kernels), each index's state then equal to its two-pass twin's."""
    for burst in bursts:
        results = []
        for position, index in enumerate(indexes):
            with kernels_of(position):
                twin = two_passes(index, burst)
                results.append(index.update(burst))
            for got, want in zip(
                maintained_state(index), maintained_state(twin), strict=True
            ):
                np.testing.assert_array_equal(got, want)
        assert_in_lockstep(indexes, results)


def assert_equals_rebuild(index) -> None:
    """Maintained shortcuts and labels equal a fresh build on the
    current weights: the whole index for the directed family, H_U and L
    over the same (weight-independent) H_Q for the undirected one, and
    for every shard and the overlay of a sharded index."""
    if isinstance(index, ShardedDHLIndex):
        for part in (*index.shards, index.overlay):
            assert_equals_rebuild(part)
        return
    if isinstance(index, DirectedDHLIndex):
        fresh = DirectedDHLIndex.build(index.digraph.copy(), index.config)
        for got, want in zip(
            maintained_state(index), maintained_state(fresh), strict=True
        ):
            np.testing.assert_array_equal(got, want)
        return
    hu = UpdateHierarchy.build(index.graph.copy(), index.hq)
    np.testing.assert_array_equal(index.hu.up_weights, hu.up_weights)
    assert index.labels.equals(build_labelling(hu))


def uniform_grid(side: int, weight: float) -> Graph:
    graph = grid_network(side, side, diagonal_fraction=0.0, weight_jitter=0.0)
    for u, v, _ in list(graph.edges()):
        graph.set_weight(u, v, weight)
    return graph


def rolling_bursts(graph: Graph, rounds: int = 5, seed: int = 0) -> list:
    """The 16-change bursts of :func:`rolling_stream`, pairs dropped."""
    halves = np.arange(graph.num_vertices) % 2
    stream = rolling_stream(graph, halves, rounds=rounds, seed=seed, group=8)
    return [changes for changes, _ in stream]


@pytest.mark.parametrize("weight", [1.0, 7.0])
def test_every_path_ties(weight):
    """On an all-equal-weight grid every equality guard fires at once:
    each moved entry suspects all its ties, and heap order among equal
    keys must not change the result."""
    graph = uniform_grid(9, weight)
    indexes = per_engine(lambda config: DHLIndex.build(graph.copy(), config))
    replay(indexes, rolling_bursts(graph))
    assert_equals_rebuild(indexes[0])


def test_increase_to_inf_then_restore(small_grid):
    """Closed edges push entries to inf (inf == inf keeps suspecting);
    reopening them must bring every value back."""
    edges = list(small_grid.edges())[::23]
    indexes = per_engine(lambda config: DHLIndex.build(small_grid.copy(), config))
    before = indexes[0].labels.copy()
    replay(indexes, [[(u, v, math.inf) for u, v, _ in edges]])
    assert_equals_rebuild(indexes[0])
    assert not indexes[0].labels.equals(before)
    replay(indexes, [edges[: len(edges) // 2], edges])
    assert indexes[0].labels.equals(before)


def test_disconnected_graph():
    """Two components: cross-component entries are inf throughout, and
    cutting a bridge inside one splits it further."""
    graph = Graph(40)
    for base in (0, 20):
        for i in range(19):
            graph.add_edge(base + i, base + i + 1, float(1 + i % 4))
        for i in range(0, 16, 3):
            graph.add_edge(base + i, base + i + 4, float(3 + i % 5))
    indexes = per_engine(lambda config: DHLIndex.build(graph.copy(), config))
    assert math.isinf(indexes[0].distance(3, 25))
    bridge = (18, 19, graph.weight(18, 19))
    replay(
        indexes,
        [*rolling_bursts(graph, rounds=3), [(18, 19, math.inf)], [bridge]],
    )
    assert_equals_rebuild(indexes[0])


def test_deep_caterpillar():
    """A depth-56 hierarchy: chains as long as the tree is deep, where
    one changed spine edge propagates down the whole spine."""
    indexes = per_engine(lambda config: caterpillar_index(56, config))
    graph = indexes[0].graph.copy()
    spine = [(i, i + 1, graph.weight(i, i + 1)) for i in range(0, 55, 6)]
    replay(
        indexes,
        [
            [(u, v, 3 * w) for u, v, w in spine],
            spine[::2],
            *rolling_bursts(graph, rounds=3, seed=2),
        ],
    )
    assert_equals_rebuild(indexes[0])


def test_rolling_bursts_through_dhl_index(small_grid):
    indexes = per_engine(lambda config: DHLIndex.build(small_grid.copy(), config))
    halves = np.arange(small_grid.num_vertices) % 2
    oracle, compiled = indexes
    assert_stream_parity(
        [OnOracles(InProcessRuntime(oracle)), InProcessRuntime(compiled)],
        small_grid,
        halves,
        group=8,
        after_update=lambda results: assert_in_lockstep(indexes, results),
    )
    assert_equals_rebuild(indexes[0])


def test_rolling_bursts_through_sharded_index():
    graph = grid_network(12, 12, seed=4)
    indexes = per_engine(
        lambda config: ShardedDHLIndex.build(graph.copy(), k=2, config=config)
    )
    oracle, compiled = indexes
    assert_stream_parity(
        [OnOracles(InProcessRuntime(oracle)), InProcessRuntime(compiled)],
        graph,
        indexes[0].region_of,
        seed=2,
        group=8,
        after_update=lambda results: assert_in_lockstep(indexes, results),
    )
    replay(indexes, rolling_bursts(graph, rounds=4, seed=6))
    for index in indexes:
        assert_equals_rebuild(index)


def digraph_of(graph: Graph, kind: str) -> DiGraph:
    """*graph* as a digraph: both arcs alike (``symmetric``), half of
    them dearer (``asymmetric``), or every reverse arc closed
    (``one-way`` — one weight plane is all ``inf``)."""
    digraph = DiGraph.from_undirected(graph)
    if kind == "asymmetric":
        rng = np.random.default_rng(4)
        for u, v, w in list(digraph.arcs())[::2]:
            digraph.set_weight(u, v, float(w + rng.integers(1, 25)))
    elif kind == "one-way":
        for u, v, _ in graph.edges():
            digraph.set_weight(v, u, math.inf)
    return digraph


def arc_bursts(graph: Graph, both_ways: bool) -> list:
    """:func:`rolling_bursts` as arc changes: each moves one arc only,
    so the two label stores diverge; with *both_ways* every other change
    addresses the reverse arc."""
    return [
        [
            (v, u, w) if both_ways and i % 2 else (u, v, w)
            for i, (u, v, w) in enumerate(burst)
        ]
        for burst in rolling_bursts(graph, seed=5)
    ]


def test_rolling_bursts_through_directed_index(small_grid):
    for kind in ("symmetric", "asymmetric", "one-way"):
        indexes = per_engine(
            lambda config: DirectedDHLIndex.build(digraph_of(small_grid, kind), config)
        )
        replay(indexes, arc_bursts(small_grid, both_ways=kind != "one-way"))
        assert_equals_rebuild(indexes[0])


def test_pickled_directed_index_stays_live(small_grid):
    """The weight planes are halves of one buffer; a clone that came
    back from a pickle must still maintain that buffer, not detached
    copies of its halves."""
    indexes = [
        pickle.loads(pickle.dumps(index))
        for index in per_engine(
            lambda config: DirectedDHLIndex.build(
                digraph_of(small_grid, "asymmetric"), config
            )
        )
    ]
    replay(indexes, arc_bursts(small_grid, both_ways=True))
    assert_equals_rebuild(indexes[0])

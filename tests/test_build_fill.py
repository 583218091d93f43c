"""A build is an insertion into an empty store.

Contraction yields the shortcut structure alone; every build then fills
the weights with the C Algorithm 2 sweep from the direct road weights.
The fixpoint is unique and float addition is monotone, so the C sweep
and its oracle must fill the same bits, every cell must
satisfy Property 3.1 exactly, and the bench stores must keep the bits
the weighted contraction loops used to compute. The fill leaves the
per-cell direct weights on the store, so the first increase after a
build never walks the graph.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DHLConfig, DHLIndex, DirectedDHLIndex
from repro.core.directed import DirectedUpdateHierarchy
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.exceptions import HierarchyError
from repro.graph.graph import Graph
from repro.hierarchy.contraction import unweighted_store
from repro.hierarchy.csr import compact_slots
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.driver import fill_weights
from repro.partition.recursive import recursive_bisection
from tests.oracles.kernels import python_kernels
from tests.strategies import road_lists

#: SHA-1 of ``DHLIndex.build(graph).hu.up_weights`` on the bench graphs
#: (seed 7), as the weighted contraction loop computed them.
PINNED_UP_WEIGHTS = {
    "grid": "c1876d53327508ef8f104c189870fd6b9fede36f",
    "road": "2aac0a62769d741c897b1e5c2551e5126bf04d36",
}

BENCH_GRAPHS = {
    "grid": lambda: grid_network(48, 48, seed=7),
    "road": lambda: delaunay_network(4_000, style="uniform", edge_factor=1.35, seed=7),
}


def _hq(skeleton: Graph) -> QueryHierarchy:
    tree = recursive_bisection(skeleton, leaf_size=2, seed=0)
    return QueryHierarchy.from_partition_tree(tree, skeleton.num_vertices)


def _clique_elimination(skeleton: Graph, order) -> list[set[int]]:
    """Up-rows of the literal contraction: each contracted vertex joins
    every pair of its remaining neighbours."""
    work = [set(skeleton.neighbors(v)) for v in range(skeleton.num_vertices)]
    rows = [set() for _ in work]
    for v in order:
        rows[v] = set(work[v])
        for u in rows[v]:
            work[u] |= rows[v]
            work[u] -= {u, v}
    return rows


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(road_lists(), st.booleans())
def test_c_and_oracle_sweeps_fill_the_same_exact_store(case, directed):
    n, roads = case
    if directed:
        graph, store = DiGraph.from_arcs(n, roads), DirectedUpdateHierarchy
    else:
        graph, store = Graph.from_edges(n, roads), UpdateHierarchy
    skeleton = store.skeleton(graph)
    hq = _hq(skeleton)
    compiled = store.build(graph, hq)
    with python_kernels():
        reference = store.build(graph, hq)
    rows = _clique_elimination(skeleton, hq.contraction_order().tolist())
    assert [set(compiled.csr.row(v).tolist()) for v in range(n)] == rows
    assert np.array_equal(compiled.csr.indices, reference.csr.indices)
    assert compiled.up_weights.tobytes() == reference.up_weights.tobytes()
    assert compiled.direct.tobytes() == reference.direct.tobytes()
    for hu in (compiled, reference):
        hu.verify_minimum_weight_property(tolerance=0.0)


@pytest.mark.parametrize("name", sorted(PINNED_UP_WEIGHTS))
def test_bench_stores_keep_their_weights(name):
    index = DHLIndex.build(BENCH_GRAPHS[name]())
    digest = hashlib.sha1(index.hu.up_weights.tobytes()).hexdigest()
    assert digest == PINNED_UP_WEIGHTS[name]


@pytest.mark.parametrize("on_oracle", [False, True], ids=["c", "oracle"])
def test_a_store_missing_a_pair_is_refused_not_patched(on_oracle):
    """Contracting 1 first joins 0 and 2; a store without that slot has
    nowhere to put the finite triangle, and a build is no fallback."""
    graph = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
    store = unweighted_store(graph, graph, [1, 0, 2])
    compact_slots(store, store.csr.owners != 0)  # drops the shortcut (0, 2)
    with pytest.raises(HierarchyError):
        if on_oracle:
            with python_kernels():
                fill_weights(store)
        else:
            fill_weights(store)


@pytest.fixture(params=["undirected", "directed"])
def built(request, small_road):
    if request.param == "undirected":
        return DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=6, seed=0))
    digraph = DiGraph.from_undirected(small_road)
    digraph.set_weight(0, next(iter(digraph.out_neighbors(0))), math.inf)
    return DirectedDHLIndex.build(digraph, DHLConfig(leaf_size=6, seed=0))


def test_first_increase_after_a_build_never_walks_the_graph(built, monkeypatch):
    roads = [(u, v, 2 * w + 1) for u, v, w in built.graph.edges() if w < math.inf]

    def walk(self):
        raise AssertionError("the increase walked the graph")

    monkeypatch.setattr(type(built.graph), "edges", walk)
    built.increase(roads[:12])
    monkeypatch.undo()

    fresh = type(built.hu).build(built.graph.copy(), built.hq)
    assert np.array_equal(built.hu.up_weights, fresh.up_weights)
    assert np.array_equal(built.hu.direct, fresh.direct)


def test_dropped_direct_weights_are_rebuilt_from_the_graph(built, tmp_path):
    built.save(tmp_path / "index")
    loaded = type(built).load(tmp_path / "index")
    assert loaded.hu.direct is None
    loaded.increase([(u, v, w + 5) for u, v, w in list(loaded.graph.edges())[:8]])
    fresh = type(built.hu).build(loaded.graph.copy(), loaded.hq)
    assert np.array_equal(loaded.hu.up_weights, fresh.up_weights)
    assert np.array_equal(loaded.hu.direct, fresh.direct)

"""Tests for label construction (Algorithm 1) and the labelling structure.

The deep invariants checked here come straight from the paper:

* Definition 4.11 / Corollary 6.5 — ``L_v[i]`` is the distance between
  ``v`` and its rank-``i`` ancestor in the subgraph of G induced by the
  ancestor's descendants;
* Lemma 6.6 — the restricted 2-hop cover property.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra, dijkstra_subgraph
from repro.core.directed import DirectedUpdateHierarchy
from repro.core.index import DHLIndex
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.build import build_labelling
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.query import QueryEngine
from repro.partition.recursive import recursive_bisection
from tests.oracles.kernels import python_kernels
from tests.strategies import connected_graphs, road_lists
from tests.test_build_fill import BENCH_GRAPHS

#: SHA-1 of the bench labellings' values (generator seed 7), as the
#: numpy top-down pass built them.
PINNED_LABELS = {
    "grid": "cb93ffea241012f510dc3740b7569d0ba9950b46",
    "road": "7fc542a4c560dc0ae0da5ff509d7157959856fe7",
}


def build_all(graph, leaf_size=4, seed=0):
    tree = recursive_bisection(graph, leaf_size=leaf_size, seed=seed)
    hq = QueryHierarchy.from_partition_tree(tree, graph.num_vertices)
    hu = UpdateHierarchy.build(graph, hq)
    labels = build_labelling(hu)
    return hq, hu, labels


class TestAlgorithm1:
    def test_label_lengths(self, small_road):
        hq, _, labels = build_all(small_road)
        for v in range(hq.n):
            assert len(labels.view(v)) == hq.tau[v] + 1

    def test_diagonal_zero(self, small_road):
        _, _, labels = build_all(small_road)
        labels.validate_basic()

    def test_entries_bounded_by_shortcuts(self, small_road):
        """L_v[tau(w)] <= w(v, w) for every shortcut (single-hop chain)."""
        hq, hu, labels = build_all(small_road)
        for v in range(hq.n):
            for w in hu.csr.row(v):
                assert labels.view(v)[hq.tau[w]] <= hu.weight(v, w)

    def test_entries_upper_bound_graph_distance(self, small_road):
        """Subgraph distances can only exceed global distances."""
        hq, _, labels = build_all(small_road)
        for s in range(0, hq.n, 41):
            ref = dijkstra(small_road, s)
            chain = hq.ancestors(s)
            for i, w in enumerate(chain):
                assert labels.view(s)[i] >= ref[w] - 1e-9

    def test_definition_4_11_interval_subgraph_distance(self, small_road):
        """The central invariant: label entries are distances within the
        subgraph induced by the ancestor's descendants (Cor. 6.5)."""
        hq, _, labels = build_all(small_road)
        for v in range(0, hq.n, 53):
            chain = hq.ancestors(v)
            for i in range(len(chain) - 1):
                a = chain[i]
                expected = dijkstra_subgraph(
                    small_road, v, a,
                    lambda x, a=a: hq.precedes(a, x),
                )
                assert labels.view(v)[i] == expected, (v, i, a)

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(connected_graphs(min_n=3, max_n=20))
    def test_definition_4_11_random(self, graph):
        hq, _, labels = build_all(graph, leaf_size=3)
        for v in range(graph.num_vertices):
            chain = hq.ancestors(v)
            for i in range(len(chain)):
                a = chain[i]
                expected = dijkstra_subgraph(
                    graph, v, a, lambda x, a=a: hq.precedes(a, x)
                )
                assert labels.view(v)[i] == expected


@pytest.fixture(scope="module", params=sorted(PINNED_LABELS))
def bench_store(request) -> tuple[str, UpdateHierarchy]:
    return request.param, DHLIndex.build(BENCH_GRAPHS[request.param]()).hu


class TestTopDownPass:
    """The top-down pass runs in C; its oracle walks row slices in numpy
    (``tests/oracles/build.py``). The seeding is shared. Both must give
    the same bits."""

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(road_lists(), st.booleans())
    def test_c_and_oracle_build_the_same_labels(self, case, directed):
        n, roads = case
        if directed:
            graph, store = DiGraph.from_arcs(n, roads), DirectedUpdateHierarchy
        else:
            graph, store = Graph.from_edges(n, roads), UpdateHierarchy
        skeleton = store.skeleton(graph)
        tree = recursive_bisection(skeleton, leaf_size=2, seed=0)
        hu = store.build(graph, QueryHierarchy.from_partition_tree(tree, n))
        for plane in hu.plane_views():
            compiled = build_labelling(plane)
            with python_kernels():
                reference = build_labelling(plane)
            assert np.array_equal(compiled.offsets, reference.offsets)
            assert compiled.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize(
        "kernels", [nullcontext, python_kernels], ids=["c", "oracle"]
    )
    def test_bench_labellings_keep_their_bits(self, bench_store, kernels):
        name, hu = bench_store
        with kernels():
            labels = build_labelling(hu)
        assert hashlib.sha1(labels.values.tobytes()).hexdigest() == PINNED_LABELS[name]


class TestTwoHopCover:
    def test_lemma_6_6_all_pairs(self, medium_random):
        """min over common ancestors of L_s[r] + L_t[r] == d_G(s, t)."""
        hq, _, labels = build_all(medium_random)
        engine = QueryEngine(hq, labels)
        n = medium_random.num_vertices
        for s in range(0, n, 7):
            ref = dijkstra(medium_random, s)
            for t in range(n):
                assert engine.distance(s, t) == ref[t], (s, t)

    def test_disconnected_pairs_are_inf(self):
        from repro.graph.graph import Graph

        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        hq, _, labels = build_all(g)
        engine = QueryEngine(hq, labels)
        assert math.isinf(engine.distance(0, 2))
        assert engine.distance(0, 1) == 1.0
        assert engine.distance(2, 3) == 1.0

    def test_self_distance_zero(self, small_road):
        hq, _, labels = build_all(small_road)
        engine = QueryEngine(hq, labels)
        assert engine.distance(5, 5) == 0.0


class TestQueryEngine:
    def test_distance_with_hub_returns_witness(self, medium_random):
        hq, _, labels = build_all(medium_random)
        engine = QueryEngine(hq, labels)
        ref = dijkstra(medium_random, 0)
        d, hub = engine.distance_with_hub(0, 11)
        assert d == ref[11]
        assert hub in hq.ancestors(0)
        # hub must lie on some shortest path
        assert (
            dijkstra(medium_random, hub)[0] + dijkstra(medium_random, hub)[11]
            == d
        )

    def test_distance_with_hub_trivial_cases(self, small_road):
        hq, _, labels = build_all(small_road)
        engine = QueryEngine(hq, labels)
        assert engine.distance_with_hub(3, 3) == (0.0, -1)

    def test_batch_distances(self, medium_random):
        hq, _, labels = build_all(medium_random)
        engine = QueryEngine(hq, labels)
        pairs = [(0, 5), (3, 9), (7, 7)]
        out = engine.distances(pairs)
        assert out.shape == (3,)
        assert out[2] == 0.0
        assert out[0] == engine.distance(0, 5)

    def test_search_space_size(self, medium_random):
        hq, _, labels = build_all(medium_random)
        engine = QueryEngine(hq, labels)
        assert engine.search_space_size(0, 5) == 2 * hq.common_ancestor_count(0, 5)


class TestLabellingStructure:
    def test_copy_and_equals(self, small_road):
        _, _, labels = build_all(small_road)
        clone = labels.copy()
        assert labels.equals(clone)
        clone.view(3)[0] += 1.0
        assert not labels.equals(clone)
        assert labels.diff_count(clone) == 1

    def test_entry_accessors(self, small_road):
        hq, _, labels = build_all(small_road)
        v = 10
        chain = hq.ancestors(v)
        w = chain[0]
        assert labels.entry(v, 0) == labels.entry_for(v, w)
        labels.set_entry(v, 0, 123.0)
        assert labels.entry(v, 0) == 123.0

    def test_num_entries_and_memory(self, small_road):
        hq, _, labels = build_all(small_road)
        assert labels.num_entries == sum(int(t) + 1 for t in hq.tau)
        assert labels.memory_bytes() == 8 * labels.num_entries

    def test_equals_tolerates_inf(self):
        tau = np.array([0, 0])
        a = HierarchicalLabelling.from_arrays(
            [np.array([0.0]), np.array([math.inf])], tau
        )
        b = HierarchicalLabelling.from_arrays(
            [np.array([0.0]), np.array([math.inf])], tau
        )
        assert a.equals(b)
        assert a.diff_count(b) == 0

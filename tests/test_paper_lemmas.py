"""Direct tests of the paper's lemmas and stated properties.

Each test here corresponds to a numbered claim in the paper, checked
computationally on concrete graphs:

* Lemma 4.8 — any total order extending ⪯_H yields the same valley-path
  (shortcut) structure and weights;
* Definition 4.6 — every shortcut corresponds to at least one valley
  path, and its weight is the shortest one;
* Lemma 6.3 / Corollary 6.5 — label entries equal both the shortest
  shortcut-chain length and the desc-subgraph distance in G;
* Theorem 6.8's premise — affected label entries stay bounded by the
  queue-driven search (sanity-level check on counters).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.dijkstra import dijkstra_subgraph
from repro.graph.generators import delaunay_network
from repro.hierarchy.contraction import contract_in_order
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.build import build_labelling
from repro.labelling.driver import maintain
from repro.partition.recursive import recursive_bisection
from tests.oracles import query as oracle_query
from tests.strategies import connected_graphs


def build_hq(graph, leaf_size=3, seed=0):
    tree = recursive_bisection(graph, leaf_size=leaf_size, seed=seed)
    return QueryHierarchy.from_partition_tree(tree, graph.num_vertices)


def shortcut_map(sc) -> dict[tuple[int, int], float]:
    out = {}
    for v in range(sc.csr.n):
        for u in sc.csr.row(v).tolist():
            out[(min(v, u), max(v, u))] = sc.weight(v, u)
    return out


class TestLemma48:
    """The update hierarchy is invariant across total-order extensions."""

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(connected_graphs(min_n=3, max_n=18))
    def test_extension_invariance_random(self, graph):
        hq = build_hq(graph)
        tau = hq.tau
        n = graph.num_vertices
        # Two different extensions of the partial order: ties (equal tau,
        # incomparable vertices) broken in opposite id directions.
        order_a = sorted(range(n), key=lambda v: (-tau[v], v))
        order_b = sorted(range(n), key=lambda v: (-tau[v], -v))
        sc_a = contract_in_order(graph, order_a)
        sc_b = contract_in_order(graph, order_b)
        assert shortcut_map(sc_a) == shortcut_map(sc_b)

    def test_extension_invariance_road(self, small_road):
        hq = build_hq(small_road, leaf_size=8)
        tau = hq.tau
        n = small_road.num_vertices
        rng = np.random.default_rng(3)
        shuffle = rng.permutation(n)
        order_a = sorted(range(n), key=lambda v: (-tau[v], v))
        order_c = sorted(range(n), key=lambda v: (-tau[v], int(shuffle[v])))
        assert shortcut_map(contract_in_order(small_road, order_a)) == (
            shortcut_map(contract_in_order(small_road, order_c))
        )


class TestDefinition46:
    """Shortcuts are exactly the valley-path closure with min weights."""

    def test_every_shortcut_has_a_valley_path(self, small_road):
        hq = build_hq(small_road, leaf_size=8)
        hu = UpdateHierarchy.build(small_road, hq)
        tau = hu.tau
        for v in range(0, small_road.num_vertices, 17):
            for w in hu.csr.row(v).tolist():
                # valley path = path whose intermediates are strict
                # descendants of v (checked via restricted Dijkstra)
                d = dijkstra_subgraph(
                    small_road, v, w,
                    lambda x, w=w, v=v: x == w or tau[x] > tau[v],
                )
                assert d == hu.weight(v, w)

    def test_no_shortcut_between_unconnected_by_valley(self):
        """A pair with no valley path must have no shortcut at all."""
        g = delaunay_network(150, seed=2)
        hq = build_hq(g, leaf_size=6)
        hu = UpdateHierarchy.build(g, hq)
        tau = hu.tau
        shortcut_pairs = set(shortcut_map(hu))
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(300):
            v = int(rng.integers(0, 150))
            w = int(rng.integers(0, 150))
            if v == w or (min(v, w), max(v, w)) in shortcut_pairs:
                continue
            if not hq.comparable(v, w):
                continue
            if tau[v] < tau[w]:
                v, w = w, v
            d = dijkstra_subgraph(
                g, v, w, lambda x, w=w, v=v: x == w or tau[x] > tau[v]
            )
            assert math.isinf(d), (v, w)
            checked += 1
        assert checked > 0


class TestLemma63AndCorollary65:
    """Chains == interval subgraph distances == desc-subgraph G distances."""

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(connected_graphs(min_n=3, max_n=16))
    def test_chain_equals_desc_subgraph_distance(self, graph):
        hq = build_hq(graph)
        hu = UpdateHierarchy.build(graph, hq)
        labels = build_labelling(hu)
        for v in range(graph.num_vertices):
            chain = oracle_query.ancestors(hq, v)
            for i, a in enumerate(chain):
                below = hq.precedes(a, np.arange(hq.n))
                in_g = dijkstra_subgraph(
                    graph, v, a, lambda x, below=below: below[x]
                )
                assert labels.view(v)[i] == in_g


class TestComplexityCounters:
    """Theorem 6.7/6.8 sanity: work scales with the affected set, not n,
    on the C sweeps and on the paper-literal oracle sweeps."""

    @pytest.mark.usefixtures("on_kernels")
    def test_local_update_touches_few_entries(self):
        g = delaunay_network(1_000, seed=4)
        hq = build_hq(g, leaf_size=8)
        hu = UpdateHierarchy.build(g, hq)
        labels = build_labelling(hu)
        # a peripheral low-rank edge: its interval subgraphs are small
        tau = hu.tau
        deepest = int(np.argmax(tau))
        u = deepest
        v, w = next(iter(g.neighbors(u).items()))
        stats = maintain("increase", hu, (labels,), [(u, v, 2 * w)])
        assert stats.entries_processed <= labels.num_entries * 0.2
        assert stats.labels_changed <= stats.entries_processed

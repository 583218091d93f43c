"""Ablations of DHL's design choices (DESIGN.md §5 expected shapes).

Three choices the paper motivates are isolated here:

* **vertex ordering** — the separator-induced partial order versus the
  min-degree total order used by DCH/IncH2H: the former yields a lower
  hierarchy (fewer label entries) on road networks;
* **balance parameter beta** — construction/query trade-off of
  Definition 4.1;
* **leaf size** — deeper trees mean smaller labels but more partitioning
  work.
"""

from __future__ import annotations

import pytest

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.hierarchy.contraction import contract_in_order, min_degree_order
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.partition.recursive import recursive_bisection


@pytest.mark.benchmark(group="ablation-ordering")
@pytest.mark.parametrize("ordering", ["separator-partial-order", "min-degree"])
def test_contraction_ordering(benchmark, ordering, dataset, graphs):
    """Shortcut counts and contraction time under the two orderings."""
    graph = graphs[dataset]

    if ordering == "min-degree":
        def build():
            order = min_degree_order(graph)
            return contract_in_order(graph, order)
    else:
        tree = recursive_bisection(graph, seed=0)
        hq = QueryHierarchy.from_partition_tree(tree, graph.num_vertices)
        order = hq.contraction_order()

        def build():
            return contract_in_order(graph, order)

    result = benchmark(build)
    benchmark.extra_info["shortcuts"] = result.num_shortcuts


@pytest.mark.benchmark(group="ablation-beta")
@pytest.mark.parametrize("beta", [0.1, 0.2, 0.4])
def test_balance_parameter(benchmark, beta, dataset, graphs, query_pairs):
    """Construction under different balance thresholds; label size logged."""
    graph = graphs[dataset]
    index = benchmark.pedantic(
        lambda: DHLIndex.build(graph.copy(), DHLConfig(beta=beta, seed=0)),
        rounds=2,
        iterations=1,
    )
    index = DHLIndex.build(graph.copy(), DHLConfig(beta=beta, seed=0))
    stats = index.stats()
    benchmark.extra_info["label_entries"] = stats.label_entries
    benchmark.extra_info["height"] = stats.height


@pytest.mark.benchmark(group="ablation-leaf-size")
@pytest.mark.parametrize("leaf_size", [4, 8, 16, 32])
def test_leaf_size(benchmark, leaf_size, dataset, graphs, query_pairs):
    """Query time as a function of the partition leaf size."""
    graph = graphs[dataset]
    index = DHLIndex.build(graph.copy(), DHLConfig(leaf_size=leaf_size, seed=0))
    pairs = query_pairs[dataset][:500]

    def run():
        distance = index.distance
        for s, t in pairs:
            distance(s, t)

    benchmark.extra_info["label_entries"] = index.stats().label_entries
    benchmark.extra_info["height"] = index.stats().height
    benchmark(run)

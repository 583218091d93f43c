"""Tests for the query hierarchy H_Q and the vertex partial order."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import HierarchyError, VertexNotFound
from repro.graph.generators import delaunay_network, grid_network
from repro.graph.graph import Graph
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.labelling.native import engine as native_engine
from repro.partition.recursive import PartitionTreeNode, recursive_bisection
from tests.oracles import query as oracle
from tests.oracles.kernels import python_kernels
from tests.strategies import WORD_EDGES, caterpillar_index, connected_graphs

ARRAYS = ("tau", "node_of", "depth", "path", "chain")


def tiny_tree() -> PartitionTreeNode:
    """Root {0,1}; left child {2,3}; right child {4} with leaf {5}."""
    return PartitionTreeNode(
        vertices=[0, 1],
        children=[
            PartitionTreeNode(vertices=[2, 3]),
            PartitionTreeNode(
                vertices=[4],
                children=[PartitionTreeNode(vertices=[5])],
            ),
        ],
    )


@pytest.fixture
def hq() -> QueryHierarchy:
    return QueryHierarchy.from_partition_tree(tiny_tree(), 6)


@st.composite
def partition_trees(draw, max_nodes: int = 40) -> tuple[PartitionTreeNode, int]:
    """A random partition tree: up to two children a node, separator
    nodes that may be empty, single-child chains, every vertex of
    ``range(n)`` owned once."""
    count = draw(st.integers(1, max_nodes))
    sizes = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    nodes = [PartitionTreeNode(vertices=[]) for _ in range(count)]
    for i in range(1, count):
        open_slots = [j for j in range(i) if len(nodes[j].children) < 2]
        # Leaning on the newest nodes makes deep single-child chains.
        recent = draw(st.booleans())
        parent = draw(st.sampled_from(open_slots[-4:] if recent else open_slots))
        nodes[parent].children.append(nodes[i])
    n = sum(sizes)
    owners = draw(st.permutations(range(n)))
    start = 0
    for node, size in zip(nodes, sizes):
        node.vertices = list(owners[start : start + size])
        start += size
    return nodes[0], n


def assert_same_arrays(a: QueryHierarchy, b: QueryHierarchy) -> None:
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        np.testing.assert_array_equal(x, y, err_msg=name)


def from_node_tables(hq: QueryHierarchy) -> QueryHierarchy:
    """*hq* again from its derived node tables, as a snapshot stores it."""
    return QueryHierarchy.from_nodes(
        hq.tau, hq.node_of, hq.depth, hq.parent(), hq.vend(), hq.branch()
    )


def assert_order_matches_oracle(hq: QueryHierarchy) -> None:
    """``comparable`` / ``precedes`` (one C call over all pairs) and the
    kernel's K equal the scalar bit-math reference on every pair."""
    n = hq.n
    u, v = (a.ravel() for a in np.divmod(np.arange(n * n), n))
    pairs = list(zip(u.tolist(), v.tolist()))
    np.testing.assert_array_equal(
        hq.precedes(u, v), [oracle.precedes(hq, a, b) for a, b in pairs]
    )
    np.testing.assert_array_equal(
        hq.comparable(u, v), [oracle.comparable(hq, a, b) for a, b in pairs]
    )
    k = [oracle.common_ancestor_count(hq, a, b) for a, b in pairs]
    np.testing.assert_array_equal(native_engine.common_ancestors(hq, u, v), k)
    with python_kernels():  # FrexpTables, and its deep fallback past 50
        np.testing.assert_array_equal(native_engine.common_ancestors(hq, u, v), k)


class TestConstruction:
    def test_tau_assignment(self, hq):
        # root: 0 -> 0, 1 -> 1; both children start at rank 2
        assert hq.tau[0] == 0 and hq.tau[1] == 1
        assert hq.tau[2] == 2 and hq.tau[3] == 3
        assert hq.tau[4] == 2 and hq.tau[5] == 3

    def test_height(self, hq):
        assert hq.height == 4

    def test_missing_vertex_detected(self):
        tree = PartitionTreeNode(vertices=[0, 1])
        with pytest.raises(HierarchyError):
            QueryHierarchy.from_partition_tree(tree, 3)

    def test_duplicate_vertex_detected(self):
        tree = PartitionTreeNode(
            vertices=[0], children=[PartitionTreeNode(vertices=[0, 1])]
        )
        with pytest.raises(HierarchyError):
            QueryHierarchy.from_partition_tree(tree, 2)

    def test_node_tables(self, hq):
        """Preorder nodes: root, {2, 3}, {4}, {5}."""
        assert hq.depth.tolist() == [0, 1, 1, 2]
        assert hq.path[:, 0].tolist() == [0, 0, 1 << 63, 1 << 63]
        assert hq.chain.tolist() == [[2, 0, 0], [2, 4, 0], [2, 3, 0], [2, 3, 4]]
        assert hq.vend().tolist() == [2, 4, 3, 4]
        assert hq.parent().tolist() == [-1, 0, 0, 2]
        assert hq.branch().tolist() == [0, 0, 1, 0]
        order, starts = hq.members()
        assert order.tolist() == [0, 1, 2, 3, 4, 5]
        assert starts.tolist() == [0, 2, 4, 5, 6]

    def test_partition_tree_round_trip(self, hq):
        tree = hq.partition_tree()
        assert tree == tiny_tree()
        assert_same_arrays(QueryHierarchy.from_partition_tree(tree, 6), hq)

    def test_pickle_carries_the_arrays_only(self, hq):
        hq.comparable(0, 5)  # binds the kernel record
        clone = pickle.loads(pickle.dumps(hq))
        assert clone._record is None
        assert_same_arrays(clone, hq)


class TestPartialOrder:
    def test_precedes_within_node(self, hq):
        assert hq.precedes(0, 1)
        assert not hq.precedes(1, 0)
        assert hq.precedes(0, 0)

    def test_precedes_across_nodes(self, hq):
        assert hq.precedes(0, 5)
        assert hq.precedes(4, 5)
        assert not hq.precedes(5, 4)

    def test_incomparable_branches(self, hq):
        assert not hq.comparable(2, 4)
        assert not hq.comparable(3, 5)

    def test_arrays_in_arrays_out(self, hq):
        u = np.array([[0, 2], [4, 3]])
        v = np.array([[5, 4], [5, 5]])
        assert hq.comparable(u, v).tolist() == [[True, False], [True, False]]
        assert hq.precedes(v, u).tolist() == [[False, False], [False, False]]
        assert hq.precedes([0, 1, 2], 3).tolist() == [True, True, True]

    def test_ids_out_of_range_raise(self, hq):
        with pytest.raises(VertexNotFound):
            hq.comparable(0, 6)
        with pytest.raises(VertexNotFound):
            hq.precedes(-1, 0)

    def test_oracle_ancestors_chain(self, hq):
        assert oracle.ancestors(hq, 5) == [0, 1, 4, 5]
        assert oracle.ancestors(hq, 3) == [0, 1, 2, 3]
        assert oracle.ancestors(hq, 0) == [0]
        for v in range(6):
            chain = oracle.ancestors(hq, v)
            assert [hq.tau[w] for w in chain] == list(range(len(chain)))
            assert chain[-1] == v


class TestLCA:
    def test_lca_depth(self, hq):
        assert oracle.lca_depth(hq, 2, 5) == 0
        assert oracle.lca_depth(hq, 4, 5) == 1
        assert oracle.lca_depth(hq, 5, 5) == 2
        assert oracle.lca_depth(hq, 0, 5) == 0

    def test_common_ancestor_counts(self, hq):
        # 2 and 4 only share the root node vertices {0, 1}; all of
        # anc(4) are common with 5; 2 and 3 share a node.
        s = np.array([2, 4, 5, 2, 0])
        t = np.array([4, 5, 4, 3, 1])
        want = [2, 3, 3, 3, 1]
        assert native_engine.common_ancestors(hq, s, t).tolist() == want
        pairs = zip(s.tolist(), t.tolist())
        assert [oracle.common_ancestor_count(hq, a, b) for a, b in pairs] == want

    def test_count_matches_bruteforce_partial_order(self, hq):
        for s in range(6):
            for t in range(6):
                expected = sum(
                    1
                    for w in range(6)
                    if oracle.precedes(hq, w, s) and oracle.precedes(hq, w, t)
                )
                assert oracle.common_ancestor_count(hq, s, t) == expected, (s, t)
        assert_order_matches_oracle(hq)


class TestRoundTrip:
    """``from_partition_tree(hq.partition_tree(), n)`` is ``hq``, array
    for array, and the kernel's order equals the bit-math oracle's."""

    @settings(max_examples=60, deadline=None)
    @given(partition_trees())
    def test_hypothesis_trees(self, drawn):
        tree, n = drawn
        hq = QueryHierarchy.from_partition_tree(tree, n)
        assert hq.partition_tree() == tree
        again = QueryHierarchy.from_partition_tree(hq.partition_tree(), n)
        assert_same_arrays(again, hq)
        assert_same_arrays(from_node_tables(hq), hq)
        if n:
            assert_order_matches_oracle(hq)

    def test_empty_and_single_child_nodes(self):
        """Empty separators over single children, and a lone empty root."""
        tree = PartitionTreeNode(
            vertices=[],
            children=[
                PartitionTreeNode(
                    vertices=[],
                    children=[PartitionTreeNode(vertices=[2, 0])],
                ),
                PartitionTreeNode(vertices=[1], children=[PartitionTreeNode([])]),
            ],
        )
        hq = QueryHierarchy.from_partition_tree(tree, 3)
        assert hq.vend().tolist() == [0, 0, 2, 1, 1]
        assert hq.partition_tree() == tree
        assert_order_matches_oracle(hq)
        assert not hq.comparable(0, 1) and hq.precedes(2, 0)
        empty = QueryHierarchy.from_partition_tree(PartitionTreeNode([]), 0)
        assert empty.partition_tree() == PartitionTreeNode([])

    @pytest.mark.parametrize("depth", WORD_EDGES)
    def test_multi_word_paths(self, depth):
        hq = caterpillar_index(depth).hq
        assert hq.path.shape[1] == -(-depth // 64)
        assert_same_arrays(
            QueryHierarchy.from_partition_tree(hq.partition_tree(), hq.n), hq
        )
        assert_same_arrays(from_node_tables(hq), hq)
        assert_order_matches_oracle(hq)

    @pytest.mark.parametrize(
        "graph",
        [
            lambda: grid_network(48, 48, seed=7),
            lambda: delaunay_network(4_000, style="uniform", edge_factor=1.35, seed=7),
        ],
        ids=["bench-grid", "bench-road"],
    )
    def test_bench_graphs(self, graph):
        graph = graph()
        n = graph.num_vertices
        tree = recursive_bisection(graph, seed=0)
        hq = QueryHierarchy.from_partition_tree(tree, n)
        assert hq.partition_tree() == tree
        again = QueryHierarchy.from_partition_tree(hq.partition_tree(), n)
        assert_same_arrays(again, hq)
        hq.validate_graph(graph)
        rng = np.random.default_rng(1)
        u, v = rng.integers(0, n, 2_000), rng.integers(0, n, 2_000)
        pairs = zip(u.tolist(), v.tolist())
        assert hq.comparable(u, v).tolist() == [
            oracle.comparable(hq, a, b) for a, b in pairs
        ]


class TestOrders:
    def test_contraction_order_decreasing_tau(self, hq):
        order = hq.contraction_order()
        taus = [hq.tau[v] for v in order]
        assert taus == sorted(taus, reverse=True)

    def test_memory_bytes_is_the_five_arrays(self, hq):
        assert hq.memory_bytes() == sum(getattr(hq, a).nbytes for a in ARRAYS) > 0


class TestOnRealPartitions:
    def test_validate_graph(self, small_road):
        tree = recursive_bisection(small_road, seed=0)
        hq = QueryHierarchy.from_partition_tree(tree, small_road.num_vertices)
        hq.validate_graph(small_road)  # must not raise

    def test_validate_graph_names_an_incomparable_edge(self, hq):
        graph = Graph.from_edges(6, [(0, 5, 1.0), (2, 4, 1.0)])
        with pytest.raises(HierarchyError, match=r"edge \(2, 4\)"):
            hq.validate_graph(graph)

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(connected_graphs(min_n=3, max_n=25))
    def test_common_ancestors_bruteforce_random(self, graph):
        tree = recursive_bisection(graph, leaf_size=3, seed=0)
        hq = QueryHierarchy.from_partition_tree(tree, graph.num_vertices)
        hq.validate_graph(graph)
        n = graph.num_vertices
        for s in range(0, n, 3):
            for t in range(0, n, 2):
                expected = sum(
                    1
                    for w in range(n)
                    if oracle.precedes(hq, w, s) and oracle.precedes(hq, w, t)
                )
                assert oracle.common_ancestor_count(hq, s, t) == expected
        assert_order_matches_oracle(hq)

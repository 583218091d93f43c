"""Tests for coarsening, FM refinement, initial partitions, multilevel.

The steps run inside the C context :class:`repro.partition.kernels.Bisector`
and are checked through its calls; coarsening to a size and component
packing are the oracle pipeline's glue (``tests/oracles/multilevel.py``),
which the C context does inside. ``test_partition_identity`` holds every
step to the oracle's decisions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PartitionError
from repro.graph.generators import delaunay_network, grid_network
from repro.partition.kernels import Bisector
from repro.partition.multilevel import multilevel_bisection
from repro.partition.spectral import spectral_bisection_flat
from repro.partition.types import PartitionGraph
from repro.utils.rng import make_rng
from tests.oracles import partition as oracle
from tests.oracles.multilevel import coarsen_to_size, component_packing, compute_cut


def cut_of(pg: PartitionGraph, side: np.ndarray) -> float:
    return sum(w for u, v, w in oracle.edges(pg) if side[u] != side[v])


@pytest.fixture
def road_pg(small_road) -> PartitionGraph:
    return PartitionGraph.from_graph(small_road)


class TestPartitionGraph:
    def test_from_graph_unit_multiplicities(self, diamond_graph):
        pg = PartitionGraph.from_graph(diamond_graph)
        assert pg.num_vertices == 4
        assert all(w == 1.0 for _, _, w in oracle.edges(pg))
        assert sum(pg.vweight) == 4

    def test_from_graph_subset(self, diamond_graph):
        pg = PartitionGraph.from_graph(diamond_graph, [0, 1, 3])
        assert pg.num_vertices == 3
        assert sum(1 for _ in oracle.edges(pg)) == 2

    def test_compute_cut(self, diamond_graph):
        pg = PartitionGraph.from_graph(diamond_graph)
        side = np.array([0, 0, 1, 1], dtype=np.int8)
        bip = compute_cut(pg, side)
        assert bip.cut_weight == 2.0
        assert len(bip.cut_edges) == 2
        assert all(side[a] == 0 and side[b] == 1 for a, b in bip.cut_edges)


class TestCoarsening:
    def test_coarsen_preserves_total_weight(self, road_pg):
        with Bisector(*road_pg.flat(), 0.2) as ctx:
            ctx.load(range(road_pg.num_vertices))
            size = ctx.coarsen(make_rng(0).permutation(ctx.size), 8, 2.0)
            assert ctx.total == sum(road_pg.vweight)
            assert 0 < size == ctx.size < road_pg.num_vertices
            assert ctx.coarsest()[3].sum() == sum(road_pg.vweight)

    def test_coarsen_respects_max_weight(self, road_pg):
        with Bisector(*road_pg.flat(), 0.2) as ctx:
            ctx.load(range(road_pg.num_vertices))
            for _ in range(3):
                ctx.coarsen(make_rng(0).permutation(ctx.size), 2, 2.0)
                assert ctx.coarsest()[3].max() <= 2

    def test_coarsen_to_size(self, road_pg):
        levels = coarsen_to_size(road_pg, 50, make_rng(0))
        assert levels
        assert levels[-1].graph.num_vertices <= max(
            50, road_pg.num_vertices // 2
        )
        # strictly decreasing level sizes
        sizes = [road_pg.num_vertices] + [lv.graph.num_vertices for lv in levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_coarsen_to_size_noop_when_small(self, diamond_graph):
        pg = PartitionGraph.from_graph(diamond_graph)
        assert coarsen_to_size(pg, 10, make_rng(0)) == []


def winner(pg: PartitionGraph, cand: np.ndarray) -> tuple[float, float, object]:
    """Open a context's portfolio on BFS halves from vertex 0 alone, then
    :meth:`~Bisector.consider` *cand* and project; returns the opening
    cut, the best cut after *cand* and the projected result. When *cand*
    beats the opening, the result is *cand* rebalanced and refined."""
    with Bisector(*pg.flat(), 0.2) as ctx:
        ctx.load(range(pg.num_vertices))
        opened = ctx.initial([0])
        best = ctx.consider(cand)
        ctx.project()
        return opened, best, ctx.result()


def oracle_refined(pg: PartitionGraph, cand: np.ndarray) -> np.ndarray:
    bound = int(0.8 * sum(pg.vweight))
    return oracle.fm_refine(pg, oracle.rebalance(pg, cand, bound), bound)


def noisy_column_cut(pg: PartitionGraph, flips: int) -> np.ndarray:
    """The 12×14 grid's 12-edge cut left of column 8, *flips* vertices
    moved across it."""
    side = (np.arange(pg.num_vertices) % 14 < 8).astype(np.int8)
    side[make_rng(flips).choice(pg.num_vertices, flips, replace=False)] ^= 1
    return side


class TestFM:
    """A 12×14 grid opened on BFS halves from its corner cuts 13 edges,
    and a cut left of column 8 cuts 12. A candidate near that cut beats
    the opening after FM, so the context projects it, and its refined
    side is observable: it must be the oracle's rebalance and FM of the
    candidate."""

    @pytest.mark.parametrize("flips", [0, 10, 20])
    def test_refine_never_worsens_cut(self, small_grid, flips):
        pg = PartitionGraph.from_graph(small_grid)
        cand = noisy_column_cut(pg, flips)
        opened, best, bip = winner(pg, cand)
        expected = oracle_refined(pg, cand)
        assert best == cut_of(pg, expected) < opened
        assert bip.side.tolist() == expected.tolist()
        assert best <= cut_of(pg, cand)

    def test_refine_improves_bad_partition(self, small_grid):
        pg = PartitionGraph.from_graph(small_grid)
        cand = noisy_column_cut(pg, 20)
        assert cut_of(pg, cand) > 60
        _, best, _ = winner(pg, cand)
        assert best < 0.7 * cut_of(pg, cand)

    def test_refine_respects_balance(self, small_grid):
        """The noisy candidate weighs within the bound; FM keeps it there."""
        pg = PartitionGraph.from_graph(small_grid)
        cand = noisy_column_cut(pg, 20)
        bound = int(0.8 * sum(pg.vweight))
        assert max(len(cand) - cand.sum(), cand.sum()) <= bound
        _, _, bip = winner(pg, cand)
        assert max(oracle.side_weights(pg, bip.side)) <= bound

    def test_rebalance_enforces_bound(self):
        """All on side 0 of a 10×10 grid: rebalanced to the bound, then
        refined to 10 edges, it beats the opening's 13."""
        pg = PartitionGraph.from_graph(grid_network(10, 10, seed=5))
        cand = np.zeros(pg.num_vertices, dtype=np.int8)
        opened, best, bip = winner(pg, cand)
        expected = oracle_refined(pg, cand)
        assert best == cut_of(pg, expected) < opened
        assert bip.side.tolist() == expected.tolist()
        assert max(oracle.side_weights(pg, bip.side)) <= int(0.8 * sum(pg.vweight))


class TestInitialPartitions:
    def test_component_packing_on_connected_returns_none(self, road_pg):
        assert component_packing(road_pg) is None

    def test_component_packing_zero_cut(self):
        pg = PartitionGraph([{1: 1.0}, {0: 1.0}, {3: 1.0}, {2: 1.0}], [1, 1, 1, 1])
        side = component_packing(pg)
        assert side is not None
        assert cut_of(pg, side) == 0.0
        assert side.min() == 0 and side.max() == 1


class TestSpectral:
    def test_fiedler_split_on_barbell(self):
        # two cliques joined by one edge: spectral should find the bridge
        adj: list[dict[int, float]] = [{} for _ in range(10)]
        for group in (range(5), range(5, 10)):
            for a in group:
                for b in group:
                    if a != b:
                        adj[a][b] = 1.0
        adj[4][5] = adj[5][4] = 1.0
        pg = PartitionGraph(adj, [1] * 10)
        side = spectral_bisection_flat(*pg.flat())
        assert side is not None
        assert cut_of(pg, side) == 1.0

    def test_tiny_graph_returns_none(self):
        pg = PartitionGraph([{1: 1.0}, {0: 1.0}], [1, 1])
        assert spectral_bisection_flat(*pg.flat()) is None


class TestMultilevel:
    @pytest.mark.parametrize("beta", [0.2, 0.35, 0.5])
    def test_balance_guarantee(self, small_road, beta):
        pg = PartitionGraph.from_graph(small_road)
        bip = multilevel_bisection(pg, beta=beta, seed=0)
        w0, w1 = oracle.side_weights(pg, bip.side)
        assert max(w0, w1) <= (1 - beta) * sum(pg.vweight) + 1e-9

    def test_cut_edges_consistent(self, small_road):
        pg = PartitionGraph.from_graph(small_road)
        bip = multilevel_bisection(pg, seed=0)
        assert bip.cut_weight == cut_of(pg, bip.side)
        assert len(bip.cut_edges) == bip.cut_weight  # unit multiplicities

    def test_reasonable_cut_on_grid(self):
        g = grid_network(20, 20, seed=0, diagonal_fraction=0.0)
        pg = PartitionGraph.from_graph(g)
        bip = multilevel_bisection(pg, seed=0)
        # A 20x20 grid has a 20-edge balanced cut; allow 2x slack.
        assert bip.cut_weight <= 40

    def test_disconnected_graph_gets_zero_cut(self):
        pg = PartitionGraph(
            [{1: 1.0}, {0: 1.0}, {3: 1.0}, {2: 1.0}, {5: 1.0}, {4: 1.0}],
            [1] * 6,
        )
        bip = multilevel_bisection(pg, seed=0)
        assert bip.cut_weight == 0.0

    def test_giant_component_is_bisected_not_shredded(self):
        """Regression: a dominant component plus crumbs must be split by
        bisecting the giant, not by rebalancing a zero-cut packing (which
        used to destroy hundreds of edges on large road networks)."""
        g = delaunay_network(800, seed=3)
        giant = PartitionGraph.from_graph(g)
        # the giant plus 5 isolated crumbs (rows are frozen: build up front)
        pg = PartitionGraph([*giant.rows, *[()] * 5], giant.vweight + [1] * 5)
        bip = multilevel_bisection(pg, beta=0.2, seed=0)
        w0, w1 = oracle.side_weights(pg, bip.side)
        assert max(w0, w1) <= 0.8 * sum(pg.vweight) + 1e-9
        # the cut must look like a single good bisection of the giant,
        # not like rebalancing damage
        assert bip.cut_weight <= 60

    def test_components_helper(self):
        pg = PartitionGraph(
            [{1: 1.0}, {0: 1.0}, {}, {4: 1.0}, {3: 1.0}], [2, 1, 5, 1, 1]
        )
        with Bisector(*pg.flat(), 0.2) as ctx:
            assert ctx.load(range(5)) == 3
            assert ctx.total == 10
            assert ctx.disconnected()  # packed whole: 5 | 3 + 2
            bip = ctx.result()
        assert bip.cut_weight == 0.0
        assert oracle.side_weights(pg, bip.side) == (5, 5)

    def test_rejects_bad_beta(self, road_pg):
        with pytest.raises(PartitionError):
            multilevel_bisection(road_pg, beta=0.9)

    def test_rejects_single_vertex(self):
        with pytest.raises(PartitionError):
            multilevel_bisection(PartitionGraph([{}], [1]))

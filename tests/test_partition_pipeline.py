"""Tests for coarsening, FM refinement, initial partitions, multilevel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PartitionError
from repro.graph.generators import delaunay_network, grid_network
from repro.partition.coarsen import coarsen_once, coarsen_to_size
from repro.partition.fm import fm_refine, rebalance
from repro.partition.initial import bfs_halves, component_packing, greedy_growing
from repro.partition.multilevel import multilevel_bisection
from repro.partition.spectral import spectral_bisection
from repro.partition.types import Bipartition, PartitionGraph
from repro.utils.rng import make_rng


def cut_of(pg: PartitionGraph, side: np.ndarray) -> float:
    return sum(w for u, v, w in pg.edges() if side[u] != side[v])


@pytest.fixture
def road_pg(small_road) -> PartitionGraph:
    return PartitionGraph.from_graph(small_road)


class TestPartitionGraph:
    def test_from_graph_unit_multiplicities(self, diamond_graph):
        pg = PartitionGraph.from_graph(diamond_graph)
        assert pg.num_vertices == 4
        assert all(w == 1.0 for _, _, w in pg.edges())
        assert pg.total_vweight() == 4

    def test_from_graph_subset(self, diamond_graph):
        pg = PartitionGraph.from_graph(diamond_graph, [0, 1, 3])
        assert pg.num_vertices == 3
        assert sum(1 for _ in pg.edges()) == 2

    def test_compute_cut(self, diamond_graph):
        pg = PartitionGraph.from_graph(diamond_graph)
        side = np.array([0, 0, 1, 1], dtype=np.int8)
        bip = Bipartition.compute_cut(pg, side)
        assert bip.cut_weight == 2.0
        assert len(bip.cut_edges) == 2
        assert all(side[a] == 0 and side[b] == 1 for a, b in bip.cut_edges)


class TestCoarsening:
    def test_coarsen_once_preserves_total_weight(self, road_pg):
        level = coarsen_once(road_pg, make_rng(0), max_vertex_weight=8)
        assert level.graph.total_vweight() == road_pg.total_vweight()
        assert level.graph.num_vertices < road_pg.num_vertices

    def test_coarsen_once_maps_all_vertices(self, road_pg):
        level = coarsen_once(road_pg, make_rng(0), max_vertex_weight=8)
        assert len(level.fine_to_coarse) == road_pg.num_vertices
        assert level.fine_to_coarse.min() >= 0
        assert level.fine_to_coarse.max() == level.graph.num_vertices - 1

    def test_coarsen_respects_max_weight(self, road_pg):
        level = coarsen_once(road_pg, make_rng(0), max_vertex_weight=2)
        assert max(level.graph.vweight) <= 2

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

    def test_coarse_cut_projects_to_fine_cut(self, road_pg):
        """A coarse partition's cut equals the projected fine cut."""
        level = coarsen_once(road_pg, make_rng(1), max_vertex_weight=8)
        rng = make_rng(2)
        coarse_side = (rng.random(level.graph.num_vertices) < 0.5).astype(np.int8)
        fine_side = coarse_side[level.fine_to_coarse]
        assert cut_of(level.graph, coarse_side) == cut_of(road_pg, fine_side)


class TestFM:
    def test_refine_never_worsens_cut(self, road_pg):
        rng = make_rng(3)
        side = (rng.random(road_pg.num_vertices) < 0.5).astype(np.int8)
        bound = int(0.8 * road_pg.total_vweight())
        refined = fm_refine(road_pg, side, bound)
        assert cut_of(road_pg, refined) <= cut_of(road_pg, side)

    def test_refine_respects_balance(self, road_pg):
        rng = make_rng(4)
        side = (rng.random(road_pg.num_vertices) < 0.5).astype(np.int8)
        bound = int(0.8 * road_pg.total_vweight())
        refined = fm_refine(road_pg, side, bound)
        w0 = sum(road_pg.vweight[v] for v in range(road_pg.num_vertices) if refined[v] == 0)
        w1 = road_pg.total_vweight() - w0
        assert max(w0, w1) <= bound

    def test_refine_improves_bad_partition(self, small_grid):
        """An interleaved-stripes partition should improve dramatically."""
        pg = PartitionGraph.from_graph(small_grid)
        side = np.fromiter(((v // 14) % 2 for v in range(pg.num_vertices)), dtype=np.int8)
        bound = int(0.8 * pg.total_vweight())
        refined = fm_refine(pg, side, bound)
        assert cut_of(pg, refined) < 0.7 * cut_of(pg, side)

    def test_rebalance_enforces_bound(self, road_pg):
        side = np.zeros(road_pg.num_vertices, dtype=np.int8)  # all on side 0
        bound = int(0.8 * road_pg.total_vweight())
        fixed = rebalance(road_pg, side, bound)
        w0 = sum(road_pg.vweight[v] for v in range(road_pg.num_vertices) if fixed[v] == 0)
        assert max(w0, road_pg.total_vweight() - w0) <= bound


class TestInitialPartitions:
    def test_component_packing_on_connected_returns_none(self, road_pg):
        assert component_packing(road_pg) is None

    def test_component_packing_zero_cut(self):
        pg = PartitionGraph([{1: 1.0}, {0: 1.0}, {3: 1.0}, {2: 1.0}], [1, 1, 1, 1])
        side = component_packing(pg)
        assert side is not None
        assert cut_of(pg, side) == 0.0
        assert side.min() == 0 and side.max() == 1

    def test_greedy_growing_covers_half(self, road_pg):
        side = greedy_growing(road_pg, make_rng(0))
        w0 = int((side == 0).sum())
        assert 0 < w0 < road_pg.num_vertices
        assert w0 >= road_pg.num_vertices // 2  # grows to at least half

    def test_bfs_halves_roughly_balanced(self, road_pg):
        side = bfs_halves(road_pg, make_rng(0))
        w0 = int((side == 0).sum())
        assert abs(w0 - road_pg.num_vertices / 2) <= road_pg.num_vertices * 0.2


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
        side = spectral_bisection(pg)
        assert side is not None
        assert cut_of(pg, side) == 1.0

    def test_tiny_graph_returns_none(self):
        pg = PartitionGraph([{1: 1.0}, {0: 1.0}], [1, 1])
        assert spectral_bisection(pg) is None


class TestMultilevel:
    @pytest.mark.parametrize("beta", [0.2, 0.35, 0.5])
    def test_balance_guarantee(self, small_road, beta):
        pg = PartitionGraph.from_graph(small_road)
        bip = multilevel_bisection(pg, beta=beta, seed=0)
        w0, w1 = bip.side_weights(pg)
        assert max(w0, w1) <= (1 - beta) * pg.total_vweight() + 1e-9

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
        w0, w1 = bip.side_weights(pg)
        assert max(w0, w1) <= 0.8 * pg.total_vweight() + 1e-9
        # the cut must look like a single good bisection of the giant,
        # not like rebalancing damage
        assert bip.cut_weight <= 60

    def test_components_helper(self):
        from repro.partition.initial import components

        pg = PartitionGraph(
            [{1: 1.0}, {0: 1.0}, {}, {4: 1.0}, {3: 1.0}], [2, 1, 5, 1, 1]
        )
        comps = components(pg)
        assert sorted(w for w, _ in comps) == [2, 3, 5]
        assert sorted(len(m) for _, m in comps) == [1, 2, 2]

    def test_rejects_bad_beta(self, road_pg):
        with pytest.raises(PartitionError):
            multilevel_bisection(road_pg, beta=0.9)

    def test_rejects_single_vertex(self):
        with pytest.raises(PartitionError):
            multilevel_bisection(PartitionGraph([{}], [1]))

"""Tests for the directed extension (Section 8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.exceptions import HierarchyError, MaintenanceError
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network, random_connected_graph
from tests.conftest import directed_dijkstra
from tests.oracles.kernels import oracle_build


@pytest.fixture
def asym_digraph() -> DiGraph:
    g = random_connected_graph(60, extra_edges=50, seed=8)
    dg = DiGraph.from_undirected(g)
    rng = np.random.default_rng(4)
    for u, v, w in list(dg.arcs())[: dg.num_arcs // 2]:
        dg.set_weight(u, v, float(w + rng.integers(0, 25)))
    return dg


class TestDirectedStatic:
    def test_matches_directed_dijkstra(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4))
        for s in range(0, 60, 6):
            ref = directed_dijkstra(asym_digraph, s)
            for t in range(60):
                assert idx.distance(s, t) == ref[t], (s, t)

    def test_asymmetry_visible(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4))
        found = any(
            idx.distance(s, t) != idx.distance(t, s)
            for s in range(10)
            for t in range(10, 20)
        )
        assert found, "expected at least one asymmetric pair"

    def test_symmetric_digraph_equals_undirected_dhl(self):
        g = random_connected_graph(50, extra_edges=40, seed=12)
        dg = DiGraph.from_undirected(g)
        directed = DirectedDHLIndex.build(dg, DHLConfig(leaf_size=4, seed=0))
        undirected = DHLIndex.build(g.copy(), DHLConfig(leaf_size=4, seed=0))
        for s in range(0, 50, 5):
            for t in range(50):
                assert directed.distance(s, t) == undirected.distance(s, t)

    def test_batch_distances(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4))
        out = idx.distances([(0, 5), (5, 0), (3, 3)])
        assert out[2] == 0.0
        assert out[0] == idx.distance(0, 5)

    def test_stats(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4))
        stats = idx.stats()
        assert stats.label_entries == (
            idx.labels_out.num_entries + idx.labels_in.num_entries
        )
        assert stats.num_shortcuts > 0
        assert stats.shortcut_bytes == idx.hu.memory_bytes()

    def test_shortcut_bytes_count_the_second_weight_plane(self):
        """Same structure as the undirected index on a symmetric
        digraph (a grid partitions alike either way), plus one float64
        plane."""
        g = grid_network(12, 14, seed=3)
        config = DHLConfig(seed=0)
        directed = DirectedDHLIndex.build(DiGraph.from_undirected(g), config).stats()
        undirected = DHLIndex.build(g.copy(), config).stats()
        assert directed.num_shortcuts == undirected.num_shortcuts
        assert (
            directed.shortcut_bytes
            == undirected.shortcut_bytes + 8 * undirected.num_shortcuts
        )


class TestDirectedDynamic:
    """Two-plane maintenance held to Dijkstra and to a rebuild, on the C
    sweeps and again on their oracle; the last case holds the two equal."""

    @pytest.mark.usefixtures("on_kernels")
    def test_increase_decrease_match_dijkstra(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4))
        rng = np.random.default_rng(17)
        arcs = list(asym_digraph.arcs())
        for _ in range(12):
            picks = rng.choice(len(arcs), size=3, replace=False)
            changes = []
            for p in picks:
                u, v, _ = arcs[p]
                cur = asym_digraph.weight(u, v)
                if rng.random() < 0.5:
                    changes.append((u, v, float(cur + rng.integers(1, 30))))
                else:
                    changes.append(
                        (u, v, float(max(1, int(cur) - int(rng.integers(1, 30)))))
                    )
            idx.update(changes)
            arcs = list(asym_digraph.arcs())
        for s in range(0, 60, 9):
            ref = directed_dijkstra(asym_digraph, s)
            for t in range(60):
                assert idx.distance(s, t) == ref[t], (s, t)

    @pytest.mark.usefixtures("on_kernels")
    def test_one_direction_update_leaves_other_exact(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4))
        u, v, w = next(iter(asym_digraph.arcs()))
        idx.increase([(u, v, 4 * w)])
        ref_fwd = directed_dijkstra(asym_digraph, u)
        assert idx.distance(u, v) == ref_fwd[v]
        # the reverse direction must still be exact too
        ref_rev = directed_dijkstra(asym_digraph, v)
        assert idx.distance(v, u) == ref_rev[u]

    @pytest.mark.usefixtures("on_kernels")
    def test_wrong_direction_rejected(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4))
        u, v, w = next(iter(asym_digraph.arcs()))
        with pytest.raises(MaintenanceError):
            idx.increase([(u, v, w / 2)])
        with pytest.raises(MaintenanceError):
            idx.decrease([(u, v, w * 2)])

    @pytest.mark.usefixtures("on_kernels")
    def test_maintained_equals_rebuilt(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4, seed=0))
        arcs = list(asym_digraph.arcs())[:20]
        idx.increase([(u, v, 2 * w) for u, v, w in arcs])
        idx.decrease([(u, v, w) for u, v, w in arcs])
        rebuilt = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4, seed=0))
        assert idx.labels_out.equals(rebuilt.labels_out)
        assert idx.labels_in.equals(rebuilt.labels_in)

    def test_two_plane_c_sweeps_maintain_the_oracle_state(self, asym_digraph):
        """The two-plane C sweeps leave the maintained state the oracle
        sweeps leave."""
        config = DHLConfig(leaf_size=4, seed=0)
        indexes = [
            oracle_build(DirectedDHLIndex, asym_digraph.copy(), config),
            DirectedDHLIndex.build(asym_digraph.copy(), config),
        ]
        arcs = list(asym_digraph.arcs())[::7]
        for index in indexes:
            index.update([(u, v, 3 * w) for u, v, w in arcs])
            index.update([(u, v, w) for u, v, w in arcs[::2]])
        np.testing.assert_array_equal(indexes[0].out_weights, indexes[1].out_weights)
        np.testing.assert_array_equal(indexes[0].in_weights, indexes[1].in_weights)
        assert indexes[0].labels_out.equals(indexes[1].labels_out)
        assert indexes[0].labels_in.equals(indexes[1].labels_in)


class TestSharedCore:
    """What the directed index gets by being the one index core over a
    two-plane store: the invariant suite, real hubs, the set queries."""

    def test_verify_runs_the_invariant_suite(self, asym_digraph, monkeypatch):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4))
        idx.verify()
        ran = []
        monkeypatch.setattr(
            type(idx.hu),
            "verify_minimum_weight_property",
            lambda self: ran.append(self.planes),
        )
        idx.verify()
        assert ran == [2]

    def test_verify_holds_after_burst_batch_and_compaction(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4, seed=0))
        arcs = list(asym_digraph.arcs())
        idx.update([(u, v, 3 * w) for u, v, w in arcs[::5]])
        idx.update([(u, v, w) for u, v, w in arcs[::10]])
        dead = [(u, v) for u, v, _ in arcs[1:40:4]]
        both = [(v, u) for u, v in dead if asym_digraph.has_arc(v, u)]
        inserts = [
            (a, b, 4.0)
            for a, b in ((0, 31), (31, 0), (7, 52))
            if not asym_digraph.has_arc(a, b)
        ]
        idx.apply_batch(insertions=inserts, deletions=dead + both)
        assert idx.compact().dead_slots_reclaimed > 0
        idx.verify()
        for s in range(0, 60, 7):
            ref = directed_dijkstra(asym_digraph, s)
            assert idx.distances_from(s, range(60)).tolist() == ref

    def test_verify_reads_the_second_plane(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4, seed=0))
        idx.verify()
        finite = np.flatnonzero(np.isfinite(idx.in_weights))
        idx.in_weights[finite[0]] += 1.0
        with pytest.raises(HierarchyError):
            idx.verify()

    def test_hubs_certify_the_distance(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4, seed=0))
        tau = idx.hq.tau
        pairs = [(s, t) for s in range(0, 60, 4) for t in range(0, 60, 3)]
        values, hubs = idx.engine.distances_with_hubs(pairs)
        assert (hubs >= 0).sum() >= len(pairs) - 20  # only s == t has none
        for (s, t), value, hub in zip(pairs, values.tolist(), hubs.tolist()):
            assert idx.distance_with_hub(s, t) == (value, hub)
            if hub >= 0:
                certificate = (
                    idx.labels_out.view(s)[tau[hub]] + idx.labels_in.view(t)[tau[hub]]
                )
                assert certificate == value == idx.distance(s, t)

    def test_set_queries_match_dijkstra_and_the_pair_kernel(self, asym_digraph):
        idx = DirectedDHLIndex.build(asym_digraph, DHLConfig(leaf_size=4, seed=0))
        sources, targets = np.arange(0, 60, 7), np.arange(3, 60, 4)
        ref = np.array(
            [[directed_dijkstra(asym_digraph, s)[t] for t in targets] for s in sources]
        )
        matrix = idx.engine.distance_matrix(sources, targets)
        np.testing.assert_array_equal(matrix, ref)
        expanded = [(s, t) for s in sources for t in targets]
        np.testing.assert_array_equal(matrix.ravel(), idx.distances(expanded))
        row = idx.distances_from(int(sources[1]), targets)
        np.testing.assert_array_equal(row, ref[1])
        order = np.argsort(ref[1], kind="stable")[:3]
        assert idx.k_nearest(int(sources[1]), targets.tolist(), 3) == [
            (int(targets[i]), ref[1][i]) for i in order
        ]

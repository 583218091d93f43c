"""Differential tests: the C sweeps must agree with their oracle.

The C heap sweeps of :mod:`repro.labelling.native.engine` must be
observationally identical to the paper-literal one-pop-per-entry
sweeps of ``tests/oracles/maintenance.py`` (run under the same driver
by :func:`tests.oracles.kernels.python_kernels`): same labels, same
shortcut/label change counts, same affected-shortcut dicts (including
the recorded old weights) and same affected-label vertex sets, under
arbitrary interleavings of increase and decrease batches. Only
``entries_processed`` (search effort) may differ, by heap tie order.
"""

from __future__ import annotations

import functools
import pickle
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.hierarchy.contraction import contract_in_order
from repro.labelling import maintenance
from repro.labelling.driver import maintain_shortcuts
from repro.labelling.maintenance import MaintenanceStats
from repro.labelling.native import engine as native_engine
from tests.oracles.kernels import oracle_build, python_kernels
from tests.strategies import assert_stats_match, connected_graphs, update_sequences

#: The C sweeps, and the oracle sweeps in their place.
KERNELS = (nullcontext, python_kernels)


def test_baseline_shortcut_maintenance_equals_the_oracle_sweep():
    """DCH / IncH2H maintain their stores through ``maintain_shortcuts``,
    on the C sweep: a mixed burst (raised, lowered, and a road raised
    then restored) reports the oracle sweep's affected-shortcut dict,
    old weights included, and leaves its weights."""
    graph = delaunay_network(150, seed=4)
    order = list(np.random.default_rng(2).permutation(graph.num_vertices))
    store = contract_in_order(graph.copy(), order)
    oracle = pickle.loads(pickle.dumps(store))
    roads = list(graph.edges())
    burst = [(u, v, 3 * w) for u, v, w in roads[:25]]
    burst += [(u, v, max(1.0, w // 2)) for u, v, w in roads[25:50]]
    burst += [(u, v, 2 * w) for u, v, w in roads[50:55]]
    burst += [(u, v, w) for u, v, w in roads[50:55]]
    got = maintain_shortcuts("update", store, burst)
    with python_kernels():
        want = maintain_shortcuts("update", oracle, burst)
    assert got and got == want
    assert store.up_weights.tobytes() == oracle.up_weights.tobytes()


class TestUndirectedDifferential:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=connected_graphs(min_n=4, max_n=20).flatmap(
            lambda g: update_sequences(g, max_steps=5).map(lambda seq: (g, seq))
        )
    )
    def test_engines_identical_under_random_interleavings(self, data):
        graph, sequence = data
        config = DHLConfig(leaf_size=3, seed=0)
        idx_r = oracle_build(DHLIndex, graph.copy(), config)
        idx_c = DHLIndex.build(graph.copy(), config)
        for batch in sequence:
            assert_stats_match(idx_c.update(batch), idx_r.update(batch))
            assert idx_c.labels.equals(idx_r.labels)
            np.testing.assert_array_equal(
                idx_c.hu.up_weights, idx_r.hu.up_weights
            )
        ref = dijkstra(idx_r.graph, 0)
        for t in range(graph.num_vertices):
            assert idx_r.distance(0, t) == ref[t]
            assert idx_c.distance(0, t) == ref[t]

    @pytest.mark.usefixtures("on_kernels")
    def test_maintained_index_matches_rebuild(self, small_road):
        idx = DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=4, seed=0))
        edges = list(idx.graph.edges())
        idx.increase([(u, v, 3 * w) for u, v, w in edges[:60]])
        idx.decrease([(u, v, max(1.0, w // 2)) for u, v, w in edges[30:90]])
        rebuilt = DHLIndex.build(idx.graph.copy(), idx.config)
        assert idx.labels.equals(rebuilt.labels)
        idx.hu.verify_minimum_weight_property()

    def test_decrease_stats_count_distinct_entries(self, small_road):
        """C and oracle sweeps report |L-delta| as *distinct* changed entries."""
        config = DHLConfig(leaf_size=4, seed=0)
        for build in (DHLIndex.build, functools.partial(oracle_build, DHLIndex)):
            idx = build(small_road.copy(), config)
            before = idx.labels.copy()
            batch = [
                (u, v, max(1.0, w // 3))
                for u, v, w in list(idx.graph.edges())[:25]
            ]
            stats = idx.decrease(batch)
            assert stats.labels_changed == before.diff_count(idx.labels)


class TestDirectedDifferential:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=connected_graphs(min_n=4, max_n=14).flatmap(
            lambda g: update_sequences(g, max_steps=4).map(lambda seq: (g, seq))
        )
    )
    def test_engines_identical_on_digraphs(self, data):
        graph, sequence = data
        digraph_r = DiGraph.from_undirected(graph)
        # Make half the arcs asymmetric so both label stores do real
        # work.
        for i, (u, v, w) in enumerate(list(digraph_r.arcs())):
            if i % 2 == 0:
                digraph_r.set_weight(u, v, float(w + 3))
        digraph_c = digraph_r.copy()
        config = DHLConfig(leaf_size=3, seed=0)
        idx_r = oracle_build(DirectedDHLIndex, digraph_r, config)
        idx_c = DirectedDHLIndex.build(digraph_c, config)
        for batch in sequence:
            # Directed updates address one arc; update() folds on the arc.
            arcs = [
                (u, v, w)
                for (u, v, w) in batch
                if digraph_r.out_neighbors(u).get(v) is not None
            ]
            if not arcs:
                continue
            stats_r = idx_r.update(arcs)
            stats_c = idx_c.update(arcs)
            assert_stats_match(stats_c, stats_r)
            assert idx_c.labels_out.equals(idx_r.labels_out)
            assert idx_c.labels_in.equals(idx_r.labels_in)
            np.testing.assert_array_equal(idx_c.out_weights, idx_r.out_weights)
            np.testing.assert_array_equal(idx_c.in_weights, idx_r.in_weights)


@functools.cache
def built_index(graph: str, directed: bool):
    """A small grid or road index, built once per family; callers work
    on a pickled copy."""
    g = grid_network(7, 7, seed=3) if graph == "grid" else delaunay_network(90, seed=5)
    config = DHLConfig(leaf_size=3, seed=0)
    if not directed:
        return DHLIndex.build(g, config)
    digraph = DiGraph.from_undirected(g)
    for i, (u, v, w) in enumerate(list(digraph.arcs())):
        if i % 2 == 0:
            digraph.set_weight(u, v, float(w + 3))
    return DirectedDHLIndex.build(digraph, config)


class TestDecreaseHandlesEachLoweredEntryOnce:
    """Algorithm 4 queues an entry when it is first lowered and handles
    it once it is final, so the entries a decrease handles are exactly
    the entries it lowered. A vertex popped twice would count its
    entries twice; a queued column skipped would leave an entry lowered
    but never handled, and its descendants stale."""

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("graph", ["grid", "road"])
    @pytest.mark.parametrize("kernels", KERNELS, ids=["c", "oracle"])
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        picks=st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from([0.0, 0.25, 0.5])),
            min_size=1,
            max_size=12,
        )
    )
    def test_entries_processed_equals_labels_changed(
        self, kernels, graph, directed, picks
    ):
        index = pickle.loads(pickle.dumps(built_index(graph, directed)))
        roads = list(index.graph.edges())
        batch = {}
        for pick, factor in picks:
            u, v, w = roads[pick % len(roads)]
            batch[u, v] = (u, v, float(int(w * factor)))
        with kernels():
            stats = index.decrease(batch.values())
        assert stats.entries_processed == stats.labels_changed
        rebuilt = type(index).build(index.graph.copy(), index.config)
        for got, want in zip(index.labellings, rebuilt.labellings):
            assert got.equals(want)


def owner_vertices(labels, positions) -> np.ndarray:
    """The vertex of each flat label position."""
    return np.searchsorted(labels.offsets, positions, side="right") - 1


class TestTouchedLists:
    """The sweeps hand back what they marked: after every sweep the
    touched lists are the marks, listed once each, and the stats the
    driver builds from them are the ones a scan of the store-sized marks
    gives (``flatnonzero`` + an ``offsets`` search + ``np.unique``)."""

    @staticmethod
    def check_cell_lists(marks) -> None:
        changed, _, touched, count = marks
        listed = touched[: count[0]]
        assert len(set(listed.tolist())) == len(listed)
        assert set(listed.tolist()) == set(np.flatnonzero(changed).tolist())

    @staticmethod
    def check_entry_lists(labels, marks) -> None:
        changed, touched, vertex_marks, touched_vertices, count = marks
        positions = touched[: count[0]]
        vertices = touched_vertices[: count[1]]
        assert len(set(positions.tolist())) == len(positions)
        assert len(set(vertices.tolist())) == len(vertices)
        assert set(positions.tolist()) == set(np.flatnonzero(changed).tolist())
        owners = owner_vertices(labels, positions)
        assert set(vertices.tolist()) == set(owners.tolist())
        assert set(vertices.tolist()) == set(np.flatnonzero(vertex_marks).tolist())

    def spy(self, mp: pytest.MonkeyPatch, label_calls: list) -> None:
        """The C sweeps, each one's lists checked the moment it returns."""

        def shortcut(sweep):
            def run(*args):
                result = sweep(*args)
                self.check_cell_lists(args[-1])
                return result

            return run

        def label(sweep):
            def run(store, labels, *args):
                result = sweep(store, labels, *args)
                self.check_entry_lists(labels, args[-1])
                label_calls.append((store, labels, args[-1], result))
                return result

            return run

        mp.setattr(
            native_engine, "shortcut_sweep", shortcut(native_engine.shortcut_sweep)
        )
        mp.setattr(native_engine, "label_sweep", label(native_engine.label_sweep))

    @staticmethod
    def scanned(store, cell_marks, label_calls) -> MaintenanceStats:
        """The stats of one pass, rebuilt from full scans of its marks."""
        stats = MaintenanceStats()
        m = store.csr.num_slots
        for changed, first_old, _, _ in cell_marks:
            cells = np.flatnonzero(changed)
            stats.shortcuts_changed += len(cells)
            for cell in cells.tolist():  # ascending: plane 0 first wins
                slot = cell % m
                key = (int(store.csr.owners[slot]), int(store.csr.indices[slot]))
                stats.affected_shortcuts.setdefault(key, float(first_old[cell]))
        for _, labels, marks, result in label_calls:
            positions = np.flatnonzero(marks[0])
            verts = owner_vertices(labels, positions)
            stats.affected_labels |= set(np.unique(verts).tolist())
            stats.entries_processed += result
            stats.labels_changed += len(positions)
        return stats

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("kernels", KERNELS, ids=["c", "oracle"])
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=connected_graphs(min_n=4, max_n=16).flatmap(
            lambda g: update_sequences(g, max_steps=4).map(lambda seq: (g, seq))
        )
    )
    def test_lists_are_the_marks_and_stats_match_a_scan(
        self, kernels, directed, data
    ):
        with kernels():
            self.check_lists(directed, data)

    def check_lists(self, directed, data):
        graph, sequence = data
        config = DHLConfig(leaf_size=3, seed=0)
        if directed:
            digraph = DiGraph.from_undirected(graph)
            for i, (u, v, w) in enumerate(list(digraph.arcs())):
                if i % 2 == 0:
                    digraph.set_weight(u, v, float(w + 3))
            index = DirectedDHLIndex.build(digraph, config)
        else:
            index = DHLIndex.build(graph.copy(), config)
        cell_marks: list = []
        label_calls: list = []
        fresh = maintenance.cell_marks

        def recording(cells):
            cell_marks.append(fresh(cells))
            return cell_marks[-1]

        with pytest.MonkeyPatch.context() as mp:
            self.spy(mp, label_calls)
            with mock.patch.object(maintenance, "cell_marks", recording):
                for batch in sequence:
                    cell_marks.clear()
                    label_calls.clear()
                    stats = index.update(batch)
                    want = self.scanned(index.hu, cell_marks, label_calls)
                    assert stats == want
        index.verify()


class TestShardedDifferential:
    def test_k2_sharded_c_and_oracle_agree(self, small_road):
        config = DHLConfig(seed=0)
        sharded_r = oracle_build(
            ShardedDHLIndex, small_road.copy(), k=2, config=config, build_workers=1
        )
        sharded_c = ShardedDHLIndex.build(
            small_road.copy(), k=2, config=config, build_workers=1
        )
        edges = list(small_road.edges())
        batches = [
            [(u, v, 2 * w) for u, v, w in edges[:40]],
            [(u, v, w) for u, v, w in edges[:40]],
            [(u, v, max(1.0, w // 2)) for u, v, w in edges[40:80]],
        ]
        rng = np.random.default_rng(3)
        pairs = [
            (int(s), int(t))
            for s, t in rng.integers(
                0, small_road.num_vertices, size=(200, 2)
            )
        ]
        for batch in batches:
            sharded_r.update(batch)
            sharded_c.update(batch)
            for shard_r, shard_c in zip(sharded_r.shards, sharded_c.shards):
                assert shard_c.labels.equals(shard_r.labels)
            np.testing.assert_array_equal(
                sharded_c.distances(pairs), sharded_r.distances(pairs)
            )
        ref = dijkstra(sharded_r.graph, 1)
        for t in range(0, small_road.num_vertices, 17):
            assert sharded_r.distance(1, t) == ref[t]
            assert sharded_c.distance(1, t) == ref[t]


class TestCSRStore:
    def test_rows_rank_sorted_and_slot_lookup(self, medium_random):
        sc = contract_in_order(
            medium_random, list(range(medium_random.num_vertices))
        )
        csr = sc.csr
        for v in range(csr.n):
            row = csr.row(v)
            row_ranks = sc.rank[row]
            assert (np.diff(row_ranks) > 0).all()
            start = int(csr.indptr[v])
            for offset, u in enumerate(row.tolist()):
                assert csr.slot_of(v, u) == start + offset
        assert (np.diff(csr.slot_keys) > 0).all()

    def test_down_slots_point_to_up_slots(self, medium_random):
        sc = contract_in_order(
            medium_random, list(range(medium_random.num_vertices))
        )
        csr = sc.csr
        for v in range(csr.n):
            start, end = int(csr.down_indptr[v]), int(csr.down_indptr[v + 1])
            for k in range(start, end):
                x = int(csr.down_indices[k])
                slot = int(csr.down_slots[k])
                assert int(csr.owners[slot]) == x
                assert int(csr.indices[slot]) == v

    def test_pickle_roundtrip_keeps_store_live(self, small_road):
        """Maintenance after unpickling must write into the live buffers."""
        idx = DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=4, seed=0))
        clone = pickle.loads(pickle.dumps(idx.hu))
        u, v, w = next(iter(clone.graph.edges()))
        lo, hi = clone.shortcut_key(u, v)
        clone.set_weight(u, v, 123.0)
        assert clone.up_weights[clone.csr.slot_of(lo, hi)] == 123.0
        assert clone.weight(lo, hi) == 123.0


class TestMaintenanceStatsMerge:
    def test_merge_keeps_earliest_old_weight(self):
        """Regression: merging two passes must keep the first-seen old
        weight per shortcut, not let the later batch overwrite it."""
        first = MaintenanceStats(
            shortcuts_changed=1, affected_shortcuts={(1, 2): 10.0}
        )
        second = MaintenanceStats(
            shortcuts_changed=1,
            affected_shortcuts={(1, 2): 20.0, (3, 4): 5.0},
        )
        merged = first.merge(second)
        assert merged.affected_shortcuts == {(1, 2): 10.0, (3, 4): 5.0}
        assert merged.shortcuts_changed == 2
        # And the symmetric direction keeps its own first-seen value.
        flipped = second.merge(first)
        assert flipped.affected_shortcuts == {(1, 2): 20.0, (3, 4): 5.0}

    def test_increase_then_restore_records_pre_batch_weights(self, small_road):
        """End-to-end: a x2-then-restore mixed batch reports the weight
        each shortcut held before the *first* change."""
        idx = DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=4, seed=0))
        u, v, w = next(iter(idx.graph.edges()))
        lo, hi = idx.hu.shortcut_key(u, v)
        original = idx.hu.weight(lo, hi)
        stats = idx.increase([(u, v, 2 * w)]).merge(idx.decrease([(u, v, w)]))
        assert stats.affected_shortcuts[(lo, hi)] == original


class TestOverlayIncrementalRefresh:
    def test_untouched_boundary_rows_are_skipped(self, small_road):
        """The clique refresh recomputes only pairs with a touched
        endpoint: one affected boundary vertex of a region with B
        boundary vertices costs one kernel row of B cells, not B rows."""
        sharded = ShardedDHLIndex.build(
            small_road.copy(), k=4, config=DHLConfig(seed=0), build_workers=1
        )
        rid = max(
            range(sharded.k), key=lambda r: len(sharded.boundary_local[r])
        )
        boundary = sharded.boundary_local[rid]
        if len(boundary) < 3:
            pytest.skip("partition produced too small a boundary")
        shard = sharded.shards[rid]
        recorded: list[tuple[int, int]] = []

        class CountingEngine:
            def distance_matrix(self, sources, targets):
                recorded.append((len(sources), len(targets)))
                return shard.engine.distance_matrix(sources, targets)

        class ShardProxy:
            engine = CountingEngine()

        from repro.sharding.overlay import clique_refresh_changes

        affected = {int(boundary[0])}
        clique_refresh_changes(
            ShardProxy(),
            boundary,
            sharded.boundary_overlay[rid],
            sharded.cliques[rid].copy(),
            affected,
        )
        assert recorded == [(1, len(boundary))]

    def test_no_affected_labels_no_recompute(self, small_road):
        sharded = ShardedDHLIndex.build(
            small_road.copy(), k=2, config=DHLConfig(seed=0), build_workers=1
        )
        from repro.sharding.overlay import clique_refresh_changes

        changes = clique_refresh_changes(
            sharded.shards[0],
            sharded.boundary_local[0],
            sharded.boundary_overlay[0],
            sharded.cliques[0].copy(),
            set(),
        )
        assert changes == []

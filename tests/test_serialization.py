"""Tests for index persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.exceptions import SerializationError


class TestSaveLoad:
    def test_round_trip_labels_identical(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx")
        assert loaded.labels.equals(small_index.labels)
        assert np.array_equal(loaded.hq.tau, small_index.hq.tau)

    def test_round_trip_queries_identical(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx")
        rng = np.random.default_rng(0)
        for _ in range(200):
            s, t = int(rng.integers(0, 300)), int(rng.integers(0, 300))
            assert loaded.distance(s, t) == small_index.distance(s, t)

    def test_round_trip_config(self, small_road, tmp_path):
        config = DHLConfig(
            leaf_size=5, seed=9, insert_closure_limit=17, compaction_threshold=0.6
        )
        idx = DHLIndex.build(small_road.copy(), config)
        idx.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx")
        assert loaded.config == idx.config == config

    def test_snapshot_writes_no_engine(self, small_road, tmp_path):
        """There is one engine; a snapshot names none (an old one that
        does still loads: :meth:`TestPreWorkersRemovalSnapshots._age`)."""
        idx = DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=5, seed=9))
        idx.save(tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert "engine" not in manifest["config"]
        assert DHLIndex.load(tmp_path / "idx").config == idx.config

    def test_loaded_index_supports_updates(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx")
        u, v, w = next(iter(loaded.graph.edges()))
        loaded.increase([(u, v, 2 * w)])
        small_index.increase([(u, v, 2 * w)])
        assert loaded.labels.equals(small_index.labels)
        loaded.hu.verify_minimum_weight_property()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            DHLIndex.load(tmp_path / "nope")

    def test_corrupt_manifest_raises(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        (tmp_path / "idx" / "manifest.json").write_text("{not json")
        with pytest.raises(SerializationError):
            DHLIndex.load(tmp_path / "idx")

    def test_bad_version_raises(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SerializationError):
            DHLIndex.load(tmp_path / "idx")

    def test_save_creates_expected_files(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        assert (tmp_path / "idx" / "manifest.json").exists()
        assert (tmp_path / "idx" / "arrays.npz").exists()


class TestStoreLoadsStraightFromTheArrays:
    """The loader adopts the snapshot's flat CSR as the store; arrays
    that are not a store are outside input and must be refused."""

    def _rewrite(self, path, **replaced):
        arrays = dict(np.load(path / "arrays.npz"))
        arrays.update(replaced)
        np.savez_compressed(path / "arrays.npz", **arrays)

    def test_loaded_store_equals_the_saved_one(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx")
        for name in ("indptr", "indices", "slot_keys", "down_indices", "down_slots"):
            assert np.array_equal(
                getattr(loaded.hu.csr, name), getattr(small_index.hu.csr, name)
            ), name
        assert np.array_equal(loaded.hu.up_weights, small_index.hu.up_weights)
        assert loaded.hu.up_weights.flags.writeable
        loaded.verify()

    def test_unsorted_rows_are_rejected(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        csr = small_index.hu.csr
        start = int(csr.indptr[np.argmax(np.diff(csr.indptr) > 1)])
        swapped = csr.indices.copy()
        swapped[[start, start + 1]] = swapped[[start + 1, start]]
        self._rewrite(tmp_path / "idx", up_flat=swapped)
        with pytest.raises(SerializationError, match="rank-sorted"):
            DHLIndex.load(tmp_path / "idx", verify=False)

    def test_misfitting_arrays_are_rejected(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        self._rewrite(tmp_path / "idx", wup_flat=small_index.hu.up_weights[:-1])
        with pytest.raises(SerializationError, match="inconsistent"):
            DHLIndex.load(tmp_path / "idx", verify=False)


class TestDirectedLogicalDeletionRoundTrip:
    def test_saved_inf_arcs_reload(self, tmp_path):
        """Logically deleted arcs (weight inf) must survive save/load.

        The loader rebuilds the digraph with ``DiGraph.from_arcs``,
        which stores an infinite weight as a deleted slot.
        """
        import math

        from repro.core.directed import DirectedDHLIndex
        from repro.graph.digraph import DiGraph
        from repro.graph.generators import random_connected_graph

        g = random_connected_graph(30, extra_edges=25, seed=3)
        dg = DiGraph.from_undirected(g)
        index = DirectedDHLIndex.build(dg, DHLConfig(leaf_size=4, seed=0))
        u, v, _ = next(iter(dg.arcs()))
        index.increase([(u, v, math.inf)])  # logical deletion
        index.save(tmp_path / "idx")
        loaded = DirectedDHLIndex.load(tmp_path / "idx")
        assert math.isinf(loaded.digraph.weight(u, v))
        pairs = [(s, t) for s in range(0, 30, 5) for t in range(0, 30, 7)]
        for s, t in pairs:
            assert loaded.distance(s, t) == index.distance(s, t)

    def test_saved_coords_reload(self, tmp_path):
        from repro.core.directed import DirectedDHLIndex
        from repro.graph.digraph import DiGraph
        from repro.graph.generators import delaunay_network

        dg = DiGraph.from_undirected(delaunay_network(40, seed=2))
        index = DirectedDHLIndex.build(dg, DHLConfig(leaf_size=4, seed=0))
        index.save(tmp_path / "idx")
        loaded = DirectedDHLIndex.load(tmp_path / "idx")
        assert loaded.digraph.coords is not None
        np.testing.assert_array_equal(loaded.digraph.coords, dg.coords)
        assert list(loaded.digraph.arcs()) == list(dg.arcs())


class TestCrashSafeSnapshots:
    """Atomic save + per-directory CRC manifests + verified loads."""

    def test_save_seals_snapshot_with_checksum_manifest(
        self, small_index, tmp_path
    ):
        from repro.core.serialization import verify_snapshot

        small_index.save(tmp_path / "idx")
        manifest = json.loads(
            (tmp_path / "idx" / "checksums.json").read_text()
        )
        assert "label_values.npy" in manifest["crc32"]
        assert "manifest.json" in manifest["crc32"]
        assert verify_snapshot(tmp_path / "idx") >= 4

    def test_corrupt_label_bytes_detected_on_load(self, small_index, tmp_path):
        from repro.exceptions import SnapshotCorruptionError

        small_index.save(tmp_path / "idx")
        victim = tmp_path / "idx" / "label_values.npy"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF  # bit rot in the last label value
        victim.write_bytes(blob)
        with pytest.raises(SnapshotCorruptionError, match="corrupt"):
            DHLIndex.load(tmp_path / "idx")
        # Explicit opt-out still loads (the caller owns the risk).
        DHLIndex.load(tmp_path / "idx", verify=False)

    def test_torn_snapshot_missing_file_detected(self, small_index, tmp_path):
        from repro.exceptions import SnapshotCorruptionError

        small_index.save(tmp_path / "idx")
        (tmp_path / "idx" / "label_offsets.npy").unlink()
        with pytest.raises(SnapshotCorruptionError, match="torn"):
            DHLIndex.load(tmp_path / "idx")

    def test_missing_checksum_manifest_detected(self, small_index, tmp_path):
        from repro.exceptions import SnapshotCorruptionError

        small_index.save(tmp_path / "idx")
        (tmp_path / "idx" / "checksums.json").unlink()
        with pytest.raises(SnapshotCorruptionError, match="checksums.json"):
            DHLIndex.load(tmp_path / "idx")

    def test_save_leaves_no_temp_directories(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        small_index.save(tmp_path / "idx")  # overwrite path, same guarantee
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]
        DHLIndex.load(tmp_path / "idx")

    def test_failed_save_preserves_previous_snapshot(
        self, small_index, tmp_path
    ):
        from repro.core.serialization import _atomic_snapshot

        small_index.save(tmp_path / "idx")
        before = sorted(p.name for p in (tmp_path / "idx").iterdir())

        def exploding_writer(tmp):
            (tmp / "half-written.npy").write_bytes(b"partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            _atomic_snapshot(tmp_path / "idx", exploding_writer)
        assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == before
        DHLIndex.load(tmp_path / "idx")  # still verifies and loads

    def test_sharded_snapshot_verifies_recursively(self, tmp_path):
        from repro.core.sharded import ShardedDHLIndex
        from repro.core.serialization import verify_snapshot
        from repro.exceptions import SnapshotCorruptionError
        from repro.graph.generators import delaunay_network

        graph = delaunay_network(60, seed=11)
        index = ShardedDHLIndex.build(
            graph, k=2, config=DHLConfig(seed=0), build_workers=1
        )
        index.save(tmp_path / "sharded")
        # Every component directory carries its own manifest.
        assert (tmp_path / "sharded" / "checksums.json").exists()
        assert (tmp_path / "sharded" / "shard_00" / "checksums.json").exists()
        verify_snapshot(tmp_path / "sharded")
        victim = tmp_path / "sharded" / "shard_01" / "label_values.npy"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        victim.write_bytes(blob)
        with pytest.raises(SnapshotCorruptionError, match="shard_01"):
            ShardedDHLIndex.load(tmp_path / "sharded")


class TestPreWorkersRemovalSnapshots:
    """Snapshots written while ``DHLConfig`` still had ``workers`` and
    ``coarsest_size``, and while the writer recorded ``engine`` (always
    the retired numpy engine's name, which ``DHLConfig`` now rejects)
    but not the two structural limits, must load — onto this machine's
    engine and the default limits."""

    @staticmethod
    def _age(path):
        """Rewrite every manifest under *path* the way the old writers did,
        checksums resealed to match."""
        from repro.core.serialization import _write_checksums

        for manifest_path in path.rglob("manifest.json"):
            manifest = json.loads(manifest_path.read_text())
            # Neither is written any more.
            assert "workers" not in manifest["config"]
            assert "coarsest_size" not in manifest["config"]
            manifest["config"]["workers"] = 2
            manifest["config"]["coarsest_size"] = 120
            manifest["config"]["engine"] = "array"  # on-disk legacy value
            del manifest["config"]["insert_closure_limit"]
            del manifest["config"]["compaction_threshold"]
            manifest_path.write_text(json.dumps(manifest))
            (manifest_path.parent / "checksums.json").unlink()
        _write_checksums(path)

    def test_monolithic(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        self._age(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx", verify=True)
        assert loaded.config == small_index.config
        assert loaded.distance(3, 250) == small_index.distance(3, 250)

    def test_directed(self, tmp_path):
        from repro.core.directed import DirectedDHLIndex
        from repro.graph.digraph import DiGraph
        from repro.graph.generators import random_connected_graph

        digraph = DiGraph.from_undirected(
            random_connected_graph(40, extra_edges=30, seed=2)
        )
        index = DirectedDHLIndex.build(digraph, DHLConfig(leaf_size=4, seed=0))
        index.save(tmp_path / "didx")
        self._age(tmp_path / "didx")
        loaded = DirectedDHLIndex.load(tmp_path / "didx", verify=True)
        assert loaded.distance(1, 30) == index.distance(1, 30)

    def test_sharded(self, tmp_path):
        from repro.core.sharded import ShardedDHLIndex
        from repro.graph.generators import delaunay_network

        index = ShardedDHLIndex.build(
            delaunay_network(60, seed=11),
            k=2,
            config=DHLConfig(seed=0),
            build_workers=1,
        )
        index.save(tmp_path / "sharded")
        self._age(tmp_path / "sharded")
        loaded = ShardedDHLIndex.load(tmp_path / "sharded", verify=True)
        pairs = [(0, 59), (5, 40), (12, 13)]
        np.testing.assert_array_equal(
            loaded.distances(pairs), index.distances(pairs)
        )

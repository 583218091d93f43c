"""Tests for index persistence."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.serialization import _write_checksums
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import SerializationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.graph.graph import Graph
from tests.conftest import directed_dijkstra
from tests.oracles.maintenance import find_edge_slot

ROAD_KEYS = ("arc_src", "arc_dst", "arc_weight")


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
        index = ShardedDHLIndex.build(graph, k=2, config=DHLConfig(seed=0))
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
    """Snapshots written while ``DHLConfig`` still had ``workers``,
    ``coarsest_size`` and ``validate``, and while the writer recorded ``engine`` (always
    the retired numpy engine's name, which ``DHLConfig`` now rejects)
    but not the two structural limits, must load — onto this machine's
    engine and the default limits."""

    @staticmethod
    def _age(path):
        """Rewrite every manifest under *path* the way the old writers did,
        checksums resealed to match."""
        for manifest_path in path.rglob("manifest.json"):
            manifest = json.loads(manifest_path.read_text())
            # None of these is written any more.
            assert "workers" not in manifest["config"]
            assert "coarsest_size" not in manifest["config"]
            assert "validate" not in manifest["config"]
            manifest["config"]["validate"] = True
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
        )
        index.save(tmp_path / "sharded")
        self._age(tmp_path / "sharded")
        loaded = ShardedDHLIndex.load(tmp_path / "sharded", verify=True)
        pairs = [(0, 59), (5, 40), (12, 13)]
        np.testing.assert_array_equal(
            loaded.distances(pairs), index.distances(pairs)
        )


def awkward_graph() -> Graph:
    """A 5 x 5 grid whose weights and coordinates have float reprs that
    JSON must carry exactly: thirds, tenths, tiny and huge magnitudes."""
    edges = []
    for v in range(25):
        r, c = divmod(v, 5)
        if c < 4:
            edges.append((v, v + 1, 1 / 3 + v))
        if r < 4:
            edges.append((v, v + 5, 0.1 * (v + 1)))
    coords = [[r / 3 - 1.5, c * 1e-7 + 2.5e10] for r in range(5) for c in range(5)]
    return Graph.from_edges(25, edges, np.array(coords))


@pytest.mark.parametrize("family", ["monolithic", "sharded"])
def test_awkward_floats_round_trip_through_the_road_arrays(family, tmp_path):
    """Weights and coordinates travel as float64 arrays: thirds, tenths
    and huge magnitudes come back bit for bit, roads in ``edges()``
    order."""
    graph = awkward_graph()
    config = DHLConfig(seed=0)
    if family == "sharded":
        index = ShardedDHLIndex.build(graph.copy(), k=2, config=config)
    else:
        index = DHLIndex.build(graph.copy(), config)
    index.save(tmp_path / "snap")
    with np.load(tmp_path / "snap" / "arrays.npz") as data:
        roads = list(zip(*(data[key].tolist() for key in ROAD_KEYS)))
        assert data["coords"].tobytes() == graph.coords.tobytes()
    assert roads == list(graph.edges())

    loaded = type(index).load(tmp_path / "snap")
    assert list(loaded.graph.edges()) == list(graph.edges())
    assert loaded.graph.coords.tobytes() == graph.coords.tobytes()
    pairs = [(s, t) for s in range(25) for t in range(0, 25, 3)]
    np.testing.assert_array_equal(loaded.distances(pairs), index.distances(pairs))


def snapshot_files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("family", ["undirected", "directed", "sharded"])
def test_save_load_save_is_byte_identical(family, tmp_path):
    """A loaded index writes back the snapshot it was loaded from, byte
    for byte: H_Q's node tables and branch bits are derived from its
    five arrays, and derive to what was read."""
    graph = delaunay_network(120, seed=3)
    config = DHLConfig(leaf_size=4, seed=0)
    if family == "sharded":
        index = ShardedDHLIndex.build(graph, k=2, config=config)
    elif family == "directed":
        index = DirectedDHLIndex.build(DiGraph.from_undirected(graph), config)
    else:
        index = DHLIndex.build(graph, config)
    index.save(tmp_path / "first")
    type(index).load(tmp_path / "first").save(tmp_path / "second")
    first = snapshot_files(tmp_path / "first")
    assert "arrays.npz" in first or "shard_00/arrays.npz" in first
    assert snapshot_files(tmp_path / "second") == first


# ---------------------------------------------------------------------------
# the layout: arrays and scalars
# ---------------------------------------------------------------------------

MONOLITHIC = {"format_version", "kind", "n", "config"}
CONFIG_KEYS = {
    "beta",
    "leaf_size",
    "seed",
    "insert_closure_limit",
    "compaction_threshold",
}
STORE = {"up_flat", "up_offsets"}
HQ = {"tau", "node_of", "node_depth", "node_parent", "node_vend", "node_branch"}
ONE_PLANE = {*STORE, "wup_flat", *HQ}

#: Per directory of each family's snapshot: its ``arrays.npz`` keys
#: beside the roads, and its manifest keys. The 60-vertex Delaunay
#: graph has coordinates; the overlay's graph has none.
LAYOUTS = {
    "undirected": {".": ({"coords", *ONE_PLANE}, MONOLITHIC)},
    "directed": {
        ".": ({"coords", *STORE, "wout_flat", "win_flat", *HQ}, MONOLITHIC),
    },
    "sharded": {
        ".": ({"coords"}, MONOLITHIC | {"k", "has_overlay"}),
        "shard_00": ({"coords", *ONE_PLANE}, MONOLITHIC),
        "shard_01": ({"coords", *ONE_PLANE}, MONOLITHIC),
        "overlay": (ONE_PLANE, MONOLITHIC),
    },
}


def assert_scalar_manifests(root: Path) -> None:
    """Every manifest under *root* is format 4 and holds scalars only
    (the config a flat dict of them)."""
    for path in root.rglob("manifest.json"):
        manifest = json.loads(path.read_text())
        assert manifest["format_version"] == 4
        config = manifest.pop("config")
        assert set(config) == CONFIG_KEYS
        values = [*manifest.values(), *config.values()]
        assert all(isinstance(value, (int, float, str)) for value in values), path


@pytest.mark.parametrize("family", list(LAYOUTS))
def test_each_family_writes_its_pinned_keys(family, tmp_path):
    graph = delaunay_network(60, seed=11)
    config = DHLConfig(seed=0)
    if family == "sharded":
        index = ShardedDHLIndex.build(graph, k=2, config=config)
    elif family == "directed":
        index = DirectedDHLIndex.build(DiGraph.from_undirected(graph), config)
    else:
        index = DHLIndex.build(graph, config)
    index.save(tmp_path / "snap")
    written = {
        str(npz.parent.relative_to(tmp_path / "snap")): npz
        for npz in (tmp_path / "snap").rglob("arrays.npz")
    }
    assert set(written) == set(LAYOUTS[family])
    for directory, (array_keys, manifest_keys) in LAYOUTS[family].items():
        with np.load(written[directory]) as data:
            assert set(data.files) == {*ROAD_KEYS, *array_keys}, directory
        manifest_path = written[directory].parent / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert set(manifest) == manifest_keys, directory
    assert_scalar_manifests(tmp_path / "snap")


# ---------------------------------------------------------------------------
# snapshots of the earlier format
# ---------------------------------------------------------------------------

#: Written by the format-2/3 writer: ``grid_network(6, 6)`` and a
#: 16-vertex digraph with one-way arcs (both ``DHLConfig(leaf_size=2,
#: seed=0)``), and ``delaunay_network(60, seed=11)`` at k = 2
#: (``DHLConfig(seed=0)``).
LEGACY = Path(__file__).parent / "data" / "legacy_snapshots"
LEGACY_SNAPSHOTS = {
    "v2_undirected": (DHLIndex, 2),
    "v2_directed": (DirectedDHLIndex, 2),
    "v3_sharded": (ShardedDHLIndex, 3),
}


def all_pairs(index) -> np.ndarray:
    n = index.graph.num_vertices
    return np.array([(s, t) for s in range(n) for t in range(n)])


def dijkstra_rows(index) -> np.ndarray:
    graph = index.graph
    n = graph.num_vertices
    if isinstance(graph, DiGraph):
        return np.array([directed_dijkstra(graph, s) for s in range(n)]).ravel()
    return np.concatenate([dijkstra(graph, s) for s in range(n)])


@pytest.mark.parametrize("mmap_labels", [False, True])
@pytest.mark.parametrize("name", list(LEGACY_SNAPSHOTS))
def test_an_earlier_snapshot_loads_and_saves_as_format_4(name, mmap_labels, tmp_path):
    cls, version = LEGACY_SNAPSHOTS[name]
    manifest = json.loads((LEGACY / name / "manifest.json").read_text())
    assert manifest["format_version"] == version
    assert "graph" in manifest or "node_bits" in manifest
    index = cls.load(LEGACY / name, mmap_labels=mmap_labels)
    pairs = all_pairs(index)
    expected = dijkstra_rows(index)
    np.testing.assert_array_equal(index.distances(pairs), expected)

    index.save(tmp_path / "v4")
    assert_scalar_manifests(tmp_path / "v4")
    again = cls.load(tmp_path / "v4")
    np.testing.assert_array_equal(again.distances(pairs), expected)
    again.save(tmp_path / "again")
    assert snapshot_files(tmp_path / "again") == snapshot_files(tmp_path / "v4")


# ---------------------------------------------------------------------------
# arrays that do not fit are refused
# ---------------------------------------------------------------------------

def rewrite(path: Path, name: str, edit) -> None:
    """Apply *edit* to the array file *name* under *path* (a dict of an
    ``.npz``'s arrays, or one ``.npy`` array), checksums resealed."""
    target = path / name
    if target.suffix == ".npz":
        with np.load(target) as data:
            arrays = {key: data[key].copy() for key in data.files}
        edit(arrays)
        np.savez_compressed(target, **arrays)
    else:
        np.save(target, edit(np.load(target)))
    (path / "checksums.json").unlink()
    _write_checksums(path)


def set_entry(key, position, value):
    def edit(arrays):
        arrays[key][position] = value(arrays)

    return edit


#: One corruption per H_Q array: each loads at format 2 (and then
#: crashes or answers wrongly), and must be refused.
HQ_CORRUPTIONS = {
    "node_of": set_entry("node_of", 0, lambda a: 10**9),
    "node_parent": set_entry("node_parent", -1, lambda a: len(a["node_parent"])),
    "node_depth": set_entry("node_depth", -1, lambda a: a["node_depth"][-1] + 1),
    "node_branch": set_entry("node_branch", 1, lambda a: 2),
    "tau": set_entry("tau", 0, lambda a: a["node_vend"][a["node_of"][0]]),
}

LABEL_CORRUPTIONS = {
    "label_offsets.npy": lambda offsets: offsets + (np.arange(len(offsets)) > 3),
    "label_values.npy": lambda values: values[:-1],
}


class TestLoadRefusesMisfittingArrays:
    @pytest.fixture
    def snapshot(self, tmp_path) -> Path:
        index = DHLIndex.build(grid_network(6, 6), DHLConfig(leaf_size=2, seed=0))
        index.save(tmp_path / "idx")
        return tmp_path / "idx"

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("key", list(HQ_CORRUPTIONS))
    def test_hq_array(self, snapshot, key, verify):
        rewrite(snapshot, "arrays.npz", HQ_CORRUPTIONS[key])
        with pytest.raises(SerializationError, match=f"H_Q's {key} "):
            DHLIndex.load(snapshot, verify=verify)

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("name", ["label_offsets.npy", "label_values.npy"])
    def test_label_offsets(self, snapshot, name, verify):
        """Offsets one past the layout's from row 4 on, or one value
        short of where they end."""
        rewrite(snapshot, name, LABEL_CORRUPTIONS[name])
        with pytest.raises(SerializationError, match="label offsets"):
            DHLIndex.load(snapshot, verify=verify, mmap_labels=True)

    @pytest.mark.parametrize("verify", [True, False])
    def test_a_road_without_a_shortcut_slot(self, snapshot, verify):
        store = DHLIndex.load(snapshot).hu
        far = next(v for v in range(1, 36) if find_edge_slot(store, 0, v) < 0)

        def edit(arrays):
            for key, value in zip(ROAD_KEYS, (0, far, 1.0)):
                arrays[key] = np.append(arrays[key], value)

        rewrite(snapshot, "arrays.npz", edit)
        with pytest.raises(SerializationError, match="no shortcut slot"):
            DHLIndex.load(snapshot, verify=verify)

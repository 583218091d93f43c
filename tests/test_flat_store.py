"""Flat CSR label store: the one layout, and snapshot round-trips.

Every label row is exactly ``tau(v) + 1`` contiguous entries, which is
the layout the C label kernels read: every path that makes or replaces
a labelling leaves it, and ``verify()`` refuses any other.

The snapshot tests cover the serialization contract of the flat store:
save → load (plain and ``mmap_mode="r"``) reproduces identical distances
and ``num_entries`` for both the undirected and the directed index, and
a memory-mapped index still accepts maintenance (copy-on-first-write).
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import HierarchyError, SerializationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network, random_connected_graph
from repro.labelling.labels import HierarchicalLabelling
from repro.service.protocol import SpecRequest
from repro.service.workers import ShardExecutor
from repro.utils.rng import make_rng, sample_pairs

SRC = str(Path(repro.__file__).resolve().parent.parent)


@pytest.fixture
def asym_digraph() -> DiGraph:
    g = random_connected_graph(60, extra_edges=50, seed=8)
    dg = DiGraph.from_undirected(g)
    rng = np.random.default_rng(4)
    for u, v, w in list(dg.arcs())[: dg.num_arcs // 2]:
        dg.set_weight(u, v, float(w + rng.integers(0, 25)))
    return dg


@pytest.fixture
def directed_index(asym_digraph) -> DirectedDHLIndex:
    return DirectedDHLIndex.build(asym_digraph.copy(), DHLConfig(leaf_size=4))


class TestFlatStoreStructure:
    def test_store_is_contiguous_rows_of_tau_plus_one(self, small_index):
        labels = small_index.labels
        assert labels.values.dtype == np.float64
        assert labels.offsets.dtype == np.int64
        assert labels.num_entries == len(labels.values)
        np.testing.assert_array_equal(
            labels.offsets, np.concatenate([[0], np.cumsum(labels.tau + 1)])
        )

    def test_views_share_the_flat_buffer(self, small_index):
        labels = small_index.labels
        view = labels.view(7)
        assert len(view) == labels.tau[7] + 1
        view[0] += 3.0
        assert labels.values[labels.offsets[7]] == view[0]
        assert labels.entry(7, 0) == view[0]

    def test_verify_refuses_another_layout(self, small_index):
        """A row of another length is no labelling, even with every
        entry in place: one spare trailing entry on row 0 fails
        ``verify()``, which the C kernels' own check would let by."""
        labels = small_index.labels
        offsets = labels.offsets.copy()
        offsets[1:] += 1
        values = np.insert(labels.values, labels.offsets[1], np.inf)
        small_index._adopt(
            small_index.hq,
            small_index.hu,
            (HierarchicalLabelling(values, offsets, labels.tau),),
        )
        with pytest.raises(HierarchyError, match="tau \\+ 1"):
            small_index.verify()

    def test_verify_refuses_a_trailing_entry(self, small_index):
        """Rows that fill only a prefix of the value buffer are no
        labelling either: one spare entry after the last row fails
        ``verify()``."""
        labels = small_index.labels
        values = np.append(labels.values, 0.0)
        small_index._adopt(
            small_index.hq,
            small_index.hu,
            (HierarchicalLabelling(values, labels.offsets, labels.tau),),
        )
        with pytest.raises(HierarchyError, match="value buffer"):
            small_index.verify()

    @pytest.mark.parametrize("corrupt", ["diagonal", "shortcut"])
    def test_verify_checks_everything_under_python_o(self, corrupt):
        """``verify()`` raises :class:`HierarchyError`, not ``assert``, so
        an optimised interpreter (``python -O``) checks as much: a label
        diagonal that is not 0, a shortcut weight raised above its
        minimum."""
        code = (
            "import numpy as np\n"
            "from repro.core.config import DHLConfig\n"
            "from repro.core.index import DHLIndex\n"
            "from repro.exceptions import HierarchyError\n"
            "from repro.graph.generators import grid_network\n"
            "assert False, 'asserts run'\n"
            "graph = grid_network(6, 6, seed=1)\n"
            "index = DHLIndex.build(graph, DHLConfig(leaf_size=4))\n"
            "labels, weights = index.labels, index.hu.up_weights\n"
            f"if {corrupt!r} == 'diagonal':\n"
            "    labels.values[labels.offsets[6] - 1] = 1.0\n"
            "else:\n"
            "    weights[np.flatnonzero(np.isfinite(weights))[0]] += 1.0\n"
            "try:\n"
            "    index.verify()\n"
            "except HierarchyError as exc:\n"
            "    print('refused:', exc)\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert result.stdout.startswith("refused:"), result.stdout


def assert_one_layout(index) -> None:
    """Every labelling of *index* is rows of exactly ``tau + 1``
    contiguous entries, and ``verify()`` holds."""
    index.verify()
    tau = np.asarray(index.hq.tau, dtype=np.int64)
    for labels in index.labellings:
        np.testing.assert_array_equal(labels.tau, tau)
        np.testing.assert_array_equal(
            labels.offsets, np.concatenate([[0], np.cumsum(tau + 1)])
        )
        assert len(labels.values) == labels.offsets[-1]
        assert labels.values.flags.c_contiguous


def _burst(index, _):
    edges = [(u, v, w) for u, v, w in index.graph.edges() if math.isfinite(w)]
    index.update([(u, v, 2 * w) for u, v, w in edges[:8]])
    index.update(
        [(u, v, w) for u, v, w in edges[:4]]
        + [(u, v, max(1.0, w // 2)) for u, v, w in edges[8:12]]
    )
    return index


def _insert(index, comparable: bool):
    hq, graph, n = index.hq, index.graph, index.graph.num_vertices
    a, b = next(
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and hq.comparable(a, b) == comparable and not graph.has_edge(a, b)
    )
    stats = index.apply_batch(insertions=[(a, b, 1.0)])
    assert (stats.fastpath_inserts, stats.repartitions) == (
        (1, 0) if comparable else (0, 1)
    )
    return index


def _compact(index, _):
    edges = [(u, v) for u, v, w in index.graph.edges() if math.isfinite(w)]
    index.apply_batch(deletions=edges[::5])
    index.compact()
    return index


def _mapped_then_written(index, tmp_path):
    index.save(tmp_path / "idx")
    loaded = type(index).load(tmp_path / "idx", mmap_labels=True)
    assert not any(labels.values.flags.writeable for labels in loaded.labellings)
    u, v, w = next(iter(loaded.graph.edges()))
    loaded.update([(u, v, w + 3.0)])  # copy-on-first-write
    assert all(labels.values.flags.writeable for labels in loaded.labellings)
    return loaded


LAYOUT_PATHS = {
    "build": lambda index, _: index,
    "mixed-bursts": _burst,
    "comparable-insert": lambda index, _: _insert(index, True),
    "incomparable-insert": lambda index, _: _insert(index, False),
    "compaction": _compact,
    "mmap-load-then-write": _mapped_then_written,
    "pickle": lambda index, _: pickle.loads(pickle.dumps(index)),
}


@pytest.mark.parametrize("path", list(LAYOUT_PATHS))
@pytest.mark.parametrize("family", ["undirected", "directed"])
def test_every_path_leaves_one_layout(family, path, tmp_path):
    """Build, bursts, both insertion rungs, compaction, a mapped load's
    first write and a pickle all leave rows of exactly ``tau + 1``
    entries, in both index families."""
    graph = grid_network(8, 8, seed=3)
    config = DHLConfig(leaf_size=4, seed=0)
    if family == "undirected":
        index = DHLIndex.build(graph, config)
    else:
        index = DirectedDHLIndex.build(DiGraph.from_undirected(graph), config)
    assert_one_layout(LAYOUT_PATHS[path](index, tmp_path))


def test_replica_attach_leaves_one_layout():
    """A replica binds the published pair as its shard's labelling: the
    same rows of ``tau + 1`` entries (shards are undirected indexes)."""
    sharded = ShardedDHLIndex.build(grid_network(10, 10, seed=2), k=2)
    for sid in range(sharded.k):
        executor = ShardExecutor()
        spec = SpecRequest(payload=sharded.shard_worker_payload(sid), epoch=0)
        executor.setup(spec, *sharded.shard_buffers(sid))
        assert_one_layout(executor.index)
        assert executor.index.labels.equals(sharded.shards[sid].labels)


class TestUndirectedSnapshots:
    @pytest.mark.parametrize("mmap_labels", [False, True])
    def test_round_trip_identical_distances(
        self, small_index, tmp_path, mmap_labels
    ):
        small_index.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx", mmap_labels=mmap_labels)
        assert loaded.labels.num_entries == small_index.labels.num_entries
        assert loaded.labels.equals(small_index.labels)
        n = small_index.graph.num_vertices
        pairs = sample_pairs(n, 2_000, make_rng(3), distinct=False)
        assert np.array_equal(
            loaded.distances(pairs), small_index.distances(pairs)
        )

    def test_mmap_values_are_read_only_until_materialised(
        self, small_index, tmp_path
    ):
        small_index.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx", mmap_labels=True)
        assert not loaded.labels.values.flags.writeable
        loaded.labels.ensure_writable()
        assert loaded.labels.values.flags.writeable
        assert loaded.labels.equals(small_index.labels)

    def test_mmap_load_then_maintain(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        loaded = DHLIndex.load(tmp_path / "idx", mmap_labels=True)
        edges = list(loaded.graph.edges())[:25]
        loaded.increase([(u, v, 2 * w) for u, v, w in edges])
        small_index.increase([(u, v, 2 * w) for u, v, w in edges])
        assert loaded.labels.equals(small_index.labels)
        loaded.decrease([(u, v, w) for u, v, w in edges])
        small_index.decrease([(u, v, w) for u, v, w in edges])
        assert loaded.labels.equals(small_index.labels)
        n = loaded.graph.num_vertices
        pairs = sample_pairs(n, 500, make_rng(9), distinct=False)
        assert np.array_equal(
            loaded.distances(pairs), small_index.distances(pairs)
        )

    def test_snapshot_files_on_disk(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        assert (tmp_path / "idx" / "manifest.json").exists()
        assert (tmp_path / "idx" / "arrays.npz").exists()
        assert (tmp_path / "idx" / "label_values.npy").exists()
        assert (tmp_path / "idx" / "label_offsets.npy").exists()

    def test_missing_label_snapshot_raises(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        (tmp_path / "idx" / "label_values.npy").unlink()
        with pytest.raises(SerializationError):
            DHLIndex.load(tmp_path / "idx")


class TestDirectedSnapshots:
    @pytest.mark.parametrize("mmap_labels", [False, True])
    def test_round_trip_identical_distances(
        self, directed_index, tmp_path, mmap_labels
    ):
        directed_index.save(tmp_path / "didx")
        loaded = DirectedDHLIndex.load(
            tmp_path / "didx", mmap_labels=mmap_labels
        )
        assert (
            loaded.labels_out.num_entries
            == directed_index.labels_out.num_entries
        )
        assert (
            loaded.labels_in.num_entries
            == directed_index.labels_in.num_entries
        )
        assert loaded.labels_out.equals(directed_index.labels_out)
        assert loaded.labels_in.equals(directed_index.labels_in)
        n = directed_index.digraph.num_vertices
        for s in range(0, n, 7):
            for t in range(0, n, 5):
                assert loaded.distance(s, t) == directed_index.distance(s, t)

    def test_mmap_load_then_maintain(self, directed_index, tmp_path):
        directed_index.save(tmp_path / "didx")
        loaded = DirectedDHLIndex.load(tmp_path / "didx", mmap_labels=True)
        arcs = [
            (a, b, w)
            for a, b, w in list(loaded.digraph.arcs())[:15]
            if math.isfinite(w)
        ]
        loaded.increase([(a, b, 2 * w) for a, b, w in arcs])
        directed_index.increase([(a, b, 2 * w) for a, b, w in arcs])
        assert loaded.labels_out.equals(directed_index.labels_out)
        assert loaded.labels_in.equals(directed_index.labels_in)
        n = loaded.digraph.num_vertices
        for s in range(0, n, 9):
            for t in range(0, n, 11):
                assert loaded.distance(s, t) == directed_index.distance(s, t)

    def test_kind_mismatch_raises(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        with pytest.raises(SerializationError):
            DirectedDHLIndex.load(tmp_path / "idx")

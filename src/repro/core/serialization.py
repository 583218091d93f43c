"""Index persistence: a snapshot is arrays and a manifest of scalars.

One explicit layout (no pickle) serves every family. ``manifest.json``
holds ``format_version``, ``kind``, ``n`` and the ``config`` (plus
``k`` and ``has_overlay`` at a sharded root). ``arrays.npz`` holds the
roads in ``edges()`` order — ``arc_src``, ``arc_dst``, ``arc_weight``,
and ``coords`` when the graph has them — and, for a monolithic index,
the shortcut store (``up_flat``, ``up_offsets``, one array per weight
plane) and H_Q as the arrays :meth:`QueryHierarchy.from_nodes` reads.
The labelling is bare ``label_values.npy`` / ``label_offsets.npy``
files, the flat CSR store's two arrays. A :class:`_Layout` per kind
names the ``kind``, the graph constructor, the weight planes and the
label files. Nothing is written that load does not read, and load
refuses arrays that do not fit with :class:`SerializationError` before
any kernel reads them. Monolithic v2 and sharded v3 snapshots still
load: they kept an undirected graph as manifest JSON and H_Q's branch
bits in node bitstrings, which the loader reads in place of the arrays.

Uncompressed label ``.npy`` files are the memory-map fast path:
``load_index(path, mmap_labels=True)`` opens the value buffer with
``np.load(mmap_mode="r")``, so a saved index serves queries at once
(label pages fault in on demand) while maintenance materialises a
writable copy on first update
(:meth:`HierarchicalLabelling.ensure_writable`).

**Crash safety.** Every save is atomic: the snapshot is written into a
hidden sibling temp directory, a per-directory ``checksums.json``
manifest (CRC32 of every file) is added, all files and directories are
fsynced, and the temp directory is renamed over the destination in one
step. A crash mid-save leaves the previous snapshot untouched; a crash
mid-rename leaves either the old or the new snapshot, never a torn mix.
Loads verify the manifests by default (``verify=False`` opts out) and
raise :class:`~repro.exceptions.SnapshotCorruptionError` naming the
first missing or corrupt file; :func:`verify_snapshot` runs the same
check standalone, e.g. before promoting a replicated snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.exceptions import SerializationError, SnapshotCorruptionError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph, road_arrays
from repro.graph.io import graph_from_payload
from repro.hierarchy.contraction import ContractionResult
from repro.hierarchy.csr import ShortcutCSR, check_capacity
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.labelling.labels import HierarchicalLabelling, row_offsets

__all__ = [
    "save_index",
    "load_index",
    "save_sharded_index",
    "load_sharded_index",
    "verify_snapshot",
]

_FORMAT_VERSION = 4
_ROAD_KEYS = ("arc_src", "arc_dst", "arc_weight")
#: Per node, in preorder: what :meth:`QueryHierarchy.from_nodes` reads
#: beside the per-vertex ``tau`` and ``node_of``.
_NODE_KEYS = ("node_depth", "node_parent", "node_vend", "node_branch")

_CHECKSUM_MANIFEST = "checksums.json"


def _crc32_file(path: Path) -> int:
    crc = 0
    with path.open("rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_checksums(root: Path) -> None:
    """Seal every directory under *root* with a CRC32 manifest.

    Directories that already carry a manifest are left alone — a nested
    atomic save (each shard of a sharded snapshot) sealed them itself,
    and re-hashing its label buffers here would double the write cost.
    """
    for dirpath, _dirnames, filenames in os.walk(root):
        d = Path(dirpath)
        if _CHECKSUM_MANIFEST in filenames:
            continue
        files = {
            name: _crc32_file(d / name)
            for name in sorted(filenames)
        }
        (d / _CHECKSUM_MANIFEST).write_text(
            json.dumps({"crc32": files}, sort_keys=True)
        )


def _atomic_snapshot(path: Path, writer) -> None:
    """Run *writer* against a temp directory, seal it, swap it in.

    The destination only ever holds a complete snapshot: *writer*
    populates ``.{name}.tmp-{pid}``, checksums are recorded, everything
    is fsynced, and one ``rename`` publishes the result (displacing any
    previous snapshot, which is removed only after the new one is in
    place). On failure the temp tree is discarded and the previous
    snapshot, if any, is restored untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    old = path.parent / f".{path.name}.old-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    if old.exists():
        shutil.rmtree(old)
    tmp.mkdir()
    try:
        writer(tmp)
        _write_checksums(tmp)
        for dirpath, _dirnames, filenames in os.walk(tmp, topdown=False):
            for name in filenames:
                _fsync_path(Path(dirpath) / name)
            _fsync_path(Path(dirpath))
        if path.exists():
            os.rename(path, old)
        os.rename(tmp, path)
        _fsync_path(path.parent)
        if old.exists():
            shutil.rmtree(old)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if old.exists() and not path.exists():
            os.rename(old, path)
        raise


def verify_snapshot(path: Path) -> int:
    """Check every snapshot file against its directory's CRC manifest.

    Walks *path* recursively; each directory must carry the
    ``checksums.json`` written at save time, every recorded file must
    exist, and its CRC32 must match. Returns the number of files
    verified; raises :class:`SnapshotCorruptionError` naming the first
    torn or corrupt file. Extra files (editor droppings, OS metadata)
    are ignored.
    """
    path = Path(path)
    if not path.is_dir():
        raise SnapshotCorruptionError(f"{path} is not a snapshot directory")
    checked = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        d = Path(dirpath)
        manifest_path = d / _CHECKSUM_MANIFEST
        if not manifest_path.exists():
            raise SnapshotCorruptionError(
                f"{d} has no {_CHECKSUM_MANIFEST}; the snapshot predates "
                "the checksummed format or its manifest was lost"
            )
        try:
            recorded = json.loads(manifest_path.read_text())["crc32"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SnapshotCorruptionError(
                f"unreadable checksum manifest in {d}: {exc}"
            ) from exc
        present = set(filenames)
        missing = sorted(name for name in recorded if name not in present)
        if missing:
            raise SnapshotCorruptionError(
                f"snapshot {d} is torn: missing {missing}"
            )
        for name in sorted(recorded):
            crc = recorded[name]
            actual = _crc32_file(d / name)
            if actual != crc:
                raise SnapshotCorruptionError(
                    f"{d / name} is corrupt: manifest records crc32 "
                    f"{crc:#010x}, file hashes to {actual:#010x}"
                )
            checked += 1
    return checked


class _Layout(NamedTuple):
    """On-disk names of one snapshot kind."""

    kind: str  # the manifest's ``kind``
    graph_from: Callable  # ``(n, roads, coords)`` -> the graph
    weight_keys: tuple[str, ...] = ()  # one ``arrays.npz`` key per weight plane
    label_prefixes: tuple[str, ...] = ()  # one ``.npy`` pair per labelling
    legacy_version: int = 2  # the earlier format's version, still read


#: Monolithic kinds, keyed by the shortcut store's ``planes``.
_LAYOUTS = {
    1: _Layout("undirected", Graph.from_edges, ("wup_flat",), ("label",)),
    2: _Layout(
        "directed",
        DiGraph.from_arcs,
        ("wout_flat", "win_flat"),
        ("label_out", "label_in"),
    ),
}
_SHARDED = _Layout("sharded", Graph.from_edges, legacy_version=3)


def _config_from_payload(payload: dict):
    """Rebuild a ``DHLConfig`` from the fields a snapshot may set.

    Older snapshots carry retired keys (``workers``, ``coarsest_size``,
    ``engine``, ``validate``); all are dropped, which keeps every
    snapshot on disk loadable. Keys a snapshot predates keep their
    defaults.
    """
    from repro.core.config import DHLConfig

    known = {f.name for f in dataclasses.fields(DHLConfig)}
    return DHLConfig(**{k: v for k, v in payload.items() if k in known})


def _road_payload(graph) -> dict[str, np.ndarray]:
    payload = dict(zip(_ROAD_KEYS, road_arrays(graph)))
    if graph.coords is not None:
        payload["coords"] = graph.coords
    return payload


def _write_snapshot(path: Path, kind: str, graph, config, arrays, **scalars) -> None:
    """Write ``arrays.npz`` (*arrays* beside *graph*'s roads) and the
    scalar manifest — the same for every kind."""
    np.savez_compressed(path / "arrays.npz", **arrays, **_road_payload(graph))
    manifest = {
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "n": graph.num_vertices,
        "config": dataclasses.asdict(config),
        **scalars,
    }
    (path / "manifest.json").write_text(json.dumps(manifest))


def _read_snapshot(path: Path, layout: _Layout) -> tuple:
    """``(manifest, arrays, graph, roads)`` of the snapshot at *path*,
    ``roads`` the graph's ``(u, v, w)`` arrays."""
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise SerializationError(f"{path} does not contain a saved DHL index")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"corrupt manifest: {exc}") from exc
    version = manifest.get("format_version")
    if version not in (_FORMAT_VERSION, layout.legacy_version):
        raise SerializationError(f"unsupported format version {version!r}")
    kind = manifest.get("kind", "undirected")
    if kind != layout.kind:
        raise SerializationError(f"{path} holds a {kind} index; expected {layout.kind}")
    arrays = {}
    if (path / "arrays.npz").exists():
        with np.load(path / "arrays.npz") as data:
            arrays = dict(data)
    if version != _FORMAT_VERSION:
        # The earlier format held an undirected graph as manifest JSON
        # and each H_Q node's branch as the last bit of its bitstring.
        if "graph" in manifest:
            arrays.update(_road_payload(graph_from_payload(manifest["graph"])))
        if "node_bits" in manifest:
            arrays["node_branch"] = np.array(
                [int(bits) & 1 for bits in manifest["node_bits"]], dtype=np.uint8
            )
    try:
        roads = tuple(arrays[key] for key in _ROAD_KEYS)
    except KeyError as exc:
        raise SerializationError(f"{path} holds no road arrays") from exc
    graph = layout.graph_from(
        manifest["n"], zip(*(road.tolist() for road in roads)), arrays.get("coords")
    )
    return manifest, arrays, graph, roads


def _hq_from_payload(arrays, n: int) -> QueryHierarchy:
    """H_Q from its snapshot arrays, refused unless they fit: the LCA
    kernel and the label gather index by every one of them. O(n +
    nodes), and no label value is read."""
    tau, node_of = arrays["tau"], arrays["node_of"]
    depth, parent, vend, branch = (arrays[key] for key in _NODE_KEYS)
    nodes = len(depth)
    every = (tau, node_of, depth, parent, vend, branch)
    if not (
        all(a.ndim == 1 and a.dtype.kind in "iu" for a in every)
        and len(tau) == len(node_of) == n
        and 0 < nodes == len(parent) == len(vend) == len(branch)
    ):
        bad = "shape"
    elif not np.all((0 <= node_of) & (node_of < nodes)):
        bad = "node_of"
    elif parent[0] != -1 or not np.all(
        (0 <= parent[1:]) & (parent[1:] < np.arange(1, nodes))
    ):
        bad = "node_parent"  # preorder: every parent comes earlier
    elif depth[0] != 0 or not np.array_equal(depth[1:], depth[parent[1:]] + 1):
        bad = "node_depth"
    elif not np.all((branch == 0) | (branch == 1)):
        bad = "node_branch"
    else:
        # A node owns the ranks [its parent's vend, its own vend).
        start = np.concatenate(([0], vend[parent[1:]]))[node_of]
        fits = (0 <= start) & (start <= tau) & (tau < vend[node_of])
        bad = None if np.all(fits) else "tau"
    if bad:
        raise SerializationError(f"H_Q's {bad} does not fit the snapshot")
    return QueryHierarchy.from_nodes(tau, node_of, depth, parent, vend, branch)


def _save_labels(path: Path, labels: HierarchicalLabelling, prefix: str) -> None:
    """Dump the flat store as two bare .npy files (mmap-able on load).

    The same ``(values, offsets)`` pair that shard workers attach over
    shared memory, so the on-disk layout and the cross-process layout
    are one format.
    """
    np.save(path / f"{prefix}_values.npy", np.ascontiguousarray(labels.values))
    np.save(path / f"{prefix}_offsets.npy", labels.offsets)


def _load_labels(
    path: Path, prefix: str, tau: np.ndarray, mmap: bool
) -> HierarchicalLabelling:
    """The labelling, refused unless its offsets are the one layout's
    over *tau* and end at the value count (read off the ``.npy``
    header: a memory-mapped buffer is not paged in)."""
    values_path = path / f"{prefix}_values.npy"
    offsets_path = path / f"{prefix}_offsets.npy"
    if not values_path.exists() or not offsets_path.exists():
        raise SerializationError(f"{path} is missing the {prefix} label snapshot")
    values = np.load(values_path, mmap_mode="r" if mmap else None)
    offsets = np.load(offsets_path)
    expected = row_offsets(tau)
    if (
        values.ndim != 1
        or values.dtype != np.float64
        or not np.array_equal(offsets, expected)
        or expected[-1] != len(values)
    ):
        raise SerializationError(f"{prefix} offsets do not fit H_Q's tau and values")
    return HierarchicalLabelling(values, offsets, tau)


def _store_from_payload(
    graph, hq: QueryHierarchy, data, weight_keys
) -> ContractionResult:
    """The shortcut store straight from the snapshot's flat arrays.

    The on-disk layout *is* the store's (rank-sorted CSR rows, the
    weight planes laid end to end), so nothing is re-sorted; a snapshot
    whose arrays do not fit together, or whose rows are not rank-sorted,
    is rejected — it is outside input and every slot lookup binary
    searches ``slot_keys``. The int64 ids on disk are narrowed by the
    :class:`ShortcutCSR` constructor once they are known to fit; a
    snapshot of 2**31 or more slots raises
    :class:`~repro.exceptions.StoreCapacityError` before that.
    """
    n = hq.n
    indptr, indices = data["up_offsets"], data["up_flat"]
    m = len(indices)
    check_capacity(n, m)
    order = hq.contraction_order()
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    up_weights = np.concatenate([data[key] for key in weight_keys])
    if (
        len(indptr) != n + 1
        or indptr[0] != 0
        or indptr[-1] != m
        or np.any(np.diff(indptr) < 0)
        or (m and not (0 <= indices.min() and indices.max() < n))
        or len(up_weights) != len(weight_keys) * m
    ):
        raise SerializationError("shortcut arrays are inconsistent")
    csr = ShortcutCSR(n, rank, indptr, indices)
    if np.any(np.diff(csr.slot_keys) <= 0):
        raise SerializationError("shortcut rows are not rank-sorted")
    return ContractionResult(graph, csr, up_weights)


# ---------------------------------------------------------------------------
# monolithic indexes: DHLIndex and DirectedDHLIndex
# ---------------------------------------------------------------------------

def save_index(index, path: Path) -> None:
    """Write *index* (either monolithic family) to *path*.

    Atomic: the snapshot lands complete (checksummed + fsynced +
    renamed into place) or not at all.
    """
    _atomic_snapshot(Path(path), lambda tmp: _write_index_contents(index, tmp))


def _write_index_contents(index, path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    hq, hu = index.hq, index.hu
    layout = _LAYOUTS[hu.planes]
    # The CSR shortcut store is already the on-disk ragged layout:
    # rank-sorted rows, every weight plane aligned slot-for-slot. Its
    # int32 ids are written as the format's int64.
    planes = hu.up_weights.reshape(hu.planes, hu.csr.num_slots)
    arrays = {
        "up_flat": hu.csr.indices.astype(np.int64),
        "up_offsets": hu.csr.indptr.astype(np.int64),
        **dict(zip(layout.weight_keys, planes)),
        "tau": hq.tau,
        "node_of": hq.node_of,
        **dict(zip(_NODE_KEYS, (hq.depth, hq.parent(), hq.vend(), hq.branch()))),
    }
    _write_snapshot(path, layout.kind, index.graph, index.config, arrays)
    for prefix, labels in zip(layout.label_prefixes, index.labellings):
        _save_labels(path, labels, prefix)


def load_index(
    path: Path, mmap_labels: bool = False, verify: bool = True, cls=None
):
    """Load a monolithic index saved by :func:`save_index`.

    *cls* is the family expected at *path* —
    :class:`~repro.core.index.DHLIndex` (the default) or
    :class:`~repro.core.directed.DirectedDHLIndex`; a snapshot of the
    other kind raises :class:`SerializationError`.

    With ``mmap_labels=True`` every label value buffer is opened with
    ``np.load(mmap_mode="r")``: load returns near-instantly and queries
    stream label pages off disk; the first maintenance batch materialises
    a writable in-memory copy.

    ``verify=True`` (the default) checks every file against the CRC32
    manifest first and raises :class:`SnapshotCorruptionError` on a torn
    or damaged snapshot — one streaming pass over the bytes, which also
    warms the page cache the mmap path will fault in anyway. Pass
    ``verify=False`` only when the snapshot was just verified elsewhere;
    arrays that do not fit together are refused either way.

    The store's ``direct`` cache is filled from the road arrays just
    read, so the first update walks no graph.
    """
    from repro.core.stats import IndexStats

    if cls is None:
        from repro.core.index import DHLIndex as cls
    layout = _LAYOUTS[cls._hierarchy.planes]
    if verify:
        verify_snapshot(path)
    manifest, arrays, graph, roads = _read_snapshot(path, layout)
    hq = _hq_from_payload(arrays, graph.num_vertices)
    hu = cls._hierarchy(
        _store_from_payload(graph, hq, arrays, layout.weight_keys), hq
    )
    try:
        hu.fill_direct(*roads)
    except KeyError as exc:
        raise SerializationError(f"{exc.args[0]}: the store does not fit") from exc
    labellings = [
        _load_labels(path, prefix, hq.tau, mmap_labels)
        for prefix in layout.label_prefixes
    ]
    config = _config_from_payload(manifest["config"])
    stats = IndexStats(num_vertices=graph.num_vertices, num_edges=graph.num_edges)
    return cls(graph, hq, hu, *labellings, config, stats)


# ---------------------------------------------------------------------------
# sharded ShardedDHLIndex
# ---------------------------------------------------------------------------

def save_sharded_index(index, path: Path) -> None:
    """Write a :class:`~repro.core.sharded.ShardedDHLIndex` to *path*.

    Layout: the root's ``manifest.json`` and ``arrays.npz`` (the whole
    graph) with ``region_of.npy`` (the region assignment), one
    ``shard_NN/`` monolithic snapshot directory per region, and
    ``overlay/`` for the boundary index when one exists. Each component
    directory is a complete, individually loadable index with bare
    ``.npy`` label arrays — the mmap fast path applies per shard.

    Atomic at both levels: each shard snapshot is sealed by its own
    :func:`save_index`, and the whole directory swaps in as one rename.
    """
    _atomic_snapshot(
        Path(path), lambda tmp: _write_sharded_contents(index, tmp)
    )


def _write_sharded_contents(index, path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for i, shard in enumerate(index.shards):
        save_index(shard, path / f"shard_{i:02d}")
    if index.overlay is not None:
        save_index(index.overlay, path / "overlay")
    np.save(path / "region_of.npy", np.asarray(index.region_of, dtype=np.int64))
    scalars = {"k": index.k, "has_overlay": index.overlay is not None}
    _write_snapshot(path, _SHARDED.kind, index.graph, index.config, {}, **scalars)


def load_sharded_index(path: Path, mmap_labels: bool = False, verify: bool = True):
    """Load an index saved by :func:`save_sharded_index`.

    ``mmap_labels=True`` propagates to every shard and the overlay:
    each component's label values open with ``np.load(mmap_mode="r")``.
    ``verify=True`` checks the whole tree (every shard, the overlay, the
    partition arrays) in one recursive pass before any component loads,
    so per-component loads skip their own re-verification.
    """
    from repro.core.sharded import ShardedDHLIndex, ShardedIndexStats
    from repro.partition.regions import regions_from_assignment

    if verify:
        verify_snapshot(path)
    manifest, _, graph, _ = _read_snapshot(path, _SHARDED)
    config = _config_from_payload(manifest["config"])
    region_of = np.load(path / "region_of.npy")
    partition = regions_from_assignment(graph, region_of)
    if partition.k != manifest["k"]:
        raise SerializationError(
            f"stored assignment has {partition.k} regions, manifest says "
            f"{manifest['k']}"
        )
    shards = [
        load_index(path / f"shard_{i:02d}", mmap_labels=mmap_labels, verify=False)
        for i in range(manifest["k"])
    ]
    overlay = (
        load_index(path / "overlay", mmap_labels=mmap_labels, verify=False)
        if manifest["has_overlay"]
        else None
    )
    stats = ShardedIndexStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        k=partition.k,
        boundary_vertices=sum(len(b) for b in partition.boundary),
        cut_edges=len(partition.cut_edges),
        overlay_edges=overlay.graph.num_edges if overlay is not None else 0,
    )
    index = ShardedDHLIndex(graph, partition, shards, overlay, config, stats)
    index._refresh_size_stats()
    return index

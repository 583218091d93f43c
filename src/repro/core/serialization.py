"""Index persistence: JSON manifest + npz arrays + flat label snapshots.

The format is explicit (no pickle): a ``manifest.json`` with scalar
metadata and the partition-node bitstrings (arbitrary-precision ints are
stored as decimal strings), an ``arrays.npz`` holding the hierarchy and
shortcut tables (ragged structures flattened with offset arrays), and
the labelling dumped as bare ``.npy`` files — ``label_values.npy`` plus
``label_offsets.npy`` — exactly the flat CSR store's two arrays.

Dumping the label store as uncompressed ``.npy`` is what enables the
memory-map fast path: ``load_index(path, mmap_labels=True)`` opens the
value buffer with ``np.load(mmap_mode="r")``, so a saved index starts
serving queries near-instantly (label pages fault in on demand) while
maintenance transparently materialises a writable copy on first update
(:meth:`HierarchicalLabelling.ensure_writable`).

Both the undirected :class:`~repro.core.index.DHLIndex` and the
directed :class:`~repro.core.directed.DirectedDHLIndex` persist through
one writer and one loader: a :class:`_Layout` per store shape names the
manifest ``kind``, one ``npz`` key per weight plane and one label-file
prefix per labelling, and only the graph codec differs (JSON in the
manifest for a :class:`Graph`, arc arrays in the ``npz`` for a
:class:`DiGraph`).

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
from typing import NamedTuple

import numpy as np

from repro.exceptions import SerializationError, SnapshotCorruptionError
from repro.graph.digraph import DiGraph
from repro.graph.io import graph_from_json, graph_to_json
from repro.hierarchy.contraction import ContractionResult
from repro.hierarchy.csr import ShortcutCSR
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.labelling.labels import HierarchicalLabelling

__all__ = [
    "save_index",
    "load_index",
    "save_sharded_index",
    "load_sharded_index",
    "verify_snapshot",
]

_FORMAT_VERSION = 2
# Sharded snapshots (format v3) are a directory of per-shard v2
# snapshot directories plus partition metadata, so every shard's label
# store keeps the mmap fast path.
_SHARDED_FORMAT_VERSION = 3


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


def _flatten_ragged(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    flat = np.concatenate(rows) if rows else np.zeros(0)
    return flat, offsets


def _unflatten(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    return [flat[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


def _save_labels(path: Path, labels: HierarchicalLabelling, prefix: str) -> None:
    """Dump the flat store as two bare .npy files (mmap-able on load).

    Uses the same packed ``(values, offsets)`` pair that shard workers
    attach over shared memory (:meth:`HierarchicalLabelling
    .export_buffers`), so the on-disk layout and the cross-process
    layout are one format.
    """
    values, offsets = labels.export_buffers()
    np.save(path / f"{prefix}_values.npy", np.ascontiguousarray(values))
    np.save(path / f"{prefix}_offsets.npy", offsets)


def _load_labels(
    path: Path, prefix: str, tau: np.ndarray, mmap: bool
) -> HierarchicalLabelling:
    values_path = path / f"{prefix}_values.npy"
    offsets_path = path / f"{prefix}_offsets.npy"
    if not values_path.exists() or not offsets_path.exists():
        raise SerializationError(f"{path} is missing the {prefix} label snapshot")
    mode = "r" if mmap else None
    values = np.load(values_path, mmap_mode=mode)
    offsets = np.load(offsets_path)
    return HierarchicalLabelling(values, offsets, np.diff(offsets), tau)


def _hq_payload(hq: QueryHierarchy) -> dict[str, np.ndarray]:
    member_rows = [np.asarray(m, dtype=np.int64) for m in hq.node_members]
    members_flat, members_offsets = _flatten_ragged(member_rows)
    return {
        "tau": hq.tau,
        "node_of": hq.node_of,
        "node_depth": np.asarray(hq.node_depth, dtype=np.int64),
        "node_vstart": np.asarray(hq.node_vstart, dtype=np.int64),
        "node_vend": np.asarray(hq.node_vend, dtype=np.int64),
        "node_parent": np.asarray(hq.node_parent, dtype=np.int64),
        "members_flat": members_flat,
        "members_offsets": members_offsets,
    }


def _hq_from_payload(data, node_bits: list[int], n: int) -> QueryHierarchy:
    member_rows = _unflatten(data["members_flat"], data["members_offsets"])
    node_parent = data["node_parent"].tolist()
    node_vend = data["node_vend"].tolist()
    # vend chains are derivable: chain(node) = chain(parent) + [vend].
    node_vend_chain: list[np.ndarray] = []
    for nid, parent in enumerate(node_parent):
        if parent < 0:
            node_vend_chain.append(np.array([node_vend[nid]], dtype=np.int64))
        else:
            node_vend_chain.append(
                np.append(node_vend_chain[parent], node_vend[nid])
            )
    return QueryHierarchy(
        n,
        data["tau"],
        data["node_of"],
        data["node_depth"].tolist(),
        node_bits,
        data["node_vstart"].tolist(),
        node_vend,
        node_parent,
        [m.tolist() for m in member_rows],
        node_vend_chain,
    )


def _config_payload(config) -> dict:
    return {
        "beta": config.beta,
        "leaf_size": config.leaf_size,
        "seed": config.seed,
        "validate": config.validate,
        "insert_closure_limit": config.insert_closure_limit,
        "compaction_threshold": config.compaction_threshold,
    }


def _config_from_payload(payload: dict):
    """Rebuild a ``DHLConfig`` from the fields a snapshot may set.

    Older snapshots carry retired keys (``workers``, ``coarsest_size``,
    ``engine``); all are dropped, which keeps every snapshot on disk
    loadable. Keys a snapshot predates keep their defaults.
    """
    from repro.core.config import DHLConfig

    known = {f.name for f in dataclasses.fields(DHLConfig)}
    return DHLConfig(**{k: v for k, v in payload.items() if k in known})


def _read_manifest(path: Path, expected_kind: str) -> dict:
    manifest_path = path / "manifest.json"
    arrays_path = path / "arrays.npz"
    if not manifest_path.exists() or not arrays_path.exists():
        raise SerializationError(f"{path} does not contain a saved DHL index")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"corrupt manifest: {exc}") from exc
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {manifest.get('format_version')!r}"
        )
    kind = manifest.get("kind", "undirected")
    if kind != expected_kind:
        raise SerializationError(
            f"{path} holds a {kind} index; expected {expected_kind}"
        )
    return manifest


# ---------------------------------------------------------------------------
# monolithic indexes (format v2): DHLIndex and DirectedDHLIndex
# ---------------------------------------------------------------------------

class _Layout(NamedTuple):
    """On-disk names of one store shape."""

    kind: str  # the manifest's ``kind``
    weight_keys: tuple[str, ...]  # one ``arrays.npz`` key per weight plane
    label_prefixes: tuple[str, ...]  # one ``.npy`` pair per labelling


#: Keyed by the shortcut store's ``planes``.
_LAYOUTS = {
    1: _Layout("undirected", ("wup_flat",), ("label",)),
    2: _Layout("directed", ("wout_flat", "win_flat"), ("label_out", "label_in")),
}


def save_index(index, path: Path) -> None:
    """Write *index* (either monolithic family) to *path*.

    Atomic: the snapshot lands complete (checksummed + fsynced +
    renamed into place) or not at all.
    """
    _atomic_snapshot(Path(path), lambda tmp: _write_index_contents(index, tmp))


def _write_index_contents(index, path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    hq, hu, graph = index.hq, index.hu, index.graph
    layout = _LAYOUTS[hu.planes]

    # The CSR shortcut store is already the on-disk ragged layout:
    # rank-sorted rows, every weight plane aligned slot-for-slot.
    planes = hu.up_weights.reshape(hu.planes, hu.csr.num_slots)
    arrays = {
        "up_flat": hu.csr.indices,
        "up_offsets": hu.csr.indptr,
        **dict(zip(layout.weight_keys, planes)),
        **_hq_payload(hq),
    }
    manifest = {
        "format_version": _FORMAT_VERSION,
        "kind": layout.kind,
        "n": graph.num_vertices,
        "config": _config_payload(index.config),
        # Bitstrings can exceed 64 bits for deep trees: store as strings.
        "node_bits": [str(b) for b in hq.node_bits],
    }
    # The graph codec is the one thing the kinds do not share: a
    # digraph's arcs travel as arrays, a graph as manifest JSON.
    if layout.kind == "directed":
        arrays.update(_arc_payload(graph))
    else:
        arrays["order"] = hu.order
        manifest["graph"] = json.loads(graph_to_json(graph))
    np.savez_compressed(path / "arrays.npz", **arrays)
    for prefix, labels in zip(layout.label_prefixes, index.labellings):
        _save_labels(path, labels, prefix)
    (path / "manifest.json").write_text(json.dumps(manifest))


def _arc_payload(digraph: DiGraph) -> dict[str, np.ndarray]:
    arcs = list(digraph.arcs())
    payload = {
        "arc_src": np.asarray([a for a, _, _ in arcs], dtype=np.int64),
        "arc_dst": np.asarray([b for _, b, _ in arcs], dtype=np.int64),
        "arc_weight": np.asarray([w for _, _, w in arcs], dtype=np.float64),
    }
    if digraph.coords is not None:
        payload["coords"] = digraph.coords
    return payload


def _digraph_from_payload(data, n: int) -> DiGraph:
    return DiGraph.from_arcs(
        n,
        zip(
            data["arc_src"].tolist(),
            data["arc_dst"].tolist(),
            data["arc_weight"].tolist(),
        ),
        data["coords"] if "coords" in data else None,
    )


def _store_from_payload(
    graph, hq: QueryHierarchy, data, weight_keys
) -> ContractionResult:
    """The shortcut store straight from the snapshot's flat arrays.

    The on-disk layout *is* the store's (rank-sorted CSR rows, the
    weight planes laid end to end), so nothing is re-sorted; a snapshot
    whose arrays do not fit together, or whose rows are not rank-sorted,
    is rejected — it is outside input and every slot lookup binary
    searches ``slot_keys``.
    """
    n = hq.n
    order = hq.contraction_order()
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    indptr, indices = data["up_offsets"], data["up_flat"]
    up_weights = np.concatenate([data[key] for key in weight_keys])
    m = len(indices)
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
    return ContractionResult(graph, order, rank, csr, up_weights)


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
    ``verify=False`` only when the snapshot was just verified elsewhere.
    """
    from repro.core.stats import IndexStats

    if cls is None:
        from repro.core.index import DHLIndex as cls
    layout = _LAYOUTS[cls._hierarchy.planes]
    if verify:
        verify_snapshot(path)
    manifest = _read_manifest(path, layout.kind)
    data = np.load(path / "arrays.npz")
    config = _config_from_payload(manifest["config"])

    n = manifest["n"]
    if layout.kind == "directed":
        graph = _digraph_from_payload(data, n)
    else:
        graph = graph_from_json(json.dumps(manifest["graph"]))
    hq = _hq_from_payload(data, [int(b) for b in manifest["node_bits"]], n)
    hu = cls._hierarchy(
        _store_from_payload(graph, hq, data, layout.weight_keys), hq
    )
    labellings = [
        _load_labels(path, prefix, hq.tau, mmap_labels)
        for prefix in layout.label_prefixes
    ]
    stats = IndexStats(num_vertices=n, num_edges=graph.num_edges)
    return cls(graph, hq, hu, *labellings, config, stats)


# ---------------------------------------------------------------------------
# sharded ShardedDHLIndex (format v3)
# ---------------------------------------------------------------------------

def save_sharded_index(index, path: Path) -> None:
    """Write a :class:`~repro.core.sharded.ShardedDHLIndex` to *path*.

    Layout: ``manifest.json`` (scalars + global graph + region
    assignment), one ``shard_NN/`` v2 snapshot directory per region,
    and ``overlay/`` for the boundary index when one exists. Each
    component directory is a complete, individually loadable index with
    bare ``.npy`` label arrays — the mmap fast path applies per shard.

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
    manifest = {
        "format_version": _SHARDED_FORMAT_VERSION,
        "kind": "sharded",
        "k": index.k,
        "n": index.graph.num_vertices,
        "has_overlay": index.overlay is not None,
        "config": _config_payload(index.config),
        "graph": json.loads(graph_to_json(index.graph)),
    }
    (path / "manifest.json").write_text(json.dumps(manifest))


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
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise SerializationError(f"{path} does not contain a saved sharded index")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"corrupt manifest: {exc}") from exc
    if manifest.get("format_version") != _SHARDED_FORMAT_VERSION:
        raise SerializationError(
            f"unsupported sharded format version "
            f"{manifest.get('format_version')!r}"
        )
    if manifest.get("kind") != "sharded":
        raise SerializationError(
            f"{path} holds a {manifest.get('kind')!r} index; expected sharded"
        )
    graph = graph_from_json(json.dumps(manifest["graph"]))
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

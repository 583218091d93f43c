"""Per-layer numbers that have no seam to put a proxy on.

Taken after the traced replay by timing the public function directly on
sampled stream batches. Each probe returns ``{metric name: value}``;
a probe that does not apply to a workload is simply not called, and its
metrics are absent from the run's record (see ``bench/README.md``).
"""

from __future__ import annotations

import shutil
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from bench.spec import PERTURBED_EDGES
from repro.core import DHLIndex
from repro.service import InProcessRuntime
from repro.service.protocol import (
    ComputeBatch,
    ComputeReply,
    SubQuery,
    SubResult,
    decode_frame,
    encode_frame,
)

__all__ = [
    "cache_probe",
    "codec_probe",
    "kernel_probe",
    "maintenance_probe",
    "pool_counters",
    "runtime_probe",
    "sharded_probe",
    "snapshot_probe",
    "structural_probe",
]

KERNEL_BATCHES = 16
KERNEL_BATCH = 1024
SINGLE_PAIRS = 2_000
RUNTIME_BATCHES = 24
RTT_CALLS = 50
MAINTENANCE_ROUNDS = 3
#: The paper's batch: as many edges as one replay burst changes.
MAINTENANCE_EDGES = 2 * PERTURBED_EDGES
STRUCTURAL_EDGES = 8


def _seconds(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def kernel_probe(index: DHLIndex, rng) -> dict[str, float]:
    """LCA / gather / facade split of one ``index.distances`` call.

    *index* is the monolithic index, or one shard of a sharded one (the
    kernel a worker runs); pairs are uniform over its vertices.
    """
    engine = index.engine
    n = index.graph.num_vertices
    lca, arrays, facade, ks = [], [], [], []
    for _ in range(KERNEL_BATCHES):
        s = rng.integers(0, n, KERNEL_BATCH)
        t = rng.integers(0, n, KERNEL_BATCH)
        pairs = list(zip(s.tolist(), t.tolist()))
        t0 = perf_counter()
        k = engine.common_ancestor_counts(s, t)
        t1 = perf_counter()
        engine.distances_arrays(s, t)
        t2 = perf_counter()
        index.distances(pairs)
        t3 = perf_counter()
        lca.append(t1 - t0)
        arrays.append(t2 - t1)
        facade.append(t3 - t2)
        ks.append(float(k.mean()))
    single = rng.integers(0, n, (SINGLE_PAIRS, 2)).tolist()
    t0 = perf_counter()
    for s, t in single:
        engine.distance(s, t)
    single_s = perf_counter() - t0
    per_pair = 1e6 / KERNEL_BATCH
    return {
        "lca.us_per_pair": median(lca) * per_pair,
        "lca.mean_k": float(np.mean(ks)),
        "gather.us_per_pair": (median(arrays) - median(lca)) * per_pair,
        "gather.single_us": single_s / SINGLE_PAIRS * 1e6,
        "facade.us_per_pair": (median(facade) - median(arrays)) * per_pair,
    }


def maintenance_probe(backend, edges, rng) -> dict[str, float]:
    """DHL+ bursts (weights x2) and their DHL- restores, straight on the index.

    The counts come from the returned ``MaintenanceStats`` and repeat
    exactly for a given seed. Updating the index directly bypasses any
    pooled runtime, so this runs after every runtime probe.
    """
    increase_s = decrease_s = 0.0
    shortcuts = labels = entries = changes = 0
    for _ in range(MAINTENANCE_ROUNDS):
        chosen = [
            edges[int(i)]
            for i in rng.choice(len(edges), MAINTENANCE_EDGES, replace=False)
        ]
        for scale in (2.0, 1.0):
            batch = [(u, v, scale * w) for u, v, w in chosen]
            t0 = perf_counter()
            stats = backend.update(batch)
            dt = perf_counter() - t0
            if scale > 1.0:
                increase_s += dt
            else:
                decrease_s += dt
            shortcuts += stats.shortcuts_changed
            labels += stats.labels_changed
            entries += stats.entries_processed
            changes += len(batch)
    half = changes / 2
    return {
        "maintenance.increase_ms_per_change": increase_s / half * 1e3,
        "maintenance.decrease_ms_per_change": decrease_s / half * 1e3,
        "maintenance.shortcuts_changed_per_change": shortcuts / changes,
        "maintenance.labels_changed_per_change": labels / changes,
        "maintenance.entries_processed_per_change": entries / changes,
    }


def cache_probe(service, n: int, rng) -> dict[str, float]:
    """Result-cache counters of the traced replay, then a pure-hit replay."""
    cache = service.stats().cache
    pairs = rng.integers(0, n, (KERNEL_BATCH, 2)).tolist()
    pairs = [(s, t) for s, t in pairs if s != t]
    service.distances(pairs)  # fill
    hit_s = median(_seconds(service.distances, pairs) for _ in range(5))
    return {
        "cache.hit_rate": cache.hit_rate,
        "cache.hit_us_per_pair": hit_s / len(pairs) * 1e6,
        "cache.invalidated": float(cache.invalidated),
    }


def runtime_probe(runtime, backend, batches, intra_pair) -> dict[str, float]:
    """The runtime against ``InProcessRuntime`` over the same index.

    ``runtime.over_inprocess`` is in-process batch time / this runtime's
    batch time on the same batches: above 1 the runtime beats running
    the same index in the calling process.
    """
    inprocess = InProcessRuntime(backend)
    batches = batches[:RUNTIME_BATCHES]
    own, base = [], []
    for batch in batches:  # alternate so drift hits both sides alike
        own.append(_seconds(runtime.distances, batch))
        base.append(_seconds(inprocess.distances, batch))
    rtt = median(_seconds(runtime.distances, [intra_pair]) for _ in range(RTT_CALLS))
    return {
        "runtime.batch_p50_ms": median(own) * 1e3,
        "runtime.inprocess_batch_p50_ms": median(base) * 1e3,
        "runtime.over_inprocess": median(base) / median(own),
        "transport.rtt_p50_ms": rtt * 1e3,
    }


def pool_counters(pool: dict[str, int]) -> dict[str, float]:
    """Scheduler and delta-sync ratios from a replay's ``pool_stats()`` delta."""
    return {
        "scheduler.sub_batches_per_batch": pool["sub_batches"] / max(1, pool["batches"]),
        "scheduler.cross_share": pool["cross_pairs"] / max(1, pool["pairs"]),
        "sync.delta_bytes_per_flush": pool["delta_bytes"]
        / max(1, pool["delta_syncs"] + pool["republishes"]),
        "sync.republishes": float(pool["republishes"]),
    }


def codec_probe(pairs: int, rng) -> dict[str, float]:
    """``encode_frame`` / ``decode_frame`` on a stream-sized request and reply."""
    request = ComputeBatch(
        epoch=1,
        subs=[SubQuery(s=rng.integers(0, 1000, pairs), t=rng.integers(0, 1000, pairs))],
    )
    reply = ComputeReply(results=[SubResult(final=rng.random(pairs))])
    encode, decode, size = [], [], 0
    for _ in range(20):
        t0 = perf_counter()
        frames = [encode_frame(request), encode_frame(reply)]
        t1 = perf_counter()
        for frame in frames:
            decode_frame(frame)
        t2 = perf_counter()
        encode.append(t1 - t0)
        decode.append(t2 - t1)
        size = sum(len(frame) for frame in frames)
    return {
        "codec.encode_us_per_pair": median(encode) / pairs * 1e6,
        "codec.decode_us_per_pair": median(decode) / pairs * 1e6,
        "codec.bytes_per_pair": size / pairs,
    }


def sharded_probe(sharded, batches) -> dict[str, float]:
    """Intra- and cross-region cost of the in-process sharded engine."""
    region_of = sharded.region_of
    intra, cross = [], []
    for batch in batches[:RUNTIME_BATCHES]:
        intra += [(s, t) for s, t in batch if region_of[s] == region_of[t]]
        cross += [(s, t) for s, t in batch if region_of[s] != region_of[t]]
    intra_s = median(_seconds(sharded.distances, intra) for _ in range(3))
    cross_s = median(_seconds(sharded.distances, cross) for _ in range(3))
    stats = sharded.stats()
    return {
        "sharded.intra_us_per_pair": intra_s / len(intra) * 1e6,
        "sharded.cross_us_per_pair": cross_s / len(cross) * 1e6,
        "sharded.boundary_vertices": float(stats.boundary_vertices),
        "sharded.cut_edges": float(stats.cut_edges),
    }


def snapshot_probe(index: DHLIndex, scratch: Path) -> dict[str, float]:
    """Snapshot save / load round trip inside the benchmark's out dir."""
    path = scratch / "snapshot"
    shutil.rmtree(path, ignore_errors=True)
    try:
        save_s = _seconds(index.save, path)
        size = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
        load_s = _seconds(DHLIndex.load, path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    return {
        "snapshot.save_s": save_s,
        "snapshot.load_s": load_s,
        "snapshot.mb": size / 1e6,
    }


def structural_probe(index: DHLIndex, edges, rng) -> dict[str, float]:
    """Delete a few roads, re-insert them, compact. Run last: it mutates."""
    chosen = [
        edges[int(i)]
        for i in rng.choice(len(edges), min(STRUCTURAL_EDGES, len(edges)), replace=False)
    ]
    delete_s = _seconds(
        lambda: index.apply_batch(deletions=[(u, v) for u, v, _ in chosen])
    )
    insert_s = _seconds(lambda: index.apply_batch(insertions=chosen))
    compact_s = _seconds(index.compact)
    return {
        "structural.delete_ms_per_edge": delete_s / len(chosen) * 1e3,
        "structural.insert_ms_per_edge": insert_s / len(chosen) * 1e3,
        "structural.compact_ms": compact_s * 1e3,
    }

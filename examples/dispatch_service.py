"""A dispatch service absorbing rush-hour traffic with live stats.

A fleet dispatcher keeps asking for driver→rider distances while the
road network congests and clears underneath it. The
:class:`~repro.service.DistanceService` answers every batch from the
vectorised flat-store kernel, caches results behind the maintenance
epoch, and folds the congestion ramps into single coalesced maintenance
passes. The same day of traffic is then replayed on the region-sharded
backend through *both* execution runtimes — the in-process engine and a
pool of shared-memory shard worker processes — which must agree to the
last bit.

Run with::

    PYTHONPATH=src python examples/dispatch_service.py
"""

from __future__ import annotations

from repro import DHLConfig, DHLIndex, delaunay_network
from repro.core.sharded import ShardedDHLIndex
from repro.service import (
    DistanceService,
    QueryBatch,
    ShardWorkerRuntime,
    replay,
    rush_hour_traffic,
    zipf_hotspot_traffic,
)


def main() -> None:
    # 1. The city: a 3,000-intersection road network, and a DHL index.
    graph = delaunay_network(3_000, seed=13)
    print(f"network: {graph.num_vertices} vertices, {graph.num_edges} edges")
    index = DHLIndex.build(graph, DHLConfig(seed=0))

    # 2. The serving layer: batched queries, a 64k-entry result cache
    #    behind the maintenance epoch, and an update coalescer.
    service = DistanceService(index, cache_capacity=65_536, flush_threshold=512)

    # 3. Three rush-hour cycles: congestion ramps (1.5x -> 2x -> 3x on an
    #    arterial edge set), a peak query storm, clearing, off-peak lull.
    events = rush_hour_traffic(
        index.graph,
        cycles=3,
        arterial_edges=64,
        peak_batches=8,
        peak_batch_size=500,
        offpeak_batches=4,
        offpeak_batch_size=150,
        seed=7,
    )
    print(f"replaying {len(events)} traffic events...\n")

    # 4. Live stats: report after every few query batches.
    chunks = [events[i : i + 5] for i in range(0, len(events), 5)]
    for tick, chunk in enumerate(chunks, start=1):
        replay(service, chunk)
        stats = service.stats()
        queries = sum(len(e.pairs) for e in chunk if isinstance(e, QueryBatch))
        print(
            f"tick {tick:2d}: epoch {stats.epoch:2d}  "
            f"+{queries:4d} queries  "
            f"hit rate {stats.cache.hit_rate:6.1%}  "
            f"p99 {stats.query_latency.p99_seconds * 1e3:6.3f} ms  "
            f"pending {service.pending_updates}"
        )

    # 5. Evening: traffic settles into hotspots (downtown, the airport) —
    #    the regime where the epoch-guarded cache pays for itself.
    evening = zipf_hotspot_traffic(
        index.graph,
        query_batches=20,
        batch_size=500,
        alpha=1.6,
        update_every=10,
        update_size=8,
        seed=23,
    )
    hits_before = service.stats().cache.hits
    report = replay(service, evening)
    hit_rate = (report.service.cache.hits - hits_before) / report.queries
    print(
        f"\nevening hotspot traffic: {report.queries} queries at "
        f"{report.queries_per_second:,.0f} q/s, cache hit rate {hit_rate:.1%}"
    )

    # 6. The day in review.
    print("\n" + service.stats().summary())
    coalesced = service.stats().coalescer
    print(
        f"\ncoalescing folded {coalesced.submitted} submitted changes into "
        f"{coalesced.flushes} maintenance passes "
        f"({coalesced.merged_duplicates} duplicates, "
        f"{coalesced.noops_dropped} no-ops never touched the index)"
    )

    # 7. Scaling out: the same city as four region shards, served first
    #    by the in-process runtime, then by a pool of worker processes
    #    that attach the shard label buffers over shared memory. Both
    #    runtimes replay the same evening and must agree exactly;
    #    the worker pool escapes the single-interpreter GIL.
    print("\n--- serving runtimes over the sharded backend ---")
    sharded = ShardedDHLIndex.build(graph.copy(), k=4, config=DHLConfig(seed=0))
    checksums = {}
    for label, make_service in (
        ("in-process ", lambda: DistanceService(sharded)),
        ("worker-pool", lambda: DistanceService(ShardWorkerRuntime(sharded))),
    ):
        with make_service() as shard_service:
            report = replay(shard_service, list(evening))
            checksums[label] = round(report.distance_checksum, 6)
            print(
                f"{label}: {report.queries_per_second:8,.0f} q/s  "
                f"backend {shard_service.stats().backend}"
            )
            if label == "worker-pool":
                sched = shard_service.runtime.stats
                print(
                    f"scheduler  : {sched.sub_batches} sub-batches over "
                    f"{sched.batches} calls, {sched.epoch_broadcasts} epoch "
                    f"broadcasts ({sched.delta_bytes} delta bytes, "
                    f"{sched.republishes} republishes)"
                )
    assert len(set(checksums.values())) == 1, checksums
    print("runtimes agree on every distance.")


if __name__ == "__main__":
    main()

"""Socket-replica serving scenario: TCP shard replicas vs in-process.

Companion to the ``service-workers`` experiment for the remote
transport: the same sharded backend served through
:class:`~repro.service.workers.SocketShardRuntime` (N TCP replica
processes per shard, round-robin reads, framed runtime protocol) must produce the identical traffic checksum the in-process
runtime produces, across query/update interleaving — and must keep
producing it through a **failover drill**: halfway through the replay
one replica of every shard is hard-killed, the rest of the traffic
fails over to the surviving siblings, and the combined checksum still
has to match. The scheduler counters certify how it served: inline
``EpochDelta`` broadcasts (not buffer republishes) for updates, and a
non-zero failover count after the drill with zero lost requests.
"""

from __future__ import annotations

from repro.core.config import DHLConfig
from repro.core.sharded import ShardedDHLIndex
from repro.experiments.context import ExperimentContext
from repro.experiments.report import ascii_table
from repro.service import SocketShardRuntime
from repro.service.service import DistanceService
from repro.service.workload import commute_traffic, replay, uniform_traffic

__all__ = ["service_sockets_scenarios"]

_K = 4
_REPLICAS = 2


def _make_events(name: str, graph, sharded, seed: int):
    if name == "uniform":
        return uniform_traffic(graph, query_batches=12, batch_size=200, seed=seed)
    return commute_traffic(
        graph,
        sharded.region_of,
        boundary=sharded.partition.boundary,
        query_batches=12,
        batch_size=200,
        seed=seed,
    )


def _checksum(*reports) -> float:
    return round(sum(r.distance_checksum for r in reports), 6)


def service_sockets_scenarios(ctx: ExperimentContext) -> dict:
    """Replay traffic through the socket-replica runtime, drill failover."""
    rows = []
    raw: dict[str, dict] = {}
    config = DHLConfig(seed=ctx.seed)
    for name in ctx.datasets:
        graph = ctx.graph(name)
        sharded = ShardedDHLIndex.build(
            graph.copy(), k=_K, config=config, build_workers=ctx.workers
        )
        raw[name] = {}
        for scenario in ("uniform", "commute"):
            events = list(_make_events(scenario, graph, sharded, ctx.seed))
            half = len(events) // 2
            # Reference: the in-process runtime over the same split.
            with DistanceService(sharded) as service:
                ref = _checksum(
                    replay(service, events[:half]),
                    replay(service, events[half:]),
                )
            entry: dict = {}
            with DistanceService(
                SocketShardRuntime(sharded, replicas=_REPLICAS)
            ) as service:
                first = replay(service, events[:half])
                # Failover drill: hard-kill one replica of every shard
                # mid-replay; the rest of the traffic must fail over
                # without losing (or mis-answering) a single request.
                runtime = service.runtime
                for sid in range(sharded.k):
                    victim = runtime._groups[sid][0]
                    victim.process.terminate()
                    victim.process.join(10)
                second = replay(service, events[half:])
                got = _checksum(first, second)
                stats = service.stats()
                q = stats.query_latency
                scheduler = runtime.stats.as_dict()
                entry = {
                    "backend": stats.backend,
                    "queries_per_second": second.queries_per_second,
                    "p50_ms": q.p50_seconds * 1e3,
                    "p95_ms": q.p95_seconds * 1e3,
                    "checksum": got,
                    "checksum_in_process": ref,
                    "scheduler": scheduler,
                    "survivors": [
                        len(runtime.alive_replicas(sid))
                        for sid in range(sharded.k)
                    ],
                }
                if ctx.metrics_out is not None:
                    service.dump_metrics(ctx.metrics_out)
            raw[name][scenario] = entry
            if got != ref:
                raise AssertionError(
                    f"{name}/{scenario}: socket runtime disagrees with the "
                    f"in-process checksum after the replica kill: "
                    f"{got} != {ref}"
                )
            if scheduler["failovers"] < 1:
                raise AssertionError(
                    f"{name}/{scenario}: the replica kill never triggered a "
                    f"failover — the drill did not exercise the path"
                )
            if scenario == "commute" and scheduler["delta_syncs"] < 1:
                raise AssertionError(
                    f"{name}/commute: updates never rode the inline delta "
                    f"broadcast: {scheduler}"
                )
            rows.append(
                [
                    name,
                    scenario,
                    f"{entry['queries_per_second']:,.0f}",
                    f"{entry['p50_ms']:.3f}",
                    f"{entry['p95_ms']:.3f}",
                    str(scheduler["failovers"]),
                    str(scheduler["delta_syncs"]),
                ]
            )
    text = ascii_table(
        [
            "dataset",
            "scenario",
            "q/s (post-kill)",
            "p50 ms",
            "p95 ms",
            "failovers",
            "delta syncs",
        ],
        rows,
        title="Socket shard replicas: checksum parity through a mid-replay "
        f"replica kill (k={_K}, {_REPLICAS} replicas)",
    )
    return {"experiment": "service-sockets", "raw": raw, "rows": rows, "text": text}

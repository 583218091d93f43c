"""Shard-runtime serving scenario, once per transport of its seam.

Not a table from the paper. The same sharded backend is served through
the in-process runtime and through one :class:`ShardRuntime` transport
(``service-workers``: pipe frames + shared-memory labels;
``service-sockets``: loopback TCP + inline labels), replaying the same
event stream per dataset and traffic shape:

* ``uniform``  — uniformly random pairs (mostly intra-shard groups);
* ``commute``  — every pair straddles regions, churn on cut edges (the
  fan-heavy regime).

Halfway through the replay one replica of every shard is hard-killed.
The contract, checked on every transport:

* **parity** — the combined traffic checksum equals the in-process
  runtime's on the same split stream;
* **failover** — the kill was noticed (failovers counted) and lost no
  request;
* **stitched traces** — the service runs a full-rate tracer, and the
  last ``commute`` query tree holds the ``worker[...]`` /
  ``shard_compute`` spans recorded in the replica *processes*
  (embedded in the payload as ``trace`` / ``trace_text``);
* **deltas only** — updates reached the replicas as label deltas, with
  zero whole-buffer republishes.

``--metrics-out`` dumps the runtime service's metrics registry.
"""

from __future__ import annotations

from repro.core.config import DHLConfig
from repro.core.sharded import ShardedDHLIndex
from repro.experiments.context import ExperimentContext
from repro.experiments.report import ascii_table
from repro.observability import Observability
from repro.service import ShardWorkerRuntime, SocketShardRuntime
from repro.service.service import DistanceService
from repro.service.workload import commute_traffic, replay, uniform_traffic

__all__ = ["shard_runtime_scenarios"]

_K = 4
_REPLICAS = 2
#: CLI name and transport description per runtime class.
_TRANSPORTS = {
    ShardWorkerRuntime: ("service-workers", "pipe + shared-memory labels"),
    SocketShardRuntime: ("service-sockets", "loopback TCP + inline labels"),
}


def _make_events(name: str, graph, sharded, seed: int):
    if name == "uniform":
        return uniform_traffic(graph, query_batches=20, batch_size=300, seed=seed)
    return commute_traffic(
        graph,
        sharded.region_of,
        boundary=sharded.partition.boundary,
        query_batches=20,
        batch_size=300,
        seed=seed,
    )


def _entry(service, reports) -> dict:
    stats = service.stats()
    q = stats.query_latency
    queries = sum(r.queries for r in reports)
    seconds = sum(r.wall_seconds for r in reports)
    return {
        "backend": stats.backend,
        "queries_per_second": queries / seconds if seconds > 0 else 0.0,
        "p50_ms": q.p50_seconds * 1e3,
        "p95_ms": q.p95_seconds * 1e3,
        "p99_ms": q.p99_seconds * 1e3,
        "checksum": round(sum(r.distance_checksum for r in reports), 6),
    }


def _last_query_trace(service):
    # The last finished root may be a flush; the evidence is a query tree.
    tracer = service.observability.tracer
    return next(
        (span for span in reversed(tracer.finished) if span.name == "distances"),
        None,
    )


def _check(where: str, scenario: str, ref: dict, got: dict) -> None:
    scheduler = got["scheduler"]
    failures = []
    if got["checksum"] != ref["checksum"]:
        failures.append(
            f"checksum {got['checksum']} != in-process {ref['checksum']} "
            "after the replica kill"
        )
    if scheduler["failovers"] < 1:
        failures.append("the replica kill never triggered a failover")
    if scheduler["republishes"]:
        failures.append(
            f"{scheduler['republishes']} whole-buffer republishes — the "
            "delta path regressed"
        )
    if scenario == "commute":
        if scheduler["delta_syncs"] < 1:
            failures.append("updates never reached the replicas as deltas")
        text = got.get("trace_text", "")
        if "worker[" not in text or "shard_compute" not in text:
            failures.append(
                "cross-shard trace was not stitched — no replica-side spans "
                f"in:\n{text or '<no trace>'}"
            )
    if failures:
        raise AssertionError(f"{where}: " + "; ".join(failures))


def shard_runtime_scenarios(ctx: ExperimentContext, runtime_cls) -> dict:
    """Replay traffic in process and through *runtime_cls*, killing one
    replica of every shard halfway; raises on any broken contract."""
    experiment, transport = _TRANSPORTS[runtime_cls]
    mode = runtime_cls.kind
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
            with DistanceService(sharded) as service:
                reports = [replay(service, events[:half])]
                reports.append(replay(service, events[half:]))
                ref = _entry(service, reports)
            with DistanceService(
                runtime_cls(sharded, replicas=_REPLICAS),
                observability=Observability.enabled(trace_sample_rate=1.0),
            ) as service:
                runtime = service.runtime
                reports = [replay(service, events[:half])]
                for sid in range(sharded.k):  # a host loss per shard
                    victim = runtime._groups[sid][0]
                    victim.process.terminate()
                    victim.process.join(10)
                reports.append(replay(service, events[half:]))
                got = _entry(service, reports)
                got["scheduler"] = runtime.stats.as_dict()
                got["survivors"] = [
                    len(runtime.alive_replicas(sid)) for sid in range(sharded.k)
                ]
                trace = _last_query_trace(service)
                if trace is not None:
                    got["trace"] = trace.to_dict()
                    got["trace_text"] = trace.format()
                if ctx.metrics_out is not None:
                    service.dump_metrics(ctx.metrics_out)
            _check(f"{name}/{scenario}", scenario, ref, got)
            raw[name][f"{scenario}/in-process"] = ref
            raw[name][f"{scenario}/{mode}"] = got
            for label, entry in (("in-process", ref), (mode, got)):
                rows.append(
                    [
                        name,
                        scenario,
                        label,
                        f"{entry['queries_per_second']:,.0f}",
                        f"{entry['p50_ms']:.3f}",
                        f"{entry['p95_ms']:.3f}",
                        str(entry.get("scheduler", {}).get("failovers", "-")),
                    ]
                )
    text = ascii_table(
        ["dataset", "scenario", "runtime", "q/s", "p50 ms", "p95 ms", "failovers"],
        rows,
        title=f"Shard runtime over {transport}: parity through a mid-replay "
        f"replica kill (k={_K}, {_REPLICAS} replicas)",
    )
    return {"experiment": experiment, "raw": raw, "rows": rows, "text": text}

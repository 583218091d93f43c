"""Worker-pool serving scenario: in-process vs shard-worker runtimes.

Not a table from the paper — this experiment drives the ROADMAP's
multi-core serving direction: the same sharded backend served through
both execution runtimes must produce identical traffic checksums, and
the worker pool's batch scheduler / epoch-broadcast counters certify
*how* it served them (per-shard sub-batches, delta syncs instead of
buffer re-publishes). Replayed per dataset and traffic shape:

* ``uniform``  — uniformly random pairs (mostly intra-shard groups);
* ``commute``  — every pair straddles regions, churn on cut edges (the
  fan-heavy regime worker parallelism targets).

The worker-pool mode runs under a full-rate tracer: every replayed
request produces a span tree whose worker sub-spans were recorded in
the worker *processes* and stitched back over the result pipes. The
last tree per scenario is embedded in the payload (``trace`` /
``trace_text``) as evidence, and ``--metrics-out`` dumps the pool's
metrics registry.
"""

from __future__ import annotations

from repro.core.config import DHLConfig
from repro.core.sharded import ShardedDHLIndex
from repro.experiments.context import ExperimentContext
from repro.experiments.report import ascii_table
from repro.observability import Observability
from repro.service import ShardWorkerRuntime
from repro.service.service import DistanceService
from repro.service.workload import commute_traffic, replay, uniform_traffic

__all__ = ["service_workers_scenarios"]

_K = 4


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


def service_workers_scenarios(ctx: ExperimentContext) -> dict:
    """Replay traffic through both runtimes over one sharded backend."""
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
            events = _make_events(scenario, graph, sharded, ctx.seed)
            checksums = {}
            for mode in ("in-process", "worker-pool"):
                if mode == "in-process":
                    service = DistanceService(sharded)
                else:
                    service = DistanceService(
                        ShardWorkerRuntime(sharded),
                        observability=Observability.enabled(
                            trace_sample_rate=1.0
                        ),
                    )
                with service:
                    report = replay(service, list(events))
                    stats = service.stats()
                    q = stats.query_latency
                    entry = {
                        "backend": stats.backend,
                        "queries_per_second": report.queries_per_second,
                        "p50_ms": q.p50_seconds * 1e3,
                        "p95_ms": q.p95_seconds * 1e3,
                        "p99_ms": q.p99_seconds * 1e3,
                        "checksum": report.distance_checksum,
                    }
                    if mode == "worker-pool":
                        entry["scheduler"] = service.runtime.stats.as_dict()
                        # The last finished root may be a flush; the
                        # evidence we want is a stitched query tree.
                        trace = next(
                            (
                                span
                                for span in reversed(
                                    service.observability.tracer.finished
                                )
                                if span.name == "distances"
                            ),
                            None,
                        )
                        if trace is not None:
                            entry["trace"] = trace.to_dict()
                            entry["trace_text"] = trace.format()
                        if ctx.metrics_out is not None:
                            service.dump_metrics(ctx.metrics_out)
                    raw[name][f"{scenario}/{mode}"] = entry
                    checksums[mode] = round(report.distance_checksum, 6)
                    rows.append(
                        [
                            name,
                            scenario,
                            mode,
                            f"{report.queries_per_second:,.0f}",
                            f"{q.p50_seconds * 1e3:.3f}",
                            f"{q.p95_seconds * 1e3:.3f}",
                        ]
                    )
            if checksums["in-process"] != checksums["worker-pool"]:
                raise AssertionError(
                    f"{name}/{scenario}: runtimes disagree on the distance "
                    f"checksum: {checksums}"
                )
        trace_text = raw[name]["commute/worker-pool"].get("trace_text", "")
        if "worker[" not in trace_text or "shard_compute" not in trace_text:
            raise AssertionError(
                f"{name}: cross-shard trace was not stitched — no "
                f"worker-side spans in:\n{trace_text or '<no trace>'}"
            )
        scheduler = raw[name]["commute/worker-pool"]["scheduler"]
        if scheduler["republishes"]:
            raise AssertionError(
                f"{name}: worker pool re-published whole label buffers "
                f"({scheduler['republishes']}x) — the delta path regressed"
            )
    text = ascii_table(
        ["dataset", "scenario", "runtime", "q/s", "p50 ms", "p95 ms"],
        rows,
        title="Serving runtimes: in-process vs shared-memory shard workers "
        f"(k={_K})",
    )
    return {"experiment": "service-workers", "raw": raw, "rows": rows, "text": text}

"""What the benchmark measures: graph profiles, workloads and metric names.

``BENCHMARK.json`` at the repo root repeats the workload and metric
names for the driver; ``bench/tests`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AA_RUNS",
    "END_TO_END",
    "GRAPH_SEED",
    "PER_LAYER",
    "PROFILES",
    "ROUND_SECONDS",
    "SETUP_REPEATS",
    "WORKLOADS",
    "LayerMetric",
    "Metric",
    "Workload",
    "timed_rounds",
]

#: Seed of the two graph profiles. The graphs are the same on every run
#: so that ``index_mb`` and the label widths are properties of the code
#: under test; ``--seed`` drives the traffic streams only.
GRAPH_SEED = 7

#: A round's operation counts are sized to take about this long on the
#: 2-core sandbox; ``--seconds`` only picks how many timed rounds run.
ROUND_SECONDS = 0.8

#: Set-ups per untraced run, back to back before the replay; ``setup_s``
#: is their median (the driver's contract asks for several).
SETUP_REPEATS = 3

#: Runs per workload in a set (``python -m bench set`` / ``aa``): run
#: *i* uses seed *i*, as the driver's acceptance protocol does.
AA_RUNS = 10


def timed_rounds(seconds: float) -> int:
    """Timed rounds for a ``--seconds`` budget (12 at the default 10 s).

    A pure function of the argument, never of measured time, so two
    commits given the same ``--seconds`` do identical work. At least 4:
    a position's time is a quartile over the rounds.
    """
    return max(4, round(seconds / ROUND_SECONDS))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str  # the repo module(s) the number belongs to
    moves: str  # the end-to-end metric it should move, and where


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # "grid" or "road"
    path: str  # "core", "async", "workers" or "sockets"
    why: str
    #: positions per round: one update burst each, then its query calls
    slots: int
    #: query calls per position (requests on the async path)
    calls: int
    #: pairs per query call (1 on the async path)
    batch: int
    #: smoke-profile (slots, calls, batch)
    smoke: tuple[int, int, int]
    #: Rounds replayed and discarded before the timed ones.
    warmup: int = 1


#: Graph sizes per profile: grid side length and road vertex count.
PROFILES = {
    "full": {"grid": 48, "road": 4_000},
    "smoke": {"grid": 10, "road": 300},
}

#: Edges one update burst perturbs; it also restores the previous
#: position's, so a burst carries twice as many changes.
PERTURBED_EDGES = 8

#: Concurrent callers on the async path.
CALLERS = 64

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "core-grid",
            "grid",
            "core",
            "Section 7 protocol on wide labels: LCA, label gather and the "
            "maintenance kernels do all the work, no serving layer runs",
            slots=6,
            calls=20,
            batch=1024,
            smoke=(2, 3, 64),
        ),
        Workload(
            "serve-road",
            "road",
            "async",
            "full stack on narrow labels: 64 closed-loop callers, Zipf pairs "
            "against the result cache; per-pair overhead dominates, not kernels",
            slots=6,
            calls=5_000,
            batch=1,
            smoke=(2, 400, 1),
            # The result cache fills and requests slow by a fifth over
            # the first four rounds; the timed rounds start level.
            warmup=4,
        ),
        Workload(
            "workers-road",
            "road",
            "workers",
            "1-edge cut makes shard compute negligible: region split, framed "
            "codec, pipe round trip and shared-memory delta sync are the cost",
            slots=6,
            calls=12,
            batch=1024,
            smoke=(2, 3, 64),
        ),
        Workload(
            "sockets-road",
            "road",
            "sockets",
            "the workers-road event stream through the TCP replica transport: "
            "a like-for-like row for merging or cutting a runtime",
            slots=6,
            calls=12,
            batch=1024,
            smoke=(2, 3, 64),
        ),
        Workload(
            "workers-grid",
            "grid",
            "workers",
            "wide boundary: source/target fans, overlay block and min-plus "
            "combine dominate and each flush ships large label deltas",
            slots=6,
            calls=3,
            batch=128,
            smoke=(2, 2, 32),
        ),
    )
}

#: Bounds: three times the widest run-to-run spread (interquartile range
#: over median across ten seeds) seen on any workload when the benchmark
#: was defined -- 6.2 % over the five replay metrics, 2.9 % for memory --
#: rounded up; ``setup_s``, which a run can repeat only three times,
#: carries the driver's maximum.
END_TO_END = [
    Metric(
        "setup_s", "s", "lower", 0.25,
        "index or sharded build + runtime/worker start + frontend start, up "
        "to the first answered query, at the reference speed; best of the "
        "run's set-ups",
    ),
    Metric(
        "replay_s", "s", "lower", 0.20,
        "wall time of the timed rounds at the reference speed",
    ),
    Metric(
        "query_pairs_per_s", "1/s", "higher", 0.20,
        "pairs answered / time inside query calls (position wall time on "
        "serve-road, where calls overlap), at the reference speed",
    ),
    Metric(
        "query_call_p50_ms", "ms", "lower", 0.20,
        "one distances call, or one awaited distance on serve-road: median "
        "per position, then over the positions, at the reference speed",
    ),
    Metric(
        "update_changes_per_s", "1/s", "higher", 0.20,
        "changes applied / time from submit to visible, at the reference speed",
    ),
    Metric(
        "update_visible_p50_ms", "ms", "lower", 0.20,
        "index.update, submit_many+flush, or awaited update(): median over "
        "the positions, at the reference speed",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.10,
        "parent peak RSS + largest child peak, read after close()",
    ),
    Metric(
        "index_mb", "MB", "lower", 0.01,
        "label + shortcut + hierarchy bytes from stats(), summed over shards "
        "and overlay; repeats exactly",
    ),
]

_SETUP = "setup_s on all workloads"
_CORE_QUERY = (
    "query_pairs_per_s, query_call_p50_ms on core-grid; flat on serve-road"
)
_MAINT = (
    "update_changes_per_s, update_visible_p50_ms on core-grid and "
    "workers-grid; small on the road workloads"
)
_TRANSPORT = (
    "query_pairs_per_s on workers-road/sockets-road; flat on workers-grid"
)
_LATER = "none yet (kept for a structural or cold-start workload)"


def _layer(layer: str, moves: str, *rows: tuple[str, str, str]) -> list[LayerMetric]:
    return [LayerMetric(name, unit, better, layer, moves) for name, unit, better in rows]


PER_LAYER = [
    *_layer(
        "graph.generators", _SETUP,
        ("graph.gen_s", "s", "lower"),
    ),
    *_layer(
        "partition / hierarchy.contraction / labelling.build", _SETUP,
        ("partition.build_s", "s", "lower"),
        ("contraction.build_s", "s", "lower"),
        ("labelling.build_s", "s", "lower"),
    ),
    *_layer(
        "sharding.build / sharding.overlay", _SETUP,
        ("sharding.partition_s", "s", "lower"),
        ("sharding.shard_build_s", "s", "lower"),
        ("sharding.overlay_build_s", "s", "lower"),
    ),
    *_layer(
        "service.workers / service.socket_runtime", _SETUP,
        ("runtime.spawn_s", "s", "lower"),
    ),
    *_layer(
        "hierarchy.query_hierarchy / labelling.query / core.index", _CORE_QUERY,
        ("lca.us_per_pair", "us", "lower"),
        ("lca.mean_k", "count", "lower"),
        ("gather.us_per_pair", "us", "lower"),
        ("gather.single_us", "us", "lower"),
        ("facade.us_per_pair", "us", "lower"),
    ),
    *_layer(
        "labelling.maintenance_kernels / hierarchy.csr", _MAINT,
        ("maintenance.increase_ms_per_change", "ms", "lower"),
        ("maintenance.decrease_ms_per_change", "ms", "lower"),
        ("maintenance.shortcuts_changed_per_change", "count", "lower"),
        ("maintenance.labels_changed_per_change", "count", "lower"),
        ("maintenance.entries_processed_per_change", "count", "lower"),
    ),
    *_layer(
        "service.cache", "query_pairs_per_s on serve-road",
        ("cache.hit_rate", "ratio", "higher"),
        ("cache.hit_us_per_pair", "us", "lower"),
        ("cache.invalidated", "count", "lower"),
    ),
    *_layer(
        "service.service",
        "query_pairs_per_s / update_visible_p50_ms on serve-road and the "
        "road shard workloads; absent on core-grid",
        ("frontend.us_per_pair", "us", "lower"),
        ("flush.self_ms", "ms", "lower"),
    ),
    *_layer(
        "service.coalescer", "update_visible_p50_ms on serve-road",
        ("coalescer.submit_us_per_change", "us", "lower"),
        ("coalescer.net_share", "ratio", "lower"),
    ),
    *_layer(
        "service.async_frontend",
        "query_call_p50_ms, query_pairs_per_s on serve-road only",
        ("async.queue_wait_p50_ms", "ms", "lower"),
        ("async.merge_ratio", "ratio", "higher"),
        ("async.batches", "count", "lower"),
        ("async.shed", "count", "lower"),
    ),
    *_layer(
        "service.runtime / service.protocol / service.workers / "
        "service.socket_runtime",
        _TRANSPORT,
        ("runtime.batch_p50_ms", "ms", "lower"),
        ("runtime.inprocess_batch_p50_ms", "ms", "lower"),
        ("runtime.over_inprocess", "ratio", "higher"),
        ("transport.rtt_p50_ms", "ms", "lower"),
        ("codec.encode_us_per_pair", "us", "lower"),
        ("codec.decode_us_per_pair", "us", "lower"),
        ("codec.bytes_per_pair", "B", "lower"),
        ("scheduler.sub_batches_per_batch", "count", "lower"),
        ("scheduler.cross_share", "ratio", "lower"),
    ),
    *_layer(
        "service.runtime / service.workers / service.socket_runtime",
        "update_visible_p50_ms on workers-grid (delta bytes)",
        ("sync.apply_update_p50_ms", "ms", "lower"),
        ("sync.delta_bytes_per_flush", "B", "lower"),
        ("sync.republishes", "count", "lower"),
    ),
    *_layer(
        "sharding.engine",
        "query_pairs_per_s on workers-grid; flat on the road shard workloads",
        ("sharded.intra_us_per_pair", "us", "lower"),
        ("sharded.cross_us_per_pair", "us", "lower"),
        ("sharded.boundary_vertices", "count", "lower"),
        ("sharded.cut_edges", "count", "lower"),
    ),
    *_layer(
        "core.serialization / core.structural", _LATER,
        ("snapshot.save_s", "s", "lower"),
        ("snapshot.load_s", "s", "lower"),
        ("snapshot.mb", "MB", "lower"),
        ("structural.delete_ms_per_edge", "ms", "lower"),
        ("structural.insert_ms_per_edge", "ms", "lower"),
        ("structural.compact_ms", "ms", "lower"),
    ),
    *_layer(
        "whole run", "the end-to-end metric of the same name",
        ("tail.query_call_p95_ms", "ms", "lower"),
        ("tail.query_call_p99_ms", "ms", "lower"),
        ("tail.update_visible_p90_ms", "ms", "lower"),
        ("rss.parent_mb", "MB", "lower"),
        ("rss.child_mb", "MB", "lower"),
        ("generator.self_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ),
]

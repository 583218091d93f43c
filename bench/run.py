"""One benchmark run: set up, replay, check, and name every number."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from bench import layers
from bench.spec import (
    END_TO_END,
    PER_LAYER,
    PROFILES,
    SETUP_REPEATS,
    WORKLOADS,
    timed_rounds,
)
from bench.speed import Sampler
from bench.streams import make_stream
from bench.trace import SpanRecorder, self_times, timed_spans
from bench.workloads import (
    SHARDS,
    close_traced,
    make_graph,
    replay,
    set_up,
    traced_target,
)
from repro.core import DHLConfig
from repro.service import InProcessRuntime

__all__ = ["OUT", "ROOT", "contract_line", "machine_meta", "result_path", "run_workload"]

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: Largest accepted gap between the spans' self times and the traced
#: replay's wall time.
SELF_TIME_TOLERANCE = 0.05


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _numba_present() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def machine_meta() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": _numba_present(),
        "engine": DHLConfig().resolve_engine(),
        "commit": _commit(),
    }


def _graph_meta(kind: str, graph, backend) -> dict:
    meta = {
        "kind": kind,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "weight_sum": graph.total_weight(),
    }
    if hasattr(backend, "shards"):
        stats = backend.stats()
        meta.update(
            k=stats.k, boundary=stats.boundary_vertices, cut=stats.cut_edges
        )
    return meta


def _index_bytes(backend) -> int:
    stats = backend.stats()
    parts = [*stats.shards, stats.overlay] if hasattr(stats, "shards") else [stats]
    return sum(p.total_bytes for p in parts if p is not None)


def _rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0  # Linux reports KiB


def _percentile(values, p: float) -> float:
    return float(np.percentile(values, p))


def _clean(rows, slowness) -> np.ndarray:
    """Seconds per position at the reference speed.

    Each round's raw time is scaled by the machine's slowness over that
    position; the lower quartile over the rounds then drops what the
    probes did not catch (a stall inside the position is one-sided).
    """
    return np.percentile(np.asarray(rows) / np.asarray(slowness), 25, axis=0)


def _timings(rep) -> dict[str, float]:
    """The replay's timing metrics from its per-position measurements."""
    wall = _clean(rep.wall_s, rep.slowness)
    query = _clean(rep.query_s, rep.slowness)
    call_p50 = _clean(rep.call_p50_s, rep.slowness)
    burst = _clean(rep.burst_s, rep.slowness)
    return {
        "replay_s": len(rep.wall_s) * float(wall.sum()),
        "query_pairs_per_s": rep.pairs / float(query.sum()),
        "query_call_p50_ms": float(np.median(call_p50)) * 1e3,
        "update_changes_per_s": rep.changes / float(burst.sum()),
        "update_visible_p50_ms": float(np.median(burst)) * 1e3,
    }


def _end_to_end(rep, setups, index_mb: float) -> dict[str, float]:
    own, child = _rss_mb()
    return {
        "setup_s": min(s / slow for s, slow in setups),
        **_timings(rep),
        "peak_rss_mb": own + child,
        "index_mb": index_mb,
    }


def _build_layers(target, gen_s: float) -> dict[str, float]:
    stats = target.backend.stats()
    out = {"graph.gen_s": gen_s, "runtime.spawn_s": target.spawn_s}
    if hasattr(stats, "shards"):
        # Shards build in parallel: the slowest one is the critical path.
        parts = stats.shards
        out.update(
            {
                "sharding.partition_s": stats.partition_seconds,
                "sharding.shard_build_s": stats.build.total_seconds,
                "sharding.overlay_build_s": stats.overlay_seconds,
            }
        )
    else:
        parts = [stats]
    out["partition.build_s"] = max(p.partition_seconds for p in parts)
    out["contraction.build_s"] = max(p.contraction_seconds for p in parts)
    out["labelling.build_s"] = max(p.labelling_seconds for p in parts)
    return out


def _span_layers(rec, rep, traced_rep) -> dict[str, float]:
    """Layer numbers read off the traced replay's spans.

    Fails the run unless the self times of the serial timeline add up
    to the traced replay's wall time.
    """
    own = self_times(rec.spans)
    total = sum(own.values())
    gap = abs(total - traced_rep.replay_s) / traced_rep.replay_s
    if gap > SELF_TIME_TOLERANCE:
        raise RuntimeError(
            f"span self times sum to {total:.4f}s but the traced replay took "
            f"{traced_rep.replay_s:.4f}s ({gap:.1%} apart, limit "
            f"{SELF_TIME_TOLERANCE:.0%})"
        )
    print(
        f"# replay_s untraced {rep.replay_s:.4f} traced {traced_rep.replay_s:.4f}, "
        f"self times sum to {total:.4f}"
    )
    out = {
        "generator.self_s": own.get("round", 0.0)
        + own.get("op.query", 0.0)
        + own.get("op.update", 0.0),
        # both at the reference speed: the two replays are seconds apart
        "trace.overhead_share": _timings(traced_rep)["replay_s"]
        / _timings(rep)["replay_s"]
        - 1.0,
    }
    if "service.distances" in own:
        pairs = traced_rep.pairs * len(traced_rep.wall_s)
        out["frontend.us_per_pair"] = own["service.distances"] / pairs * 1e6
    flushes = timed_spans(rec.spans, "service.flush")
    if flushes:
        out["flush.self_ms"] = own["service.flush"] / len(flushes) * 1e3
        submit_s = sum(s.seconds for s in timed_spans(rec.spans, "service.submit_many"))
        out["coalescer.submit_us_per_change"] = (
            submit_s / (traced_rep.changes * len(traced_rep.wall_s)) * 1e6
        )
    applies = timed_spans(rec.spans, "runtime.apply_update")
    if applies:
        out["sync.apply_update_p50_ms"] = median(s.seconds for s in applies) * 1e3
    if traced_rep.queue_wait_s:
        waits = np.concatenate(traced_rep.queue_wait_s)
        out["async.queue_wait_p50_ms"] = _percentile(waits, 50) * 1e3
    return out


def _tails(rep) -> dict[str, float]:
    """Tail latencies, only where the sample carries the percentile."""
    out = {}
    calls = np.concatenate(rep.call_s)
    if len(calls) >= 1_000:
        out["tail.query_call_p95_ms"] = _percentile(calls, 95) * 1e3
        out["tail.query_call_p99_ms"] = _percentile(calls, 99) * 1e3
    bursts = np.ravel(rep.burst_s)
    if len(bursts) >= 100:
        out["tail.update_visible_p90_ms"] = _percentile(bursts, 90) * 1e3
    return out


def _traced_layers(workload, target, stream, rep, edges, seed, gen_s) -> dict:
    """The traced replay and the direct probes; every per-layer number."""
    rng = np.random.default_rng([seed, 0x7ACE])
    rec = SpanRecorder()
    traced = traced_target(target, rec)
    pool = target.runtime.pool_stats() if target.runtime is not None else None
    pool_before = pool.as_dict() if pool is not None else None
    try:
        traced_rep = replay(traced, stream, rec)
        if pool is not None:  # the traced replay's share, before probes add more
            pool_delta = {k: v - pool_before[k] for k, v in pool.as_dict().items()}
        out = _build_layers(target, gen_s)
        out.update(_tails(rep))
        out.update(_span_layers(rec, rep, traced_rep))
        rep.attempted += traced_rep.attempted + 1
        rep.failed += traced_rep.failed
        if traced_rep.checksum != rep.checksum:  # same stream, same answers
            rep.failed += 1
        backend = target.backend
        n = backend.graph.num_vertices
        sharded = hasattr(backend, "shards")
        if traced.service is not None:
            service = traced.service.inner
            coalescer = service.stats().coalescer
            applied = (
                coalescer.submitted
                - coalescer.merged_duplicates
                - coalescer.noops_dropped
            )
            out["coalescer.net_share"] = applied / max(1, coalescer.submitted)
            out.update(layers.cache_probe(service, n, rng))
        if traced.frontend is not None:
            front = traced.frontend.frontend_stats()
            out["async.merge_ratio"] = front.merge_ratio
            out["async.batches"] = float(front.batches)
            out["async.shed"] = float(front.shed_requests)
        if workload.path != "core":
            first = stream.rounds[stream.warmup]
            queries = [call for p in first.positions for call in p.calls()]
            if workload.path == "async":  # single requests: regroup into batches
                queries = [
                    queries[i : i + layers.KERNEL_BATCH]
                    for i in range(0, len(queries), layers.KERNEL_BATCH)
                ]
            runtime = target.runtime or InProcessRuntime(backend)
            if pool is not None:
                out.update(layers.pool_counters(pool_delta))
            if sharded:
                region = backend.shard_vertices[0]
                intra_pair = (int(region[0]), int(region[-1]))
            else:
                intra_pair = (0, n - 1)
            out.update(layers.runtime_probe(runtime, backend, queries, intra_pair))
            if sharded:
                out.update(layers.codec_probe(workload.batch // 2, rng))
                out.update(layers.sharded_probe(backend, queries))
        kernel_index = backend.shards[0] if sharded else backend
        out.update(layers.kernel_probe(kernel_index, rng))
        out.update(layers.maintenance_probe(backend, edges, rng))
        if workload.path == "core":
            out.update(layers.snapshot_probe(backend, OUT / f"tmp-{os.getpid()}"))
            out.update(layers.structural_probe(backend, edges, rng))
    finally:
        close_traced(traced)
    rec.write_jsonl(OUT / f"trace-{workload.name}.jsonl")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    """Run one workload in this process; returns the full result record."""
    workload = WORKLOADS[name]
    sizes = workload.smoke if profile == "smoke" else (
        workload.slots, workload.calls, workload.batch
    )
    rounds = timed_rounds(seconds)

    t0 = perf_counter()
    graph = make_graph(workload.graph, profile)
    gen_s = perf_counter() - t0
    edges = sorted(graph.edges())
    base_weight = graph.total_weight()

    # The untraced run sets up SETUP_REPEATS times, back to back, and
    # keeps the last; a sampler measures the machine during each. The
    # sharded set-ups build in two processes that get in each other's
    # way on some tries and not on others (2.1-3.5 s or 4.2-6.0 s on
    # workers-grid), so setup_s is the best try, not the middle one.
    setups = []
    for left in reversed(range(1 if trace else SETUP_REPEATS)):
        with Sampler() as sampler:
            target, setup_s = set_up(workload, graph.copy())
        setups.append((setup_s, sampler.slowness))
        if left:
            target.close()
    try:
        backend = target.backend
        stream = make_stream(
            workload, sizes, graph.num_vertices, edges, seed, rounds,
            region_of=getattr(backend, "region_of", None),
            cut_edges=getattr(getattr(backend, "partition", None), "cut_edges", None),
        )
        # Frozen, the generator's objects cost the program's garbage
        # collector (here and in forked children) nothing to walk past.
        gc.collect()
        gc.freeze()
        rep = replay(target, stream)
        index_mb = _index_bytes(backend) / 1e6
        graph_meta = _graph_meta(workload.graph, graph, backend)
        layer_values = (
            _traced_layers(workload, target, stream, rep, edges, seed, gen_s)
            if trace
            else None
        )
        rep.attempted += 1  # every stream ends with all weights restored
        if backend.graph.total_weight() != base_weight:
            rep.failed += 1
    finally:
        target.close()
        gc.unfreeze()

    if trace:
        own, child = _rss_mb()
        layer_values.update({"rss.parent_mb": own, "rss.child_mb": child})
        # A layer that is not on this workload's path has no entry.
        values = {
            m.name: float(layer_values[m.name])
            for m in PER_LAYER
            if m.name in layer_values
        }
    else:
        values = _end_to_end(rep, setups, index_mb)
    units = {m.name: m.unit for m in [*END_TO_END, *PER_LAYER]}
    return {
        "workload": name,
        "trace": trace,
        "meta": {
            **machine_meta(),
            "seed": seed,
            "profile": profile,
            "seconds": seconds,
            "rounds": rounds,
            "shards": SHARDS if workload.path in ("workers", "sockets") else 0,
            "graph_sizes": PROFILES[profile],
            "slots_calls_batch": list(sizes),
            "graph": graph_meta,
            "stream": stream.fingerprint,
        },
        "checksum": f"{rep.checksum:08x}",
        "correct": rep.failed == 0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "claim": None,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in values.items()
        },
        # What the timing metrics were computed from: raw seconds and
        # the machine's slowness per round x position and per set-up.
        "raw": {
            "wall_s": rep.wall_s,
            "query_s": rep.query_s,
            "call_p50_s": rep.call_p50_s,
            "burst_s": rep.burst_s,
            "slowness": rep.slowness,
            "setups": setups,
        },
    }


def contract_line(result: dict) -> str:
    """The driver's result object: exactly four keys, one line.

    The driver wants every per-layer name on every traced run and a
    number for each, so here -- and only here -- a layer that is not on
    the workload's path reads 0; the record and the table leave it out.
    """
    metrics = dict(result["metrics"])
    if result["trace"]:
        metrics = {
            m.name: metrics.get(m.name, {"value": 0.0, "unit": m.unit})
            for m in PER_LAYER
        }
    return json.dumps(
        {**{key: result[key] for key in ("correct", "attempted", "failed")},
         "metrics": metrics}
    )


def result_path(name: str, seed: int, trace: bool) -> Path:
    return OUT / f"result-{name}-seed{seed}{'-trace' if trace else ''}.json"


def main(name: str, seed: int, seconds: float, trace: bool, profile: str) -> int:
    result = run_workload(name, seed, seconds, trace, profile)
    path = result_path(name, seed, trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))
    print(f"# {name} seed={seed} profile={profile} trace={int(trace)}")
    print(f"# checksum {result['checksum']} stream {result['meta']['stream']}")
    for m in PER_LAYER if trace else END_TO_END:
        if m.name in result["metrics"]:
            print(f"{m.name:<44} {result['metrics'][m.name]['value']:>16.6g} {m.unit}")
        else:
            print(f"{m.name:<44} {'n/a':>16}")
    print(contract_line(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1

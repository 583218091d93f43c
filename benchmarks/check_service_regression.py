"""CI perf-regression gate over ``BENCH_service.json``.

Compares a fresh quick-mode run of ``bench_service_throughput.py``
against the committed baseline. Vectorised throughput metrics
(``*_qps`` except the pure-interpreter ``per_pair_qps``) may not fall
below ``baseline / tolerance`` — the tolerance is deliberately generous
(1.5x by default, ``REPRO_BENCH_TOLERANCE`` to override) because CI
runners are noisy; the gate exists to catch order-of-kernel regressions
(an accidental padded copy, a per-pair fallback), not single-digit
jitter.

Key sets are compared *symmetrically*: a metric present in only one of
the two documents fails with an explicit message naming the missing
side, so a schema change (adding the sharded metrics, renaming a
kernel) surfaces as "update the committed baseline" instead of a
KeyError or a silently skipped check.

Machine-independent ratio invariants are also enforced:

* the zero-copy kernel must at least match the padded-matrix reference;
* the batch kernel must stay well above the per-pair loop;
* the parallel k=4 sharded build must stay at least at parity with the
  monolithic build (slack for scheduler noise);
* cross-shard queries may cost at most ``MAX_CROSS_SHARD_SLOWDOWN``
  times the monolithic kernel on the same pairs;
* a single intra-region update batch must touch exactly one shard;
* the worker-pool runtime must hold batch throughput against the
  in-process sharded backend on the same pairs — at least parity on a
  multi-core runner (that is the point of the worker pool), and within
  ``MIN_WORKER_POOL_RATIO_SINGLE_CORE`` on a single-core runner, where
  only scheduling/IPC overhead is measurable (``meta.cpu_count`` in the
  current run decides which bound applies);
* a worker-pool maintenance flush must reach workers as shared-memory
  deltas: at least one delta sync, zero whole-buffer republishes;
* the socket-replica runtime must hold batch throughput against the
  in-process sharded backend on the same pairs (``REPRO_SOCKET_FLOOR``
  overrides; core-aware like the worker-pool gate), its failover drill
  must have counted at least one failover with updates riding inline
  deltas and zero republishes; its supervision drill must have
  respawned the killed replica (``socket_respawns``), and both
  recovery numbers stay under absolute ceilings —
  ``failover_recovery_ms`` (first post-kill batch,
  ``REPRO_FAILOVER_RECOVERY_CEILING_MS`` overrides) and
  ``respawn_downtime_ms`` (first seen dead until the replacement
  handshook — the skipped 2 s backoff window plus spawn + handshake,
  ``REPRO_RESPAWN_CEILING_MS`` overrides);
* the async frontend's concurrent burst must answer at least
  ``MIN_ASYNC_MICROBATCH_SPEEDUP`` times faster than the same burst
  awaited serially (the micro-batching win is the reason the frontend
  exists — a same-run ratio, machine independent), and its admission
  probe must have shed at least one request;
* the frontier-batched array maintenance engine must hold at least
  ``MIN_UPDATE_ENGINE_SPEEDUP`` times the scalar reference engine's
  batch-update throughput on the same machine (a same-run ratio, so it
  is machine independent), and the serving-layer flush latency may not
  regress past the committed baseline times the tolerance;
* the observability layer's enabled-metrics replay may cost at most
  ``MAX_OBSERVABILITY_OVERHEAD`` times the default null-stack replay of
  the same query batches (a same-run ratio) — the null-object design's
  zero-overhead-by-default promise, gated
  (``REPRO_OBS_OVERHEAD_CEILING`` overrides while recalibrating).

Usage::

    python benchmarks/check_service_regression.py CURRENT BASELINE
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 1.5
# The zero-copy kernel must not fall below the padded reference; a hair
# of slack absorbs scheduler noise on shared CI runners.
MIN_ZERO_COPY_OVER_PADDED = 1.0
MIN_ZERO_COPY_OVER_PER_PAIR = 3.0
# The k=4 partition-parallel build beats the monolithic one comfortably
# (four small builds undercut one big build even serially); 0.8 leaves
# noise slack while still catching a sharded build-path regression.
MIN_SHARDED_BUILD_SPEEDUP = 0.8
# Cross-shard queries pay boundary fans plus the overlay combine — in
# practice ~3.5x the monolithic kernel on the same pairs. The bound is
# a same-machine ratio, so it is gated tightly enough to catch a lost
# fan dedup or an uncached overlay block (each worth >3x on its own).
MAX_CROSS_SHARD_SLOWDOWN = 10.0
# Worker-pool vs in-process sharded throughput on the same cross-region
# pairs. With >= MULTI_CORE_THRESHOLD cores the k worker processes
# genuinely overlap and must at least hold parity with the single GIL
# (0.9 leaves slack for runner noise; REPRO_WORKER_POOL_FLOOR overrides
# it while recalibrating). The parity floor only *arms* once the
# committed baseline itself was recorded on a multi-core machine —
# until then it has no validated reference and the gate applies the
# overhead floor with a printed recalibration notice instead of
# hard-failing on an untested branch. On a single core the worker
# processes timeshare and the ratio only measures scheduling overhead —
# in practice ~0.8, so 0.5 still catches a lost sub-batch aggregation
# or a per-group round-trip regression (each worth ~2x on its own).
# The array engine replaces per-entry heap pops with per-round numpy
# reductions; on the quick profile's batch sizes it measures ~5x the
# reference. 3x leaves runner-noise slack while still catching a lost
# vectorised path (falling back to scalar work is worth far more).
MIN_UPDATE_ENGINE_SPEEDUP = 3.0
# Enabled-registry replay over null-stack replay on identical batches.
# Per 512-pair batch the live stack adds a few counter increments and
# one histogram bisect against ~ms of kernel work, so the true ratio
# sits at ~1.0x; 1.05 catches an accidental hot-path allocation (a
# per-query trace object, an unconditional snapshot) without tripping
# on runner noise, since both sides are best-of-N minima from the same
# process.
MAX_OBSERVABILITY_OVERHEAD = float(
    os.environ.get("REPRO_OBS_OVERHEAD_CEILING", 1.05)
)
MULTI_CORE_THRESHOLD = 4
MIN_WORKER_POOL_RATIO_MULTI_CORE = float(
    os.environ.get("REPRO_WORKER_POOL_FLOOR", 0.9)
)
MIN_WORKER_POOL_RATIO_SINGLE_CORE = 0.5
# Socket replicas pay TCP framing + codec copies on top of the worker
# pool's scheduling, but amortise them over whole sub-batches: measured
# ~0.85x the in-process sharded kernel on the quick profile's 20k-pair
# batches on a multi-core machine. 0.5 catches a lost batch fold (per
# sub-query round trips are worth far more than 2x) without tripping on
# runner noise; on a single core the replicas timeshare behind the
# framing cost, so only a sanity floor applies.
MIN_SOCKET_RATIO_MULTI_CORE = float(os.environ.get("REPRO_SOCKET_FLOOR", 0.5))
MIN_SOCKET_RATIO_SINGLE_CORE = 0.1
# The async frontend's one justification: a concurrent burst of
# single-pair awaits folds into whole scheduler batches. Measured ~9x
# over the serial-await loop on the quick profile; 2.0 is the
# acceptance floor — below it the dispatcher is no longer folding
# (every await paying its own executor round trip reads as ~1x).
MIN_ASYNC_MICROBATCH_SPEEDUP = float(os.environ.get("REPRO_ASYNC_FLOOR", 2.0))
# The insert fast path extends the CSR slot store and runs one seeded
# decrease sweep; the fallback tier re-contracts H_U and relabels the
# whole index. On the quick profile the measured gap is well over an
# order of magnitude; 5x is the acceptance floor — below it the fast
# path has degenerated into (or is being bypassed for) a rebuild.
MIN_INSERT_FASTPATH_RATIO = float(os.environ.get("REPRO_FASTPATH_FLOOR", 5.0))
# Recovery ceilings for the socket-replica drills, milliseconds. Both
# are absolute wall-clock numbers (the failover is one batch paying the
# dead-connection discovery + retry; the respawn is the drill's 2 s
# backoff window plus one process spawn + spec handshake), so the
# ceilings are loose enough for a loaded CI runner but still catch a
# recovery path degenerating into a timeout wait (the 30s request
# deadline is well above either ceiling). Override while recalibrating
# on a slow runner.
MAX_FAILOVER_RECOVERY_MS = float(
    os.environ.get("REPRO_FAILOVER_RECOVERY_CEILING_MS", 10_000.0)
)
MAX_RESPAWN_DOWNTIME_MS = float(
    os.environ.get("REPRO_RESPAWN_CEILING_MS", 10_000.0)
)


def _metrics(doc: dict, label: str) -> dict:
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise SystemExit(
            f"ERROR {label}: no 'metrics' object — not a quick-mode "
            "BENCH_service.json?"
        )
    return metrics


def _require(metrics: dict, key: str, failures: list[str]) -> float | None:
    value = metrics.get(key)
    if value is None:
        failures.append(
            f"{key}: missing from current run — bench and gate disagree on "
            "the metric schema"
        )
    return value


def check(current: dict, baseline: dict, tolerance: float) -> list[str]:
    failures: list[str] = []
    cur = _metrics(current, "current")
    base = _metrics(baseline, "baseline")

    cur_qps = {k for k in cur if k.endswith("_qps")}
    base_qps = {k for k in base if k.endswith("_qps")}
    for key in sorted(base_qps - cur_qps):
        failures.append(
            f"{key}: in baseline but missing from current run — the bench "
            "dropped a metric; update benchmarks/BENCH_service.json if "
            "intentional"
        )
    for key in sorted(cur_qps - base_qps):
        failures.append(
            f"{key}: in current run but missing from baseline — regenerate "
            "the committed benchmarks/BENCH_service.json to cover it"
        )

    for key in sorted(base_qps & cur_qps):
        # The scalar loop is pure interpreter work — the most
        # machine-sensitive number of the set and not a serving path.
        # Its regressions surface through zero_copy_over_per_pair below.
        if key == "per_pair_qps":
            continue
        reference = base[key]
        value = cur[key]
        floor = reference / tolerance
        if value < floor:
            failures.append(
                f"{key}: {value:,.0f} qps < floor {floor:,.0f} "
                f"(baseline {reference:,.0f} / tolerance {tolerance})"
            )

    ratio = _require(cur, "zero_copy_over_padded", failures)
    if ratio is not None and ratio < MIN_ZERO_COPY_OVER_PADDED:
        failures.append(
            f"zero_copy_over_padded: {ratio} < {MIN_ZERO_COPY_OVER_PADDED} "
            "(flat-store kernel slower than the padded-matrix reference)"
        )
    speedup = _require(cur, "zero_copy_over_per_pair", failures)
    if speedup is not None and speedup < MIN_ZERO_COPY_OVER_PER_PAIR:
        failures.append(
            f"zero_copy_over_per_pair: {speedup} < "
            f"{MIN_ZERO_COPY_OVER_PER_PAIR} "
            "(batch kernel barely beats the scalar loop)"
        )
    build_speedup = _require(cur, "sharded_build_speedup", failures)
    if build_speedup is not None and build_speedup < MIN_SHARDED_BUILD_SPEEDUP:
        failures.append(
            f"sharded_build_speedup: {build_speedup} < "
            f"{MIN_SHARDED_BUILD_SPEEDUP} "
            "(partition-parallel shard build no longer beats monolithic)"
        )
    slowdown = _require(cur, "cross_shard_slowdown", failures)
    if slowdown is not None and slowdown > MAX_CROSS_SHARD_SLOWDOWN:
        failures.append(
            f"cross_shard_slowdown: {slowdown} > {MAX_CROSS_SHARD_SLOWDOWN} "
            "(cross-shard routing overhead drifted too far from the "
            "monolithic kernel)"
        )
    touched = _require(cur, "update_touched_shards", failures)
    if touched is not None and touched != 1:
        failures.append(
            f"update_touched_shards: {touched} != 1 "
            "(an intra-region update leaked outside its owning shard)"
        )

    fastpath_ratio = _require(cur, "insert_fastpath_ratio", failures)
    if fastpath_ratio is not None and fastpath_ratio < MIN_INSERT_FASTPATH_RATIO:
        failures.append(
            f"insert_fastpath_ratio: {fastpath_ratio} < "
            f"{MIN_INSERT_FASTPATH_RATIO} "
            "(frontier-kernel insert fast path no longer beats the "
            "fallback rebuild tier)"
        )
    for key in ("structural_batch_pairs_per_s", "compaction_ms"):
        _require(cur, key, failures)

    engine_ratio = _require(cur, "update_array_over_reference", failures)
    if engine_ratio is not None and engine_ratio < MIN_UPDATE_ENGINE_SPEEDUP:
        failures.append(
            f"update_array_over_reference: {engine_ratio} < "
            f"{MIN_UPDATE_ENGINE_SPEEDUP} "
            "(array maintenance engine lost its batch-update advantage "
            "over the scalar reference)"
        )
    update_tp = _require(cur, "update_throughput_pairs_per_s", failures)
    base_update_tp = base.get("update_throughput_pairs_per_s")
    if update_tp is not None and base_update_tp is not None:
        floor = base_update_tp / tolerance
        if update_tp < floor:
            failures.append(
                f"update_throughput_pairs_per_s: {update_tp:,.0f} < floor "
                f"{floor:,.0f} (baseline {base_update_tp:,.0f} / "
                f"tolerance {tolerance})"
            )
    obs_ratio = _require(cur, "observability_overhead_ratio", failures)
    if obs_ratio is not None and obs_ratio > MAX_OBSERVABILITY_OVERHEAD:
        failures.append(
            f"observability_overhead_ratio: {obs_ratio} > "
            f"{MAX_OBSERVABILITY_OVERHEAD} "
            "(the enabled metrics stack drags the query hot path; the "
            "disabled default must stay zero-overhead)"
        )
    flush_ms = _require(cur, "flush_latency_ms", failures)
    base_flush_ms = base.get("flush_latency_ms")
    if flush_ms is not None and base_flush_ms is not None:
        ceiling = base_flush_ms * tolerance
        if flush_ms > ceiling:
            failures.append(
                f"flush_latency_ms: {flush_ms} > ceiling {ceiling:.3f} "
                f"(baseline {base_flush_ms} * tolerance {tolerance})"
            )

    cores = int(current.get("meta", {}).get("cpu_count") or 1)
    baseline_cores = int(baseline.get("meta", {}).get("cpu_count") or 1)
    pool_ratio = _require(cur, "worker_pool_over_inprocess", failures)
    multi_core = (
        cores >= MULTI_CORE_THRESHOLD and baseline_cores >= MULTI_CORE_THRESHOLD
    )
    pool_floor = (
        MIN_WORKER_POOL_RATIO_MULTI_CORE
        if multi_core
        else MIN_WORKER_POOL_RATIO_SINGLE_CORE
    )
    if cores >= MULTI_CORE_THRESHOLD and not multi_core:
        print(
            f"NOTE worker-pool parity floor not armed: this runner has "
            f"{cores} cores but the committed baseline was recorded on "
            f"{baseline_cores}; regenerate benchmarks/BENCH_service.json "
            "on a multi-core machine to arm the "
            f"{MIN_WORKER_POOL_RATIO_MULTI_CORE} parity gate "
            f"(measured worker_pool_over_inprocess: {pool_ratio})"
        )
    if pool_ratio is not None and pool_ratio < pool_floor:
        failures.append(
            f"worker_pool_over_inprocess: {pool_ratio} < {pool_floor} "
            f"on a {cores}-core runner (worker-pool batch scheduling "
            "lost too much to the in-process sharded backend)"
        )
    republishes = _require(cur, "worker_republishes", failures)
    if republishes is not None and republishes != 0:
        failures.append(
            f"worker_republishes: {republishes} != 0 "
            "(a maintenance flush re-copied whole label buffers instead "
            "of shipping shared-memory deltas)"
        )
    delta_syncs = _require(cur, "worker_delta_syncs", failures)
    if delta_syncs is not None and delta_syncs < 1:
        failures.append(
            f"worker_delta_syncs: {delta_syncs} < 1 "
            "(the maintenance probe never reached the workers)"
        )

    socket_qps = _require(cur, "socket_cross_qps", failures)
    sharded_qps = cur.get("sharded_cross_qps")
    if socket_qps is not None and sharded_qps:
        socket_ratio = socket_qps / sharded_qps
        socket_floor = (
            MIN_SOCKET_RATIO_MULTI_CORE
            if multi_core
            else MIN_SOCKET_RATIO_SINGLE_CORE
        )
        if socket_ratio < socket_floor:
            failures.append(
                f"socket_cross_qps/sharded_cross_qps: {socket_ratio:.3f} < "
                f"{socket_floor} on a {cores}-core runner (the TCP replica "
                "pool lost its batch fold — per-sub-query round trips?)"
            )
    socket_failovers = _require(cur, "socket_failovers", failures)
    if socket_failovers is not None and socket_failovers < 1:
        failures.append(
            f"socket_failovers: {socket_failovers} < 1 "
            "(the replica-kill drill never triggered a failover)"
        )
    socket_respawns = _require(cur, "socket_respawns", failures)
    if socket_respawns is not None and socket_respawns < 1:
        failures.append(
            f"socket_respawns: {socket_respawns} < 1 "
            "(the supervision poll never respawned the killed replica)"
        )
    recovery_ms = _require(cur, "failover_recovery_ms", failures)
    if recovery_ms is not None and recovery_ms > MAX_FAILOVER_RECOVERY_MS:
        failures.append(
            f"failover_recovery_ms: {recovery_ms} > "
            f"{MAX_FAILOVER_RECOVERY_MS} (the first post-kill batch stalled "
            "— failover is waiting on a timeout instead of failing fast; "
            "REPRO_FAILOVER_RECOVERY_CEILING_MS overrides)"
        )
    downtime_ms = _require(cur, "respawn_downtime_ms", failures)
    if downtime_ms is not None and downtime_ms > MAX_RESPAWN_DOWNTIME_MS:
        failures.append(
            f"respawn_downtime_ms: {downtime_ms} > {MAX_RESPAWN_DOWNTIME_MS} "
            "(a supervised respawn took too long to spawn and handshake; "
            "REPRO_RESPAWN_CEILING_MS overrides)"
        )
    socket_deltas = _require(cur, "socket_delta_syncs", failures)
    if socket_deltas is not None and socket_deltas < 1:
        failures.append(
            f"socket_delta_syncs: {socket_deltas} < 1 "
            "(the maintenance probe never reached the replicas inline)"
        )
    socket_repub = _require(cur, "socket_republishes", failures)
    if socket_repub is not None and socket_repub != 0:
        failures.append(
            f"socket_republishes: {socket_repub} != 0 "
            "(a maintenance flush re-shipped whole label buffers to the "
            "replicas instead of an inline delta)"
        )

    async_speedup = _require(cur, "async_microbatch_over_serial", failures)
    if async_speedup is not None and async_speedup < MIN_ASYNC_MICROBATCH_SPEEDUP:
        failures.append(
            f"async_microbatch_over_serial: {async_speedup} < "
            f"{MIN_ASYNC_MICROBATCH_SPEEDUP} "
            "(the async dispatcher stopped folding concurrent awaits into "
            "scheduler batches)"
        )
    shed = _require(cur, "async_shed_count", failures)
    if shed is not None and shed < 1:
        failures.append(
            f"async_shed_count: {shed} < 1 "
            "(admission control admitted an unbounded backlog)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path, help="fresh BENCH_service.json")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE)),
    )
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())
    failures = check(current, baseline, args.tolerance)

    print(f"baseline : {baseline.get('metrics')}")
    print(f"current  : {current.get('metrics')}")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print(f"OK — within {args.tolerance}x of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

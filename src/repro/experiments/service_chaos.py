"""Deterministic chaos drill for the fault-tolerant serving plane.

Every fault in this scenario is scripted — a :class:`FaultPlan` keyed
by request counters, a fake supervision clock advanced by hand, and
hard process kills at known round-robin positions — so the drill is
exactly reproducible in CI: no wall-clock races, no random kills, no
sleeps. The contract it certifies, per dataset:

* **zero wrong answers** — every distance the runtime serves (before,
  during, and after the chaos) equals the authoritative parent index;
* **sheds only inside breaker-open windows** — pairs are dropped with
  :class:`~repro.exceptions.PartialResultError` only while every
  replica of their shard is down and the shard's breaker is open;
* **every killed replica comes back** — the supervisor respawns each
  dead slot (fresh incarnation, handshake at the current epoch) and
  the shard's breaker walks open → half-open → closed on the first
  served request;
* **bounded recovery** — failover and respawn downtime stay under a
  loose ceiling (the tight gates live in the benchmark checker);
* **stale rejoiners heal** — a replica holding an old epoch resolves
  through the ``StaleReply`` → republish → retry path mid-request;
* **torn snapshots are refused** — a crash-corrupted on-disk snapshot
  fails to load with :class:`~repro.exceptions.SnapshotCorruptionError`
  instead of serving silently wrong labels.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import DHLConfig
from repro.core.serialization import verify_snapshot
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import PartialResultError, SnapshotCorruptionError
from repro.experiments.context import ExperimentContext
from repro.experiments.report import ascii_table
from repro.service import SocketShardRuntime
from repro.service.faults import FaultPlan

__all__ = ["service_chaos_scenarios"]

_K = 2
_REPLICAS = 2
_SUPERVISE_INTERVAL = 60.0
#: Loose sanity ceiling, milliseconds. The regression gates in
#: ``benchmarks/check_service_regression.py`` are the tight ones.
_RECOVERY_CEILING_MS = 30_000.0


class _FakeClock:
    """Hand-advanced supervision clock: no real time passes in CI."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def _drill_pairs(sharded, count: int = 6):
    """``count`` intra-shard-0 pairs (the shard we kill) + ``count``
    intra-shard-1 pairs (the control group that must keep serving)."""
    lost_v = [int(v) for v in sharded.shard_vertices[0]]
    kept_v = [int(v) for v in sharded.shard_vertices[1]]
    count = min(count, len(lost_v) // 2, len(kept_v) // 2)
    lost = [(lost_v[i], lost_v[-1 - i]) for i in range(count)]
    kept = [(kept_v[i], kept_v[-1 - i]) for i in range(count)]
    return lost, kept


def _silent_kill(handle) -> None:
    """Kill the process without telling the parent-side handle."""
    handle.process.terminate()
    handle.process.join(10)


def _chaos_drill(graph, sharded) -> dict:
    lost, kept = _drill_pairs(sharded)
    batch = lost + kept
    clock = _FakeClock()
    # Request 0 of every replica is its health probe from the
    # construction-time supervision poll; the kill lands on replica
    # (0, 0)'s first *compute* request — the opening sub-batch.
    plan = FaultPlan().kill(0, 0, at_request=1)
    wrong = 0
    sheds_outside_open = 0
    shed_pairs = 0
    with SocketShardRuntime(
        sharded,
        replicas=_REPLICAS,
        degraded_mode="shed",
        clock=clock,
        supervise_interval=_SUPERVISE_INTERVAL,
        fault_plan=plan,
    ) as runtime:
        breaker = runtime._breakers[0]

        def served_exactly(pairs) -> int:
            got = runtime.distances(pairs)
            return int(np.sum(got != sharded.distances(pairs)))

        # Phase 1 — scripted kill mid-batch: the round-robin pick dies
        # on the wire, the sibling answers, nothing is lost.
        started = time.perf_counter()
        wrong += served_exactly(batch)
        failover_ms = (time.perf_counter() - started) * 1e3
        if not plan.exhausted:
            raise AssertionError("the scripted kill never fired")
        if runtime.stats.failovers < 1:
            raise AssertionError("the kill did not route through failover")

        # Phase 2 — total shard outage: the survivor dies silently, the
        # breaker opens, and shard-0 pairs shed while shard 1 serves.
        _silent_kill(runtime._groups[0][1])
        try:
            runtime.distances(batch)
        except PartialResultError as exc:
            if breaker.state != breaker.OPEN:
                sheds_outside_open += len(exc.shed)
            shed_pairs += len(exc.shed)
            if exc.open_shards != (0,):
                raise AssertionError(
                    f"expected shard 0 open, got {exc.open_shards}"
                )
            if sorted(int(i) for i in exc.shed) != list(range(len(lost))):
                raise AssertionError(
                    f"shed the wrong positions: {sorted(exc.shed)}"
                )
            got = np.asarray(exc.distances)
            if not np.all(np.isnan(got[: len(lost)])):
                raise AssertionError("shed pairs must be NaN, not numbers")
            wrong += int(
                np.sum(got[len(lost) :] != sharded.distances(kept))
            )
        else:
            raise AssertionError(
                "a full shard outage must raise PartialResultError"
            )

        # Phase 3 — supervised recovery: one poll marks the slots down
        # and schedules backoff, the next (past the deterministic
        # delay) respawns both; the breaker walks half-open → closed.
        clock.advance(_SUPERVISE_INTERVAL + 1.0)
        runtime.supervisor.poll()
        clock.advance(1.0)
        summary = runtime.supervisor.poll(force=True)
        if summary.get("respawned") != 2:
            raise AssertionError(f"expected 2 respawns, got {summary}")
        respawn_ms = max(runtime.supervisor.recovery_ms)
        if breaker.state != breaker.HALF_OPEN:
            raise AssertionError("respawn must move the breaker to probation")
        wrong += served_exactly(batch)
        if breaker.state != breaker.CLOSED:
            raise AssertionError("a served request must close the breaker")
        incarnations = sorted(h.incarnation for h in runtime._groups[0])
        if incarnations != [1, 1]:
            raise AssertionError(f"stale incarnations after respawn: "
                                 f"{incarnations}")

        # Phase 4 — a structural update lands on the fresh replicas,
        # then a fabricated missed broadcast heals through the
        # StaleReply → republish → retry path mid-request.
        u, v, w = next(
            (u, v, w)
            for u, v, w in graph.edges()
            if sharded.region_of[u] == 0 and sharded.region_of[v] == 0
        )
        runtime.apply_update([(u, v, float(max(1, round(2 * w))))])
        wrong += served_exactly(batch)
        before_resyncs = runtime.stats.resyncs
        runtime._epochs[0] += 1  # simulate a broadcast the shard missed
        wrong += served_exactly(lost)
        if runtime.stats.resyncs <= before_resyncs:
            raise AssertionError("the stale replica never resynced")

        stats = runtime.stats.as_dict()
    if wrong:
        raise AssertionError(f"{wrong} wrong answers during the chaos drill")
    if sheds_outside_open:
        raise AssertionError(
            f"{sheds_outside_open} pairs shed outside a breaker-open window"
        )
    for ms in (failover_ms, respawn_ms):
        if ms >= _RECOVERY_CEILING_MS:
            raise AssertionError(
                f"recovery took {ms:.0f} ms (ceiling "
                f"{_RECOVERY_CEILING_MS:.0f} ms)"
            )
    return {
        "kills": 2,
        "wrong_answers": wrong,
        "shed_pairs": shed_pairs,
        "sheds_outside_open_window": sheds_outside_open,
        "failover_recovery_ms": failover_ms,
        "respawn_downtime_ms": respawn_ms,
        "scheduler": stats,
    }


def _torn_snapshot_drill(sharded) -> dict:
    """Crash-corrupt an on-disk snapshot; the load must refuse it."""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        path = Path(tmp) / "snapshot"
        sharded.save(path)
        files_verified = verify_snapshot(path)
        victim = path / "shard_00" / "label_values.npy"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        victim.write_bytes(blob)
        try:
            ShardedDHLIndex.load(path)
        except SnapshotCorruptionError:
            detected = True
        else:
            detected = False
    if not detected:
        raise AssertionError(
            "a corrupted snapshot loaded silently instead of raising "
            "SnapshotCorruptionError"
        )
    return {"snapshot_files_verified": files_verified, "torn_detected": True}


def service_chaos_scenarios(ctx: ExperimentContext) -> dict:
    """Scripted replica kills, shed windows, respawns, torn snapshots."""
    rows = []
    raw: dict[str, dict] = {}
    config = DHLConfig(seed=ctx.seed)
    for name in ctx.datasets:
        graph = ctx.graph(name)
        sharded = ShardedDHLIndex.build(
            graph.copy(), k=_K, config=config, build_workers=ctx.workers
        )
        entry = _chaos_drill(graph, sharded)
        entry.update(_torn_snapshot_drill(sharded))
        raw[name] = entry
        scheduler = entry["scheduler"]
        rows.append(
            [
                name,
                str(entry["kills"]),
                str(scheduler["failovers"]),
                str(scheduler["respawns"]),
                str(scheduler["resyncs"]),
                str(entry["shed_pairs"]),
                str(entry["wrong_answers"]),
                f"{entry['respawn_downtime_ms']:.1f}",
            ]
        )
    text = ascii_table(
        [
            "dataset",
            "kills",
            "failovers",
            "respawns",
            "resyncs",
            "shed pairs",
            "wrong",
            "respawn ms",
        ],
        rows,
        title="Service chaos drill: scripted kills, breaker sheds, "
        f"supervised respawns (k={_K}, {_REPLICAS} replicas)",
    )
    return {
        "experiment": "service-chaos",
        "raw": raw,
        "rows": rows,
        "text": text,
    }

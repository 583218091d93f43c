"""What a spawned replica loads, and how a replica that never comes up fails.

A replica boots by unpickling :func:`repro.service.workers._replica_main`
(which imports :mod:`repro.service.workers`) and then the shard payload
of its :class:`~repro.service.protocol.SpecRequest`. Neither step may
load scipy (only the Delaunay generator and the Lanczos branch of
spectral bisection use it) or asyncio (only the async frontend does):
the import-set tests run that boot in a fresh interpreter and check
module sets, never wall-clock time.

A replica that dies before its handshake must surface as one typed
:class:`~repro.exceptions.ServiceRuntimeError` naming the shard, the
replica and the process's exit code, on both transports, whether it was
being started by the constructor or respawned by the supervisor.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.service.workers as workers_mod
from repro.exceptions import ServiceRuntimeError
from repro.graph.generators import delaunay_network
from repro.service import RetryPolicy
from tests.conftest import FakeClock, build_sharded, kill, shard_pairs

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Top-level packages a replica never runs.
UNUSED = ("scipy", "asyncio")


@pytest.fixture(scope="module")
def sharded():
    return build_sharded(delaunay_network(120, seed=33, style="city"))


def loaded_after(code: str) -> list[str]:
    """The :data:`UNUSED` modules a fresh interpreter holds after *code*."""
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules "
        f"if m.split('.')[0] in {UNUSED!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the replica's import set
# ---------------------------------------------------------------------------

def test_a_replica_boot_loads_neither_scipy_nor_asyncio(sharded, tmp_path):
    """Import the replica module, then unpickle a real shard payload and
    bind it to its labels the way a replica's handshake does."""
    values, offsets = sharded.shard_buffers(0)
    spec = tmp_path / "spec.pkl"
    spec.write_bytes(
        pickle.dumps((sharded.shard_worker_payload(0), values, offsets))
    )
    code = (
        "import pickle\n"
        "from repro.service import workers\n"
        "from repro.service.protocol import SpecRequest\n"
        f"payload, values, offsets = pickle.loads(open({str(spec)!r}, 'rb').read())\n"
        "reply = workers.ShardExecutor().setup(\n"
        "    SpecRequest(payload=payload), values, offsets\n"
        ")\n"
        f"assert reply.num_vertices == {sharded.shards[0].labels.num_vertices}\n"
    )
    assert loaded_after(code) == []


@pytest.mark.parametrize("package", ["repro.graph", "repro.core"])
def test_graph_and_core_packages_load_no_scipy(package):
    assert loaded_after(f"import {package}") == []


# ---------------------------------------------------------------------------
# a replica that dies before its handshake
# ---------------------------------------------------------------------------

def die_after_start(monkeypatch) -> None:
    """Make every replica started from now on die before it can dial."""
    start = workers_mod._ReplicaHandle.__init__

    def stillborn(self, *args, **kwargs):
        start(self, *args, **kwargs)
        self.process.kill()
        self.process.join()

    monkeypatch.setattr(workers_mod._ReplicaHandle, "__init__", stillborn)


def test_a_replica_dead_before_its_handshake_fails_construction_typed(
    transport, sharded, monkeypatch
):
    die_after_start(monkeypatch)
    with pytest.raises(ServiceRuntimeError) as info:
        transport(sharded, replicas=1)
    message = str(info.value)
    assert message.startswith(
        "shard 0 replica 0 failed to start (process exit code -9)"
    ), message
    assert info.value.__cause__ is not None


def test_a_respawn_dead_before_its_handshake_is_a_counted_failure(
    transport, sharded, monkeypatch
):
    pairs = shard_pairs(sharded, 1)
    expected = sharded.distances(pairs)
    clock = FakeClock()
    with transport(
        sharded, replicas=2, clock=clock, supervise_interval=1000.0,
        retry_policy=RetryPolicy(base_delay=0.05, jitter=0.0),
    ) as runtime:
        errors = []
        spawn = runtime._spawn

        def spy(slots):
            try:
                return spawn(slots)
            except Exception as exc:
                errors.append(exc)
                raise

        runtime._spawn = spy
        victim = runtime._groups[1][1]
        kill(victim)
        assert runtime.supervisor.poll(force=True)["timeouts"] == 1
        die_after_start(monkeypatch)
        clock.advance(1.0)
        assert runtime.supervisor.poll(force=True)["failed"] == 1
        assert runtime.stats.respawn_failures == 1
        (error,) = errors
        assert isinstance(error, ServiceRuntimeError)
        assert str(error).startswith(
            "shard 1 replica 1 failed to start (process exit code -9)"
        ), error

        # Replicas that boot again bring the slot back.
        monkeypatch.undo()
        clock.advance(10.0)
        assert runtime.supervisor.poll(force=True)["respawned"] == 1
        assert runtime._groups[1][1].incarnation == 1
        for _ in range(2):
            np.testing.assert_array_equal(runtime.distances(pairs), expected)


def test_an_unguarded_script_is_told_to_guard_its_start_up(tmp_path):
    """Spawn re-runs the main module in every replica: a script that
    starts a runtime at module level makes each replica try the same
    during its own bootstrap and die before its handshake. The error
    names the ``__main__`` guard that prevents it."""
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from repro.core.config import DHLConfig\n"
        "from repro.core.sharded import ShardedDHLIndex\n"
        "from repro.graph.generators import grid_network\n"
        "from repro.service import ShardWorkerRuntime\n"
        "graph = grid_network(6, 6, seed=1)\n"
        "index = ShardedDHLIndex.build(graph, k=2, config=DHLConfig(seed=0))\n"
        "with ShardWorkerRuntime(index, replicas=1):\n"
        "    pass\n"
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("repro.exceptions.ServiceRuntimeError: shard "), last
    assert "failed to start (process exit code 1)" in last, last
    assert 'guard runtime start-up with `if __name__ == "__main__":`' in last, last

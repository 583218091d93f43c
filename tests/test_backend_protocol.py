"""The ``DistanceBackend`` Protocol and the ``backend=`` entry point.

Satellite of the runtime-protocol redesign: every index family must
satisfy the one structural Protocol the service/runtime layer is typed
against, and :class:`DistanceService` must accept exactly one
unambiguous ``backend=`` argument — missing or bogus forms fail loud.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backend import DistanceBackend
from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_network
from repro.service.runtime import InProcessRuntime
from repro.service.service import DistanceService


@pytest.fixture(scope="module")
def graph():
    return grid_network(5, 5)


@pytest.fixture(scope="module")
def mono(graph):
    return DHLIndex.build(graph.copy(), DHLConfig(seed=0))


@pytest.fixture(scope="module")
def directed(graph):
    return DirectedDHLIndex.build(DiGraph.from_undirected(graph), DHLConfig(seed=0))


@pytest.fixture(scope="module")
def sharded(graph):
    return ShardedDHLIndex.build(graph.copy(), k=2, config=DHLConfig(seed=0))


# ---------------------------------------------------------------------------
# every index family satisfies the Protocol
# ---------------------------------------------------------------------------

def test_all_index_families_satisfy_the_protocol(mono, directed, sharded):
    for index in (mono, directed, sharded):
        assert isinstance(index, DistanceBackend), type(index).__name__


def test_monolithic_families_share_one_public_surface():
    """Both are the one index core; only the three one-plane
    conveniences (path unpacking, single-edge restore, vertex deletion)
    stay on the undirected index."""

    def methods(cls):
        return {
            name
            for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }

    assert methods(DHLIndex) - methods(DirectedDHLIndex) == {
        "shortest_path",
        "restore_edge",
        "delete_vertex",
    }
    assert methods(DirectedDHLIndex) <= methods(DHLIndex)
    # ... and neither re-implements what the core owns.
    for name in ("build", "update", "apply_batch", "compact", "save", "load", "verify"):
        assert name not in vars(DHLIndex) and name not in vars(DirectedDHLIndex)


def test_protocol_rejects_non_backends():
    assert not isinstance(object(), DistanceBackend)
    assert not isinstance(grid_network(2, 2), DistanceBackend)


def test_protocol_surface_is_uniform(mono, directed, sharded):
    """The shared surface behaves identically across families: same
    answers for the same undirected graph, same epoch discipline."""
    pairs = [(0, 24), (3, 17), (5, 5)]
    base = mono.distances(pairs)
    np.testing.assert_array_equal(directed.distances(pairs), base)
    np.testing.assert_array_equal(sharded.distances(pairs), base)
    for index in (mono, directed, sharded):
        assert index.epoch == 0
        assert index.graph.num_vertices == 25
        assert index.stats().label_entries > 0


# ---------------------------------------------------------------------------
# the service runs against the Protocol, not concrete classes
# ---------------------------------------------------------------------------

def test_directed_index_serves_behind_the_service(graph, directed, mono):
    """Directed indexes never worked behind DistanceService before the
    Protocol existed (the service reached for ``.engine``); now any
    backend does."""
    pairs = [(0, 12), (7, 20), (24, 0)]
    with DistanceService(directed) as service:
        np.testing.assert_array_equal(
            service.distances(pairs), mono.distances(pairs)
        )
        u, v, w = next(iter(graph.edges()))
        service.submit(u, v, w * 2.0)
        service.flush()
        assert service.index.epoch == 1
        assert service.stats().backend == "in-process/directed"


def test_runtime_backend_strings(mono, directed, sharded):
    assert InProcessRuntime(mono).backend == "in-process/monolithic"
    assert InProcessRuntime(directed).backend == "in-process/directed"
    assert InProcessRuntime(sharded).backend == "in-process/sharded"


# ---------------------------------------------------------------------------
# one entry point: backend=
# ---------------------------------------------------------------------------

def test_backend_accepts_index_or_runtime(mono):
    with DistanceService(mono) as service:
        assert service.index is mono
    runtime = InProcessRuntime(mono)
    with DistanceService(runtime) as service:
        assert service.runtime is runtime


def test_no_backend_is_an_error():
    with pytest.raises(TypeError, match="backend"):
        DistanceService()


def test_non_backend_object_is_an_error():
    with pytest.raises(ValueError, match="DistanceBackend"):
        DistanceService(backend=object())


def test_close_is_idempotent_across_runtimes(mono):
    service = DistanceService(mono)
    service.distance(0, 1)
    service.close()
    service.close()  # second close must be a no-op, not a crash
    with DistanceService(InProcessRuntime(mono)) as service:
        pass
    service.close()  # after context-manager exit too

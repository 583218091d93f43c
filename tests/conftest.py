"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.graph.generators import (
    delaunay_network,
    grid_network,
    random_connected_graph,
)
from repro.graph.graph import Graph
from repro.service import ShardWorkerRuntime, SocketShardRuntime
from tests.oracles.kernels import python_kernels

#: The shard runtime's two public names; the class is the transport choice.
TRANSPORTS = {"pipe": ShardWorkerRuntime, "tcp": SocketShardRuntime}


@pytest.fixture(params=list(TRANSPORTS))
def transport(request):
    """Run the test once per shard-runtime transport."""
    return TRANSPORTS[request.param]


@pytest.fixture(params=["c", "oracle"])
def on_kernels(request):
    """Run the test once on the C kernels and once with every kernel
    swapped for its Python oracle (:func:`python_kernels`), build
    included: the oracle the differential suites trust is held to the
    same checks as the code it judges."""
    if request.param == "c":
        yield request.param
    else:
        with python_kernels():
            yield request.param


class FakeClock:
    """Hand-advanced supervision clock: recovery drills without sleeps."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def build_sharded(graph: Graph, k: int = 2) -> ShardedDHLIndex:
    return ShardedDHLIndex.build(
        graph.copy(), k=k, config=DHLConfig(seed=0), build_workers=1
    )


def shard_pairs(sharded, sid, count=6):
    """Pairs with both endpoints inside one shard (only it is queried)."""
    vertices = [int(v) for v in sharded.shard_vertices[sid]]
    return [(vertices[i], vertices[-1 - i]) for i in range(count)]


def kill(handle) -> None:
    """Hard-kill a replica process without telling its parent-side handle."""
    handle.process.terminate()
    handle.process.join(10)


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # no POSIX shm directory on this platform
        return set()


@pytest.fixture(scope="session", autouse=True)
def leak_guard():
    """Fail the session if it leaves a shared-memory segment, a child
    process or a live thread behind — respawned replicas over shared
    segments are exactly where such a leak would hide, and the shard
    runtime talks to its replicas from the calling thread only."""
    segments = _shm_segments()
    children = set(multiprocessing.active_children())
    threads = set(threading.enumerate())
    yield
    leaked = sorted(_shm_segments() - segments)
    orphans = set(multiprocessing.active_children()) - children
    stray = [t for t in threading.enumerate() if t not in threads and t.is_alive()]
    assert not leaked and not orphans and not stray, (
        f"leaked /dev/shm segments {leaked}, child processes {orphans}, "
        f"threads {stray}"
    )


@pytest.fixture
def path_graph() -> Graph:
    """0 - 1 - 2 - 3 - 4 path with weights 1, 2, 3, 4."""
    g = Graph(5)
    for i in range(4):
        g.add_edge(i, i + 1, float(i + 1))
    return g


@pytest.fixture
def diamond_graph() -> Graph:
    """Two parallel routes of different lengths between 0 and 3."""
    g = Graph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 3, 1.0)
    g.add_edge(0, 2, 2.0)
    g.add_edge(2, 3, 2.0)
    return g


@pytest.fixture
def small_road() -> Graph:
    """A 300-vertex road-like network (Delaunay, fixed seed)."""
    return delaunay_network(300, seed=77)


@pytest.fixture
def small_grid() -> Graph:
    return grid_network(12, 14, seed=3)


@pytest.fixture
def medium_random() -> Graph:
    return random_connected_graph(120, extra_edges=90, seed=5)


@pytest.fixture
def small_index(small_road) -> DHLIndex:
    """DHL index over the 300-vertex road network (owned copy)."""
    return DHLIndex.build(small_road.copy(), DHLConfig(leaf_size=6, seed=0))


def directed_dijkstra(dg, source: int) -> list[float]:
    """Single-source distances over a :class:`DiGraph`'s arcs (test oracle)."""
    dist = [math.inf] * dg.num_vertices
    dist[source] = 0.0
    heap = [(0.0, source)]
    seen: set[int] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in seen:
            continue
        seen.add(v)
        for u, w in dg.out_neighbors(v).items():
            if d + w < dist[u]:
                dist[u] = d + w
                heapq.heappush(heap, (d + w, u))
    return dist


def all_pairs_reference(graph: Graph) -> np.ndarray:
    """Dense all-pairs distances via repeated Dijkstra (test oracle)."""
    from repro.baselines.dijkstra import dijkstra

    n = graph.num_vertices
    out = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        out[s] = dijkstra(graph, s)
    return out

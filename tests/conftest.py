"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.graph.generators import (
    delaunay_network,
    grid_network,
    random_connected_graph,
)
from repro.graph.graph import Graph


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


@pytest.fixture
def forced_compiled(monkeypatch):
    """Resolve ``engine="compiled"`` to the compiled sweeps even without numba.

    The kernels degrade to pure Python when numba is missing, so forcing
    the capability probe exercises the whole compiled path on every
    environment instead of letting it downgrade to ``array``.
    """
    import repro.labelling.compiled as compiled

    monkeypatch.setattr(compiled, "available", lambda: True)


def all_pairs_reference(graph: Graph) -> np.ndarray:
    """Dense all-pairs distances via repeated Dijkstra (test oracle)."""
    from repro.baselines.dijkstra import dijkstra

    n = graph.num_vertices
    out = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        out[s] = dijkstra(graph, s)
    return out

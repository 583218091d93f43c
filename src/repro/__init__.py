"""Dual-Hierarchy Labelling (DHL) for dynamic road networks.

A Python + numpy reproduction of *"Dual-Hierarchy Labelling: Scaling Up
Distance Queries on Dynamic Road Networks"* (Farhan, Koehler, Wang —
SIGMOD 2025), including the DHL index, its dynamic maintenance algorithms,
the DCH and IncH2H state-of-the-art baselines, a multilevel graph
partitioner, synthetic road-network datasets and an experiment harness
(``repro-experiments``) for every table and figure of the paper's
evaluation. The hot loops run in one C kernel file the package compiles
at first use (:mod:`repro.labelling.native`); a host without a C compiler
runs the pure-Python reference engine instead.

Quickstart::

    from repro import Graph, DHLIndex, delaunay_network

    g = delaunay_network(2_000, seed=7)
    index = DHLIndex.build(g)
    d = index.distance(0, 1999)
    index.increase([(u, v, 2 * w) for u, v, w in list(g.edges())[:10]])
"""

from __future__ import annotations

from typing import Any

__version__ = "1.0.0"

# Public names are re-exported lazily so that `import repro` stays cheap
# and subpackages can be used independently.
_EXPORTS = {
    "Graph": "repro.graph",
    "DiGraph": "repro.graph",
    "delaunay_network": "repro.graph",
    "grid_network": "repro.graph",
    "highway_network": "repro.graph",
    "random_connected_graph": "repro.graph",
    "DHLIndex": "repro.core",
    "DHLConfig": "repro.core",
    "IndexStats": "repro.core",
    "DirectedDHLIndex": "repro.core",
    "DistanceService": "repro.service",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(__all__)

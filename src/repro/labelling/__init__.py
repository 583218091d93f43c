"""Hierarchical labelling L: construction, queries and maintenance.

* :class:`HierarchicalLabelling` — the distance map ``gamma`` stored as one
  dense numpy array per vertex, indexed by ancestor rank ``tau``
  (Definitions 4.9-4.12).
* :mod:`repro.labelling.build` — top-down construction (Algorithm 1).
* :mod:`repro.labelling.query` — 2-hop distance queries through H_Q.
* :mod:`repro.labelling.driver` — the one maintenance driver: batch
  validation, seeding, stats and the engine table, over the two-sweep
  :class:`~repro.labelling.maintenance.Engine` contract (DH-U —
  Algorithms 2 + 3 — and DHL — Algorithms 4 + 5 — each for a whole
  mixed batch).
* :mod:`repro.labelling.native` — the default engine wherever a C
  compiler exists: the queries, the two sweeps and the build's FM and
  Algorithm 1 passes as loops of one C file, built at first use and
  called through ``ctypes``.
* :mod:`repro.labelling.maintenance` — the contract, the stats record
  and the paper-literal scalar reference engine: the differential-test
  oracle, and what a compiler-less host runs.
"""

from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.build import build_labelling
from repro.labelling.query import QueryEngine
from repro.labelling.paths import PathReconstructor
from repro.labelling.maintenance import Engine, MaintenanceStats
from repro.labelling.driver import (
    ENGINES,
    maintain,
    maintain_shortcuts,
)

__all__ = [
    "HierarchicalLabelling",
    "build_labelling",
    "QueryEngine",
    "PathReconstructor",
    "Engine",
    "MaintenanceStats",
    "ENGINES",
    "maintain",
    "maintain_shortcuts",
]

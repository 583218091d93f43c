"""Hierarchical labelling L: construction, queries and maintenance.

* :class:`HierarchicalLabelling` — the distance map ``gamma`` stored as one
  dense numpy array per vertex, indexed by ancestor rank ``tau``
  (Definitions 4.9-4.12).
* :mod:`repro.labelling.build` — top-down construction (Algorithm 1).
* :mod:`repro.labelling.query` — 2-hop distance queries through H_Q.
* :mod:`repro.labelling.driver` — the one maintenance driver: batch
  validation, seeding and stats around the two sweeps (DH-U —
  Algorithms 2 + 3 — and DHL — Algorithms 4 + 5 — each for a whole
  mixed batch).
* :mod:`repro.labelling.native` — where every algorithm runs: the
  queries, the two sweeps and the build's partitioner and Algorithm 1
  passes as loops of one C file, built at first use with the host's C
  compiler and called through ``ctypes``.
* :mod:`repro.labelling.maintenance` — the stats record and the marks
  the sweeps write.
"""

from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.build import build_labelling
from repro.labelling.query import QueryEngine
from repro.labelling.paths import PathReconstructor
from repro.labelling.maintenance import MaintenanceStats
from repro.labelling.driver import maintain, maintain_shortcuts

__all__ = [
    "HierarchicalLabelling",
    "build_labelling",
    "QueryEngine",
    "PathReconstructor",
    "MaintenanceStats",
    "maintain",
    "maintain_shortcuts",
]

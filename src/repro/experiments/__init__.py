"""Experiment harness regenerating every table and figure of the paper.

* :mod:`repro.experiments.workloads` — update batches, weight-multiplier
  sweeps, random and distance-stratified query sets (Section 7 protocol).
* :mod:`repro.experiments.measure` — timing helpers.
* :mod:`repro.experiments.tables` — Figure 1 summary table, Table 1
  (datasets), Table 2 (update times), Table 3 (query/size/construction).
* :mod:`repro.experiments.figures` — Figure 5 (weight sweep), Figure 6
  (distance-stratified queries), Figure 7 (batch scalability).
* :mod:`repro.experiments.verification` — every method against
  Dijkstra, static and after an update round trip.
* :mod:`repro.experiments.runner` — the ``repro-experiments`` CLI.
"""

from repro.experiments.context import ExperimentContext
from repro.experiments.report import ascii_table, format_series

__all__ = ["ExperimentContext", "ascii_table", "format_series"]

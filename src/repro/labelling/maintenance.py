"""Dynamic maintenance — Algorithms 2-5 of the paper: stats and marks.

Two layers are maintained, in order, each by one sweep over a whole
weight batch, raised and lowered roads together: the shortcuts of the
update hierarchy H_U (Algorithms 2 and 3, bottom-up by contraction
rank, on any :class:`~repro.hierarchy.contraction.ContractionResult`,
so the DCH/IncH2H baselines reuse it), then the labelling L
(Algorithms 4 and 5, top-down by ``tau``, support-free — the paper's
Section 8 "Boundedness" trade-off). Either order makes whatever an
item reads final before it is read.

The sweeps are C (:mod:`repro.labelling.native.engine`, which states
their contract) and :mod:`repro.labelling.driver` runs them. This
module holds what the driver and the sweeps share: the work counters
(:class:`MaintenanceStats`) and the marks a sweep records its writes
in (:func:`cell_marks`, :func:`entry_marks`).

Suspect tests compare exact equality of path sums; with integer
weights (the library default) these comparisons are exact in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MaintenanceStats",
    "cell_marks",
    "entry_marks",
]

WeightChange = tuple[int, int, float]
ShortcutKey = tuple[int, int]


@dataclass
class MaintenanceStats:
    """Work counters reported by the update algorithms.

    ``shortcuts_changed`` is the paper's |S-delta| (distinct weight
    cells whose value changed); ``labels_changed`` is |L-delta|
    (distinct label entries whose value changed); ``entries_processed``
    counts the label entries a sweep handled (search effort: each
    lowered or suspect entry once, whether the engine pops it alone or
    with its vertex's other queued entries). ``affected_labels`` holds
    the vertices whose label array was modified; a distance ``d(s, t)``
    is a pure function of ``L_s`` and ``L_t``, so it moved only when one
    of its endpoints is in this set.

    ``phases`` maps maintenance phase names (``maintain.seed``,
    ``maintain.shortcut_sweep``, ``maintain.label_sweep``, ...) to
    wall seconds. It is populated only when a phase collector was
    active during the update (the observability layer's
    :func:`~repro.observability.collect_phases` — e.g. a service flush
    with an enabled registry); otherwise it stays empty, keeping the
    update path measurement-free.
    """

    shortcuts_changed: int = 0
    labels_changed: int = 0
    entries_processed: int = 0
    affected_shortcuts: dict[ShortcutKey, float] = field(default_factory=dict)
    affected_labels: set[int] = field(default_factory=set)
    phases: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "MaintenanceStats") -> "MaintenanceStats":
        # ``affected_shortcuts`` records the weight each shortcut held
        # *before* the batch; when both sides touched a shortcut, the
        # earliest recorded old weight must win, so *self* is unpacked
        # last.
        merged_shortcuts = {**other.affected_shortcuts, **self.affected_shortcuts}
        merged_phases = dict(self.phases)
        for name, seconds in other.phases.items():
            merged_phases[name] = merged_phases.get(name, 0.0) + seconds
        return MaintenanceStats(
            self.shortcuts_changed + other.shortcuts_changed,
            self.labels_changed + other.labels_changed,
            self.entries_processed + other.entries_processed,
            merged_shortcuts,
            self.affected_labels | other.affected_labels,
            merged_phases,
        )


# ---------------------------------------------------------------------------
# Marks: what a sweep wrote, and the lists of what it touched
# ---------------------------------------------------------------------------

def cell_marks(cells: int) -> tuple:
    """Fresh shortcut-sweep marks over *cells* weight cells:
    ``(changed, first_old, touched, count)``. The buffers are
    ``np.empty`` / ``np.zeros`` of the universe size, so only the pages
    a burst writes are ever committed."""
    return (
        np.zeros(cells, dtype=np.uint8),
        np.empty(cells, dtype=np.float64),
        np.empty(cells, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
    )


def entry_marks(positions: int, n: int) -> tuple:
    """Fresh label-sweep marks over *positions* flat label positions of
    *n* vertices: ``(changed, touched, vertex_marks, touched_vertices,
    count)``."""
    return (
        np.zeros(positions, dtype=np.uint8),
        np.empty(positions, dtype=np.int64),
        np.zeros(n, dtype=np.uint8),
        np.empty(n, dtype=np.int64),
        np.zeros(2, dtype=np.int64),
    )

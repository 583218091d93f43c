"""Maintenance accounting for the sharded index.

A sharded update fans out into independent per-shard maintenance passes
plus one overlay pass; serving code (the epoch-guarded cache) and the
update-isolation tests need both the aggregate view —
the same counters a monolithic :class:`MaintenanceStats` exposes — and
the per-shard breakdown showing which shards actually did work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.labelling.maintenance import MaintenanceStats

__all__ = ["ShardedMaintenanceStats"]


@dataclass
class ShardedMaintenanceStats(MaintenanceStats):
    """Aggregate :class:`MaintenanceStats` plus the per-shard breakdown.

    The inherited counters aggregate over every touched shard and the
    overlay; ``affected_labels`` / ``affected_shortcuts`` are expressed
    in *global* vertex ids. ``per_shard`` maps shard id to that shard's
    own (local-id) stats; ``overlay_stats`` is the overlay pass.
    Written label positions belong to one store's layout, so only the
    per-shard and overlay stats list them; the aggregate's
    ``label_positions`` is ``None``.
    """

    per_shard: dict[int, MaintenanceStats] = field(default_factory=dict)
    overlay_stats: MaintenanceStats = field(default_factory=MaintenanceStats)
    label_positions: tuple[np.ndarray, ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def touched_shards(self) -> list[int]:
        """Shards whose index was handed work by this update batch."""
        return sorted(self.per_shard)

    def absorb(self, stats: MaintenanceStats, global_ids) -> None:
        """Fold one component's stats into the aggregate counters.

        ``global_ids`` maps that component's local vertex ids to global
        ids (any sequence or array); one fancy index maps them all. A
        shortcut already present keeps the old weight absorbed last.
        """
        self.shortcuts_changed += stats.shortcuts_changed
        self.labels_changed += stats.labels_changed
        self.entries_processed += stats.entries_processed
        ids = np.asarray(global_ids)
        shortcuts = stats.affected_shortcuts
        if shortcuts:
            keys = ids[np.array(list(shortcuts), dtype=np.int64)].tolist()
            self.affected_shortcuts.update(zip(map(tuple, keys), shortcuts.values()))
        labels = stats.affected_labels
        if labels:
            local = np.fromiter(labels, dtype=np.int64, count=len(labels))
            self.affected_labels.update(ids[local].tolist())
        for name, seconds in stats.phases.items():
            self.phases[name] = self.phases.get(name, 0.0) + seconds

"""The maintenance driver — the one path from a weight batch to new labels.

Every index family reaches Algorithms 2-5 through :func:`maintain`: it
validates the whole batch before the first write, applies the graph
weights, resolves seed cells (raised and lowered alike), runs the C
shortcut sweep once over the whole store (one weight plane or two —
see :class:`~repro.hierarchy.contraction.ContractionResult`), turns the
cells it listed as touched into ``affected_shortcuts``, then once per
plane makes one C label-sweep call (its seed phase inside), and fills
:class:`~repro.labelling.maintenance.MaintenanceStats` from the
positions and vertices that sweep listed (the positions themselves
become ``label_positions``, what a shard runtime ships). A mixed batch
is one pass, not an increase pass and a decrease pass. No step scans a
store-sized array, so a burst costs O(touched); the ``phase()`` marks
cover every step, validation and stats assembly included. The two sweeps and their
contract are :func:`repro.labelling.native.engine.shortcut_sweep` and
:func:`~repro.labelling.native.engine.label_sweep`.

The shortcut half is also exposed on its own: :func:`maintain_shortcuts`
for stores without labels (the DCH/IncH2H baselines share Algorithms
2/3), and :func:`fill_weights`, the sweep from an empty store, which is
how every build weighs its shortcuts.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable

import numpy as np

from repro.exceptions import (
    HierarchyError,
    MaintenanceError,
    StructuralFallbackRequired,
)
from repro.labelling import maintenance
from repro.labelling.maintenance import MaintenanceStats, WeightChange
from repro.labelling.native import engine as native_engine
from repro.observability.phases import collect_phases, phase, phases_active

__all__ = [
    "fill_weights",
    "maintain",
    "maintain_shortcuts",
    "validate_batch",
    "fold_batch",
]

# ---------------------------------------------------------------------------
# batch validation
# ---------------------------------------------------------------------------

def _check_weight(u: int, v: int, w: float) -> None:
    if w < 0 or math.isnan(w):
        raise MaintenanceError(f"invalid weight {w!r} for edge ({u}, {v})")


def validate_batch(
    kind: str,
    graph,
    changes: Iterable[WeightChange],
    edge_key: Callable[[int, int], Hashable],
) -> list[WeightChange]:
    """Check a whole ``decrease``/``increase``/``update`` batch before
    any write.

    Raises :class:`MaintenanceError` for a negative or NaN weight and,
    for ``decrease``/``increase``, for a change against *kind*'s
    direction; an unknown edge raises from ``graph.weight``. Changes
    that leave a weight as it is are dropped. *edge_key* names the edge
    a change addresses: an ``update`` is folded first
    (:func:`fold_batch`), so a road named twice ends at its last
    mention's weight; the one-kind batches check repeated mentions in
    order, each against the weight the previous one leaves.
    """
    if kind == "update":
        changes = fold_batch(changes, edge_key)
    pending: dict[Hashable, float] = {}
    batch: list[WeightChange] = []
    for u, v, w in changes:
        current = graph.weight(u, v)
        _check_weight(u, v, w)
        edge = edge_key(u, v)
        current = pending.get(edge, current)
        if w == current:
            continue
        if kind != "update" and (w > current) == (kind == "decrease"):
            other = "increase" if kind == "decrease" else "decrease"
            article = "an" if kind == "increase" else "a"
            raise MaintenanceError(
                f"edge ({u}, {v}): {current} -> {w} is not {article} {kind}; "
                f"use {other}()/update()"
            )
        pending[edge] = w
        batch.append((u, v, w))
    return batch


def fold_batch(
    changes: Iterable[WeightChange], edge_key: Callable[[int, int], Hashable]
) -> list[WeightChange]:
    """One change per road, the last mention's weight, in first-mention
    order. *edge_key* names the road a change addresses. Every weight
    is checked, a superseded one too."""
    final: dict[Hashable, WeightChange] = {}
    for u, v, w in changes:
        _check_weight(u, v, w)
        final[edge_key(u, v)] = (u, v, w)
    return list(final.values())


# ---------------------------------------------------------------------------
# shortcut phase (Algorithms 2 and 3)
# ---------------------------------------------------------------------------

_NO_CELLS = np.empty(0, dtype=np.int64)


def _cells(cells) -> np.ndarray:
    return np.asarray(sorted(cells), dtype=np.int64)


def _shortcut_phase(sc, batch: list[WeightChange]) -> tuple:
    """Write a validated batch into the graph and sweep H_U once.

    Seeds only read: a raised road makes its cell suspect when the old
    road weight realised it, a lowered one queues its cell when the new
    weight undercuts it. Returns the sweep's marks.
    """
    graph = sc.graph
    weights = sc.up_weights
    with phase("maintain.seed"):
        direct = sc.direct_weights()
        marks = maintenance.cell_marks(len(weights))
        raised: set[int] = set()
        lowered: set[int] = set()
        for a, b, w_new in batch:
            old_edge = graph.set_weight(a, b, w_new)
            cell = sc.edge_slot(a, b)
            direct[cell] = w_new
            if w_new < weights[cell]:
                lowered.add(cell)
            elif w_new > old_edge and weights[cell] == old_edge:
                raised.add(cell)
    if raised or lowered:
        with phase("maintain.shortcut_sweep"):
            if native_engine.shortcut_sweep(
                sc, _cells(raised), _cells(lowered), direct, marks
            ):
                raise StructuralFallbackRequired(
                    "shortcut sweep reached a compacted shortcut slot"
                )
    return marks


def fill_weights(store) -> None:
    """Weigh a freshly contracted *store*: Algorithm 2 from an empty one.

    Every cell starts at its direct road weight (inf where there is
    none) and the shortcut sweep runs once with every finite cell
    lowered. The monotone min-relaxation from inf reaches exactly the
    Property-3.1 fixpoint, and float addition is monotone, so any sweep
    order fills the same bits. The store keeps the direct weights for
    its first update.
    """
    direct = store.direct_weights()
    np.copyto(store.up_weights, direct)
    seeds = np.flatnonzero(np.isfinite(direct))
    marks = maintenance.cell_marks(len(direct))
    if native_engine.shortcut_sweep(store, _NO_CELLS, seeds, direct, marks):
        raise HierarchyError("a fresh shortcut store lacks a pair its sweep reached")


def maintain_shortcuts(
    kind: str, sc, changes: Iterable[WeightChange]
) -> dict[tuple[int, int], float]:
    """Algorithms 2/3 alone: the C shortcut sweep, no labels.

    For shortcut stores that carry no DHL labelling (the rank-generic
    DCH/IncH2H baselines). Returns the affected shortcuts as
    ``{(deeper, shallower): old_weight}``; the new weights are already
    stored in *sc*.
    """
    batch = validate_batch(kind, sc.graph, changes, sc.edge_key)
    if not batch:
        return {}
    _, first_old, touched, count = _shortcut_phase(sc, batch)
    cells = touched[: count[0]]
    return _affected_shortcuts(sc.csr, cells, first_old[cells])


def _affected_shortcuts(csr, cells, old) -> dict[tuple[int, int], float]:
    """``{(deeper, shallower): old weight}`` of the changed *cells*; a
    pair changed in both planes keeps its plane-0 old weight."""
    slots = cells % csr.num_slots
    lo = csr.owners[slots].tolist()
    hi = csr.indices[slots].tolist()
    return dict(zip(zip(lo[::-1], hi[::-1]), old[::-1].tolist()))


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def maintain(
    kind: str,
    store,
    labels,
    changes: Iterable[WeightChange],
) -> MaintenanceStats | None:
    """Apply one ``"decrease"`` / ``"increase"`` / ``"update"`` batch to
    ``(H_U, L)`` in one pass: one shortcut sweep, one label sweep per
    plane. *kind* only decides validation (:func:`validate_batch`):
    every change seeds the same sweeps by its own direction.

    *store* is the index's shortcut store and *labels* one labelling
    per weight plane of it, in plane order: a 1-tuple for the
    undirected hierarchy, ``(out, in)`` for the directed one.

    Nothing is written unless the whole batch validates. Returns
    ``None`` when no change moves a weight — nothing was applied.
    Raises :class:`~repro.exceptions.StructuralFallbackRequired` when
    the shortcut sweep needs a shortcut slot that compaction removed
    (only insertion-seeded batches can); the graph then carries the
    batch but ``H_U``/``L`` must be rebuilt.

    ``stats.phases`` holds the ``phase()`` marks the batch fired — only
    when a phase collector is already installed (an enabled
    observability flush, or a bench under ``collect_phases()``);
    otherwise the marks stay no-ops and nothing is measured.
    """

    def run() -> MaintenanceStats | None:
        with phase("maintain.validate"):
            batch = validate_batch(kind, store.graph, changes, store.edge_key)
        if not batch:
            return None
        changed, first_old, touched, count = _shortcut_phase(store, batch)
        m = store.csr.num_slots
        with phase("maintain.affected_shortcuts"):
            cells = touched[: count[0]]
            if store.planes > 1:  # the planes' cells, split below, in order
                cells = np.sort(cells)
            stats = MaintenanceStats(
                shortcuts_changed=len(cells),
                affected_shortcuts=_affected_shortcuts(
                    store.csr, cells, first_old[cells]
                ),
            )
        written = []
        for plane, labelling in enumerate(labels):
            lo, hi = np.searchsorted(cells, (plane * m, (plane + 1) * m))
            if lo == hi:
                written.append(_NO_CELLS)
                continue
            window = slice(plane * m, (plane + 1) * m)
            labelling.ensure_writable()
            with phase("maintain.label_sweep"):
                marks = maintenance.entry_marks(len(labelling.values), store.csr.n)
                stats.entries_processed += native_engine.label_sweep(
                    store,
                    labelling,
                    cells[lo:hi] - plane * m,
                    (changed[window], first_old[window]),
                    marks,
                    plane=plane,
                )
            with phase("maintain.stats"):
                _, touched, _, touched_vertices, count = marks
                # A copy: the stats must not pin the universe-sized marks.
                written.append(touched[: count[0]].copy())
                stats.labels_changed += int(count[0])
                stats.affected_labels.update(touched_vertices[: count[1]].tolist())
        stats.label_positions = tuple(written)
        return stats

    if not phases_active():
        return run()
    with collect_phases() as collector:
        stats = run()
    if stats is not None:
        stats.phases = collector.as_dict()
    return stats

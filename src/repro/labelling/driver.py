"""The maintenance driver — the one path from a weight batch to new labels.

Every index family reaches Algorithms 2-5 through :func:`maintain`: it
validates the whole batch before the first write, applies the graph
weights, resolves seed cells, runs the engine's shortcut sweep over the
whole store (one weight plane or two — see
:class:`~repro.hierarchy.contraction.ContractionResult`), turns the
cells it listed as touched into ``affected_shortcuts``, then once per
plane makes one engine label-sweep call (its seed phase inside), and
fills :class:`~repro.labelling.maintenance.MaintenanceStats` from
the positions and vertices that sweep listed. No step scans a
store-sized array, so a burst costs O(touched); the ``phase()`` marks
cover every step, validation and stats assembly included. An engine is
nothing more than the four sweeps of
:class:`~repro.labelling.maintenance.Engine`; :data:`ENGINES` is the
only place one is chosen.

The shortcut half is also exposed on its own: :func:`maintain_shortcuts`
for stores without labels (the DCH/IncH2H baselines share Algorithms
2/3), and :func:`fill_weights`, Algorithm 2 from an empty store, which
is how every build weighs its shortcuts.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable, Hashable, Iterable

import numpy as np

from repro.exceptions import (
    HierarchyError,
    MaintenanceError,
    StructuralFallbackRequired,
)
from repro.labelling import maintenance, native
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.maintenance import Engine, MaintenanceStats, WeightChange
from repro.labelling.native import engine as native_engine
from repro.observability.phases import collect_phases, phase, phases_active

__all__ = [
    "ENGINES",
    "collected",
    "fill_weights",
    "maintain",
    "maintain_shortcuts",
    "validate_batch",
    "fold_batch",
    "split_batch",
]

#: Resolved ``DHLConfig.engine`` name -> implementation. ``compiled``
#: (the C kernels) runs wherever the library loads; ``reference`` is the
#: paper-literal scalar oracle the differential tests compare it
#: against, what a compiler-less host runs and what the baselines run.
ENGINES: dict[str, Engine] = {
    "compiled": native_engine.ENGINE,
    "reference": maintenance.ENGINE,
}

_SHORTCUT_SWEEP_PHASE = {
    "decrease": "decrease.relax_round",
    "increase": "increase.dependency_layer",
}


def _engine(config) -> Engine:
    return ENGINES[config.resolve_engine()]


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
    """Check a whole ``decrease``/``increase`` batch before any write.

    Raises :class:`MaintenanceError` for a negative or NaN weight and
    for a change against *kind*'s direction; an unknown edge raises
    from ``graph.weight``. Changes that leave a weight as it is are
    dropped. *edge_key* names the edge a change addresses, so repeated
    mentions are checked in order, each against the weight the previous
    one leaves.
    """
    pending: dict[Hashable, float] = {}
    batch: list[WeightChange] = []
    for u, v, w in changes:
        current = graph.weight(u, v)
        _check_weight(u, v, w)
        edge = edge_key(u, v)
        current = pending.get(edge, current)
        if w == current:
            continue
        if (w > current) == (kind == "decrease"):
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


def split_batch(
    graph,
    changes: Iterable[WeightChange],
    edge_key: Callable[[int, int], Hashable],
) -> tuple[list[WeightChange], list[WeightChange]]:
    """Classify a mixed batch into ``(increases, decreases)``.

    The batch is folded first (:func:`fold_batch`), so a road named
    twice ends at its last mention's weight. Every weight and every
    edge is checked before anything is returned, so a bad one rejects
    the batch before its increases are applied. Unchanged weights are
    skipped.
    """
    increases: list[WeightChange] = []
    decreases: list[WeightChange] = []
    for u, v, w in fold_batch(changes, edge_key):
        current = graph.weight(u, v)
        if w > current:
            increases.append((u, v, w))
        elif w < current:
            decreases.append((u, v, w))
    return increases, decreases


# ---------------------------------------------------------------------------
# shortcut phase (Algorithms 2 and 3)
# ---------------------------------------------------------------------------

def _shortcut_phase(
    kind: str, sc, batch: list[WeightChange], engine: Engine
) -> tuple[np.ndarray, np.ndarray]:
    """Write a validated batch into the graph and sweep H_U.

    Returns the changed cells (ascending when the store has two planes,
    which the driver splits) and the weight each held before the batch.
    """
    graph = sc.graph
    weights = sc.up_weights
    decrease = kind == "decrease"
    with phase(f"{kind}.seed"):
        # Only the increase sweep reads the direct weights; a decrease
        # keeps them current when the store has them.
        direct = sc.direct if decrease else sc.direct_weights()
        marks = maintenance.cell_marks(len(weights))
        seeds: set[int] = set()
        for a, b, w_new in batch:
            old_edge = graph.set_weight(a, b, w_new)
            cell = sc.edge_slot(a, b)
            if direct is not None:
                direct[cell] = w_new
            if decrease:
                if weights[cell] > w_new:
                    maintenance.mark_cell(marks, cell, weights)
                    weights[cell] = w_new
                    seeds.add(cell)
            elif weights[cell] == old_edge:
                # Only shortcuts whose weight was realised by this edge
                # can change.
                seeds.add(cell)

    if seeds:
        seed_cells = np.asarray(sorted(seeds), dtype=np.int64)
        with phase(_SHORTCUT_SWEEP_PHASE[kind]):
            if not decrease:
                engine.shortcut_increase_sweep(sc, seed_cells, direct, marks)
            elif engine.shortcut_decrease_sweep(sc, seed_cells, marks):
                raise StructuralFallbackRequired(
                    "decrease sweep reached a compacted shortcut slot"
                )
    _, first_old, touched, count = marks
    cells = touched[: count[0]]
    if sc.planes > 1:
        cells = np.sort(cells)
    return cells, first_old[cells]


def fill_weights(store, engine: str = "compiled") -> None:
    """Weigh a freshly contracted *store*: Algorithm 2 from an empty one.

    Every cell starts at its direct road weight (inf where there is
    none) and the resolved *engine*'s decrease sweep runs once from
    every finite cell. The monotone min-relaxation from inf reaches
    exactly the Property-3.1 fixpoint, and float addition is monotone,
    so every engine fills the same bits. The store keeps the direct
    weights for its first increase.
    """
    direct = store.direct_weights()
    np.copyto(store.up_weights, direct)
    seeds = np.flatnonzero(np.isfinite(direct))
    marks = maintenance.cell_marks(len(direct))
    sweep = ENGINES[native.resolved_engine(engine)].shortcut_decrease_sweep
    if sweep(store, seeds, marks):
        raise HierarchyError("a fresh shortcut store lacks a pair its sweep reached")


def maintain_shortcuts(
    kind: str, sc, changes: Iterable[WeightChange]
) -> dict[tuple[int, int], float]:
    """Algorithms 2/3 alone, on the reference sweeps.

    For shortcut stores that carry no DHL labelling (the rank-generic
    DCH/IncH2H baselines). Returns the affected shortcuts as
    ``{(deeper, shallower): old_weight}``; the new weights are already
    stored in *sc*.
    """
    batch = validate_batch(kind, sc.graph, changes, sc.edge_key)
    if not batch:
        return {}
    slots, old = _shortcut_phase(kind, sc, batch, ENGINES["reference"])
    return _affected_shortcuts(sc.csr, slots, old)


def _affected_shortcuts(csr, slots, old) -> dict[tuple[int, int], float]:
    lo = csr.owners[slots].tolist()
    hi = csr.indices[slots].tolist()
    return dict(zip(zip(lo, hi), old.tolist()))


# ---------------------------------------------------------------------------
# label phase (Algorithms 4 and 5)
# ---------------------------------------------------------------------------

def _label_phase(
    kind: str,
    store,
    labels: HierarchicalLabelling,
    slots: np.ndarray,
    old: np.ndarray,
    engine: Engine,
) -> MaintenanceStats:
    """Seed and sweep the labels for the changed shortcut *slots*: one
    engine call, its seed phase inside."""
    csr = store.csr
    with phase(f"{kind}.affected_shortcuts"):
        stats = MaintenanceStats(
            shortcuts_changed=len(slots),
            affected_shortcuts=_affected_shortcuts(csr, slots, old),
        )
    if not len(slots):
        return stats
    labels.ensure_writable()
    with phase(f"{kind}.label_sweep"):
        marks = maintenance.entry_marks(len(labels.values), csr.n)
        if kind == "decrease":
            stats.entries_processed = engine.label_decrease_sweep(
                store, labels, slots, marks
            )
        else:
            stats.entries_processed, stats.labels_changed = (
                engine.label_increase_sweep(store, labels, slots, old, marks)
            )
    with phase(f"{kind}.stats"):
        *_, touched_vertices, count = marks
        if kind == "decrease":
            stats.labels_changed = int(count[0])
        stats.affected_labels = set(touched_vertices[: count[1]].tolist())
    return stats


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def maintain(
    kind: str,
    store,
    labels,
    changes: Iterable[WeightChange],
    config,
) -> MaintenanceStats | None:
    """Apply one ``"decrease"`` / ``"increase"`` batch to ``(H_U, L)``.

    *store* is the index's shortcut store and *labels* one labelling
    per weight plane of it (``label_planes`` pairs them up): a 1-tuple
    for the undirected hierarchy, ``(out, in)`` for the directed one.

    Nothing is written unless the whole batch validates
    (:func:`validate_batch`). Returns ``None`` when no change moves a
    weight — nothing was applied. Raises
    :class:`~repro.exceptions.StructuralFallbackRequired` when a
    decrease sweep needs a shortcut slot that compaction removed (only
    insertion-seeded batches can); the graph then carries the batch but
    ``H_U``/``L`` must be rebuilt.

    ``stats.phases`` is filled as :func:`collected` says.
    """

    def run() -> MaintenanceStats | None:
        with phase(f"{kind}.validate"):
            batch = validate_batch(kind, store.graph, changes, store.edge_key)
        if not batch:
            return None
        engine = _engine(config)
        cells, old = _shortcut_phase(kind, store, batch, engine)
        m = store.csr.num_slots
        parts = []
        for plane, (view, labelling) in enumerate(store.label_planes(labels)):
            # Two planes' cells come sorted; one plane's need not be, but
            # then every cell lies in [0, m) and both searches are exact.
            lo, hi = np.searchsorted(cells, (plane * m, (plane + 1) * m))
            slots = cells[lo:hi] - plane * m
            parts.append(
                _label_phase(kind, view, labelling, slots, old[lo:hi], engine)
            )
        with phase(f"{kind}.stats"):
            return reduce(MaintenanceStats.merge, parts)

    return collected(run)


def collected(
    run: Callable[[], MaintenanceStats | None]
) -> MaintenanceStats | None:
    """``run()``, its stats' ``phases`` holding the ``phase()`` marks it
    fired — only when a phase collector is already installed (an
    enabled observability flush, or a bench under ``collect_phases()``);
    otherwise the marks stay no-ops and nothing is measured."""
    if not phases_active():
        return run()
    with collect_phases() as collector:
        stats = run()
    if stats is not None:
        stats.phases = collector.as_dict()
    return stats

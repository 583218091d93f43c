"""The maintenance driver — the one path from a weight batch to new labels.

Every index family reaches Algorithms 2-5 through :func:`maintain`: it
validates the whole batch before the first write, applies the graph
weights, resolves seed slots, runs the engine's shortcut sweep, turns
its ``changed``/``first_old`` marks into ``affected_shortcuts``, runs
the batched label seed phase, runs the engine's label sweep and fills
:class:`~repro.labelling.maintenance.MaintenanceStats` and the
``phase()`` marks. An engine is nothing more than the four sweeps of
:class:`~repro.labelling.maintenance.Engine`; :data:`ENGINES` is the
only place one is chosen.

The two halves are also exposed on their own: :func:`maintain_shortcuts`
for stores without labels (the DCH/IncH2H baselines share Algorithms
2/3) and :func:`maintain_labels` for the directed index, whose coupled
shortcut phase is its own but whose two label stores are maintained
here through direction views.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable

import numpy as np

from repro.exceptions import MaintenanceError, StructuralFallbackRequired
from repro.labelling import compiled, maintenance, maintenance_kernels
from repro.labelling.labels import HierarchicalLabelling
from repro.labelling.maintenance import Engine, MaintenanceStats, WeightChange
from repro.observability.phases import collect_phases, phase, phases_active
from repro.utils.ragged import expand

__all__ = [
    "ENGINES",
    "maintain",
    "maintain_shortcuts",
    "maintain_labels",
    "validate_batch",
    "split_batch",
]

#: ``DHLConfig.engine`` name -> implementation. ``array`` and
#: ``compiled`` are the production engines; ``reference`` is the scalar
#: oracle the differential tests compare them against (and what the
#: baselines run).
ENGINES: dict[str, Engine] = {
    "array": maintenance_kernels.ENGINE,
    "compiled": compiled.ENGINE,
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
            raise MaintenanceError(
                f"edge ({u}, {v}): {current} -> {w} is not a {kind}; "
                f"use {other}()/update()"
            )
        pending[edge] = w
        batch.append((u, v, w))
    return batch


def split_batch(
    graph, changes: Iterable[WeightChange]
) -> tuple[list[WeightChange], list[WeightChange]]:
    """Classify a mixed batch into ``(increases, decreases)``.

    Every weight is checked first, so a bad one rejects the batch
    before its increases are applied. Unchanged weights are skipped.
    """
    increases: list[WeightChange] = []
    decreases: list[WeightChange] = []
    for u, v, w in changes:
        current = graph.weight(u, v)
        _check_weight(u, v, w)
        if w > current:
            increases.append((u, v, w))
        elif w < current:
            decreases.append((u, v, w))
    return increases, decreases


# ---------------------------------------------------------------------------
# per-slot direct edge weights (Algorithm 3's Property-3.1 base term)
# ---------------------------------------------------------------------------

class _DirectCache:
    """Per-slot direct edge weights, pinned to a graph mutation version."""

    __slots__ = ("direct", "version")

    def __init__(self, direct: np.ndarray, version: int):
        self.direct = direct
        self.version = version


def _fresh_direct_cache(sc) -> _DirectCache | None:
    """The hierarchy's direct-edge cache, or None if it went stale."""
    cache = sc._direct_cache
    if cache is not None and cache.version != sc.graph.version:
        sc._direct_cache = cache = None
    return cache


def _direct_slot_weights(sc) -> _DirectCache:
    """Build (or reuse) the per-slot direct edge weight array.

    inf where no edge survives. Cached on the hierarchy and invalidated
    through the graph's mutation counter, so out-of-band graph writes
    (structural insertions, compaction) are never missed.
    """
    cache = _fresh_direct_cache(sc)
    if cache is None:
        graph = sc.graph
        csr = sc.csr
        rank = sc.rank
        direct = np.full(csr.num_slots, math.inf, dtype=np.float64)
        edges = list(graph.edges())
        if edges:
            arr = np.asarray([(u, v) for u, v, _ in edges], dtype=np.int64)
            ws = np.asarray([w for _, _, w in edges], dtype=np.float64)
            u, v = arr[:, 0], arr[:, 1]
            flip = rank[u] > rank[v]
            lo = np.where(flip, v, u)
            hi = np.where(flip, u, v)
            direct[csr.slots_of(lo, hi)] = ws
        cache = sc._direct_cache = _DirectCache(direct, graph.version)
    return cache


# ---------------------------------------------------------------------------
# shortcut phase (Algorithms 2 and 3)
# ---------------------------------------------------------------------------

def _shortcut_phase(
    kind: str, sc, batch: list[WeightChange], engine: Engine
) -> tuple[np.ndarray, np.ndarray]:
    """Write a validated batch into the graph and sweep H_U.

    Returns the changed slots and the weight each held before the batch.
    """
    graph = sc.graph
    csr = sc.csr
    weights = sc.up_weights
    decrease = kind == "decrease"
    changed = np.zeros(csr.num_slots, dtype=np.uint8)
    first_old = np.zeros(csr.num_slots, dtype=np.float64)
    # Only the increase sweep reads the direct weights; a decrease just
    # keeps an existing cache current.
    cache = _fresh_direct_cache(sc) if decrease else _direct_slot_weights(sc)

    seeds: list[int] = []
    with phase(f"{kind}.seed"):
        for a, b, w_new in batch:
            old_edge = graph.set_weight(a, b, w_new)
            slot = csr.slot_of(*sc.shortcut_key(a, b))
            if cache is not None:
                cache.direct[slot] = w_new
            if decrease:
                if weights[slot] > w_new:
                    if not changed[slot]:
                        changed[slot] = 1
                        first_old[slot] = weights[slot]
                    weights[slot] = w_new
                    seeds.append(slot)
            elif weights[slot] == old_edge:
                # Only shortcuts whose weight was realised by this edge
                # can change.
                seeds.append(slot)
        if cache is not None:
            cache.version = graph.version

    if seeds:
        seed_slots = np.unique(np.asarray(seeds, dtype=np.int64))
        with phase(_SHORTCUT_SWEEP_PHASE[kind]):
            if not decrease:
                engine.shortcut_increase_sweep(
                    sc, seed_slots, cache.direct, changed, first_old
                )
            elif engine.shortcut_decrease_sweep(
                sc, seed_slots, changed, first_old
            ):
                raise StructuralFallbackRequired(
                    "decrease sweep reached a compacted shortcut slot"
                )
    slots = np.flatnonzero(changed)
    return slots, first_old[slots]


def maintain_shortcuts(
    kind: str, sc, changes: Iterable[WeightChange]
) -> dict[tuple[int, int], float]:
    """Algorithms 2/3 alone, on the reference sweeps.

    For shortcut stores that carry no DHL labelling (the rank-generic
    DCH/IncH2H baselines). Returns the affected shortcuts as
    ``{(deeper, shallower): old_weight}``; the new weights are already
    stored in *sc*.
    """
    batch = validate_batch(kind, sc.graph, changes, sc.shortcut_key)
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

def _seed_decrease(store, labels, lo, hi, slots) -> np.ndarray:
    """Batched phase 1 of Algorithm 4: ancestor-side improvements.

    Applies ``L_lo[i] <- min(L_lo[i], w_new + L_hi[i])`` for every
    affected shortcut in one ragged scatter-min. Candidates read the
    phase's pre-state; any cross-pair chaining a sequential pass would
    exploit is re-delivered by the descendant sweep, so the fixpoint is
    unchanged. Returns the improved flat positions.
    """
    values, offsets = labels.values, labels.offsets
    w_new = store.up_weights[slots]
    tw = store.tau[hi]
    mask = w_new < values[offsets[lo] + tw]
    if not mask.any():
        return np.empty(0, dtype=np.int64)
    lo, hi, w_new, tw = lo[mask], hi[mask], w_new[mask], tw[mask]
    rep, ramp = expand(tw + 1)
    cand = w_new[rep] + values[offsets[hi][rep] + ramp]
    return labels.relax_entries(offsets[lo][rep] + ramp, cand)


def _seed_increase(store, labels, lo, hi, old) -> tuple[np.ndarray, np.ndarray]:
    """Batched phase 1 of Algorithm 5: entries realised by old weights.

    An entry ``L_lo[i]`` is suspect when the chain through affected
    shortcut ``(lo, hi)`` with its *old* weight realised the stored
    value. Read-only; returns suspect ``(verts, cols)``.
    """
    values, offsets = labels.values, labels.offsets
    tw = store.tau[hi]
    direct = values[offsets[lo] + tw]
    mask = old == direct
    if not mask.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    lo, hi, old, tw = lo[mask], hi[mask], old[mask], tw[mask]
    rep, ramp = expand(tw + 1)
    cand = old[rep] + values[offsets[hi][rep] + ramp]
    segment = values[offsets[lo][rep] + ramp]
    # inf == inf covers the unreachable-stays-suspect case.
    match = cand == segment
    return lo[rep][match], ramp[match]


def _label_phase(
    kind: str,
    store,
    labels: HierarchicalLabelling,
    slots: np.ndarray,
    old: np.ndarray,
    engine: Engine,
) -> MaintenanceStats:
    """Seed and sweep the labels for the changed shortcut *slots*."""
    csr = store.csr
    stats = MaintenanceStats(
        shortcuts_changed=len(slots),
        affected_shortcuts=_affected_shortcuts(csr, slots, old),
    )
    if not len(slots):
        return stats
    labels.ensure_writable()
    lo, hi = csr.owners[slots], csr.indices[slots]
    changed = np.zeros(len(labels.values), dtype=np.uint8)
    if kind == "decrease":
        with phase("decrease.label_seed"):
            seeded = _seed_decrease(store, labels, lo, hi, slots)
        if len(seeded):
            changed[seeded] = 1
            with phase("decrease.label_sweep"):
                stats.entries_processed = engine.label_decrease_sweep(
                    store, labels, *labels.entries_of_positions(seeded), changed
                )
        positions = np.flatnonzero(changed)
        stats.labels_changed = len(positions)
    else:
        with phase("increase.label_seed"):
            verts, cols = _seed_increase(store, labels, lo, hi, old)
        if len(verts):
            with phase("increase.label_sweep"):
                stats.entries_processed, stats.labels_changed = (
                    engine.label_increase_sweep(store, labels, verts, cols, changed)
                )
        positions = np.flatnonzero(changed)
    if len(positions):
        verts, _ = labels.entries_of_positions(positions)
        stats.affected_labels = set(np.unique(verts).tolist())
    return stats


def maintain_labels(
    kind: str,
    store,
    labels: HierarchicalLabelling,
    slots: np.ndarray,
    old: np.ndarray,
    config,
) -> MaintenanceStats:
    """Algorithms 4/5 alone: *slots* of *store* changed from weights *old*.

    *store* is any CSR shortcut store exposing ``tau``, ``csr`` and
    ``up_weights`` (the update hierarchy, or a directed direction view).
    """
    return _label_phase(kind, store, labels, slots, old, _engine(config))


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def maintain(
    kind: str,
    hu,
    labels: HierarchicalLabelling,
    changes: Iterable[WeightChange],
    config,
) -> MaintenanceStats | None:
    """Apply one ``"decrease"`` / ``"increase"`` batch to ``(H_U, L)``.

    Nothing is written unless the whole batch validates
    (:func:`validate_batch`). Returns ``None`` when no change moves a
    weight — nothing was applied. Raises
    :class:`~repro.exceptions.StructuralFallbackRequired` when a
    decrease sweep needs a shortcut slot that compaction removed (only
    insertion-seeded batches can); the graph then carries the batch but
    ``H_U``/``L`` must be rebuilt.

    ``stats.phases`` is filled only when a phase collector is already
    installed (an enabled observability flush, or a bench under
    ``collect_phases()``); otherwise the ``phase()`` marks stay no-ops
    and nothing is measured.
    """
    batch = validate_batch(kind, hu.graph, changes, hu.shortcut_key)
    if not batch:
        return None
    engine = _engine(config)

    def run() -> MaintenanceStats:
        slots, old = _shortcut_phase(kind, hu, batch, engine)
        return _label_phase(kind, hu, labels, slots, old, engine)

    if not phases_active():
        return run()
    with collect_phases() as collector:
        stats = run()
    stats.phases = collector.as_dict()
    return stats

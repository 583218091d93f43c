"""Correctness verification experiment.

The paper states: "Distance results are exact for all methods considered,
and correctness has been verified using Dijkstra." This experiment
reproduces that check: for every dataset it builds all three indexes
(DHL, IncH2H, DCH), samples query pairs, runs a batch of weight updates,
and verifies every answer against Dijkstra before and after the updates.
Any mismatch raises :class:`AssertionError`, so the ``verify`` command
exits non-zero.
"""

from __future__ import annotations

from repro.baselines.dijkstra import dijkstra_distance
from repro.experiments.context import ExperimentContext
from repro.experiments.report import ascii_table
from repro.experiments.workloads import (
    double_weights,
    random_query_pairs,
    restore_weights,
    sample_update_batches,
)

__all__ = ["verify_correctness"]


def _mismatches(indexes: dict, graph, pairs) -> dict[str, int]:
    counts = {name: 0 for name in indexes}
    for s, t in pairs:
        expected = dijkstra_distance(graph, s, t)
        for name, index in indexes.items():
            if index.distance(s, t) != expected:
                counts[name] += 1
    return counts


def verify_correctness(ctx: ExperimentContext, pairs_per_phase: int = 50) -> dict:
    """Verify DHL / IncH2H / DCH against Dijkstra, static and dynamic.

    Raises :class:`AssertionError` naming every dataset, method and
    phase with a non-zero mismatch count.
    """
    rows = []
    raw = {}
    for name in ctx.datasets:
        graph = ctx.graph(name)
        indexes = {
            "DHL": ctx.dhl(name),
            "IncH2H": ctx.inch2h(name),
            "DCH": ctx.dch(name),
        }
        pairs = random_query_pairs(
            graph.num_vertices, pairs_per_phase, seed=ctx.seed + 9
        )
        static = _mismatches(indexes, indexes["DHL"].graph, pairs)

        batch = sample_update_batches(
            graph, 1, ctx.batch_size(name), seed=ctx.seed + 10
        )[0]
        for index in indexes.values():
            index.increase(double_weights(batch))
        increased = _mismatches(indexes, indexes["DHL"].graph, pairs)
        for index in indexes.values():
            index.decrease(restore_weights(batch))
        restored = _mismatches(indexes, indexes["DHL"].graph, pairs)

        raw[name] = {
            "static": static,
            "after_increase": increased,
            "after_restore": restored,
            "pairs_per_phase": pairs_per_phase,
        }
        total = {
            method: static[method] + increased[method] + restored[method]
            for method in static
        }
        rows.append(
            [
                name,
                3 * pairs_per_phase,
                total["DHL"],
                total["IncH2H"],
                total["DCH"],
            ]
        )
    text = ascii_table(
        ["Network", "checked", "DHL errs", "IncH2H errs", "DCH errs"],
        rows,
        title="Verification against Dijkstra (static / increase / restore)",
    )
    errors = [
        f"{name}/{method}/{phase}: {count} of {pairs_per_phase} pairs"
        for name, report in raw.items()
        for phase in ("static", "after_increase", "after_restore")
        for method, count in report[phase].items()
        if count
    ]
    if errors:
        raise AssertionError(
            f"{text}\ndistances disagree with Dijkstra: " + "; ".join(errors)
        )
    return {"experiment": "verify", "raw": raw, "rows": rows, "text": text}

"""Table-shaped experiments: Figure 1's summary table, Tables 1-3.

Each function takes an :class:`ExperimentContext`, returns a payload dict
(also JSON-serialisable) and a rendered text table. Timings follow the
paper's units: milliseconds for updates, microseconds for queries.
"""

from __future__ import annotations


from repro.experiments.context import ExperimentContext
from repro.experiments.measure import mean, time_callable, time_queries
from repro.experiments.report import ascii_table, fmt_bytes, fmt_ms, fmt_us
from repro.experiments.workloads import (
    double_weights,
    random_query_pairs,
    restore_weights,
    sample_update_batches,
)

__all__ = ["table1_datasets", "table2_updates", "table3_index", "figure1_summary"]


def _graph_bytes(graph) -> int:
    """Adjacency memory estimate mirroring Table 1's Memory column."""
    # one (id, weight) slot per arc direction plus per-vertex overhead
    return 16 * 2 * graph.num_edges + 8 * graph.num_vertices


def table1_datasets(ctx: ExperimentContext) -> dict:
    """Table 1: the dataset suite (scaled synthetic equivalents)."""
    from repro.datasets.synthetic import DATASETS

    rows = []
    for name in ctx.datasets:
        graph = ctx.graph(name)
        spec = DATASETS[name]
        rows.append(
            [
                name,
                spec.region,
                f"{graph.num_vertices:,}",
                f"{2 * graph.num_edges:,}",  # DIMACS counts directed arcs
                fmt_bytes(_graph_bytes(graph)),
                f"{spec.paper_vertices:,}",
            ]
        )
    text = ascii_table(
        ["Network", "Region", "|V|", "|E| (arcs)", "Memory", "paper |V|"],
        rows,
        title="Table 1: datasets (synthetic stand-ins at suite scale)",
    )
    return {"experiment": "table1", "rows": rows, "text": text}


def _measure_batch_updates(index, batches) -> tuple[float, float]:
    """Mean (increase, decrease) seconds per batch: x2 weights, restore."""
    inc_times, dec_times = [], []
    for batch in batches:
        inc = double_weights(batch)
        dec = restore_weights(batch)
        inc_times.append(time_callable(lambda: index.increase(inc)))
        dec_times.append(time_callable(lambda: index.decrease(dec)))
    return mean(inc_times), mean(dec_times)


def _measure_single_updates(index, batch, cap: int = 200) -> tuple[float, float]:
    """Mean (increase, decrease) seconds per single update.

    Uses up to *cap* updates of *batch*: per-update means stabilise well
    before the paper's 1,000 samples, and the cap keeps the full-suite
    harness affordable in pure Python.
    """
    batch = batch[:cap]
    inc_total = time_callable(
        lambda: [index.increase([change]) for change in double_weights(batch)]
    )
    dec_total = time_callable(
        lambda: [index.decrease([change]) for change in restore_weights(batch)]
    )
    return inc_total / len(batch), dec_total / len(batch)


def table2_updates(ctx: ExperimentContext) -> dict:
    """Table 2: update times — batch & single, +/-.

    The paper's parallel columns (DHL+p/DHL-p, Algorithms 6/7) have no
    counterpart here yet. The C sweeps release the GIL, so threads could
    now overlap; ROADMAP item 4 ("Parallel DHL over the released GIL")
    tracks them.
    """
    rows = []
    raw = {}
    for name in ctx.datasets:
        graph = ctx.graph(name)
        batch_size = ctx.batch_size(name)
        batches = sample_update_batches(
            graph, ctx.num_batches, batch_size, seed=ctx.seed
        )
        dhl = ctx.dhl(name)
        h2h = ctx.inch2h(name)

        dhl_inc, dhl_dec = _measure_batch_updates(dhl, batches)
        h2h_inc, h2h_dec = _measure_batch_updates(h2h, batches)
        dhl_inc_1, dhl_dec_1 = _measure_single_updates(dhl, batches[0])
        h2h_inc_1, h2h_dec_1 = _measure_single_updates(h2h, batches[0])

        raw[name] = {
            "batch_size": batch_size,
            "batch": {
                "DHL+": dhl_inc, "IncH2H+": h2h_inc,
                "DHL-": dhl_dec, "IncH2H-": h2h_dec,
            },
            "single": {
                "DHL+": dhl_inc_1, "IncH2H+": h2h_inc_1,
                "DHL-": dhl_dec_1, "IncH2H-": h2h_dec_1,
            },
        }
        rows.append(
            [
                name,
                fmt_ms(dhl_inc), fmt_ms(h2h_inc),
                fmt_ms(dhl_dec), fmt_ms(h2h_dec),
                fmt_ms(dhl_inc_1), fmt_ms(h2h_inc_1),
                fmt_ms(dhl_dec_1), fmt_ms(h2h_dec_1),
            ]
        )
    text = ascii_table(
        [
            "Network",
            "DHL+", "IncH2H+", "DHL-", "IncH2H-",
            "1:DHL+", "1:IncH2H+", "1:DHL-", "1:IncH2H-",
        ],
        rows,
        title=(
            "Table 2: update times [ms] — batch setting (4 cols) and "
            "single-update setting (last 4 cols)"
        ),
    )
    return {"experiment": "table2", "raw": raw, "rows": rows, "text": text}


def table3_index(ctx: ExperimentContext) -> dict:
    """Table 3: query time, label/shortcut sizes, construction, L-delta."""
    rows = []
    raw = {}
    for name in ctx.datasets:
        graph = ctx.graph(name)
        dhl = ctx.dhl(name)
        h2h = ctx.inch2h(name)
        built = ctx.built(name)

        pairs = random_query_pairs(
            graph.num_vertices, ctx.query_count, seed=ctx.seed + 1
        )
        dhl_q = time_queries(dhl.distance, pairs)
        h2h_q = time_queries(h2h.distance, pairs)

        # Affected labels from one doubled batch (then restored).
        batch = sample_update_batches(
            graph, 1, ctx.batch_size(name), seed=ctx.seed + 2
        )[0]
        dhl_stats = dhl.increase(double_weights(batch))
        h2h_stats = h2h.increase(double_weights(batch))
        dhl.decrease(restore_weights(batch))
        h2h.decrease(restore_weights(batch))

        stats = dhl.stats()
        dhl_entries = stats.label_entries
        h2h_entries = h2h.label_entries()
        raw[name] = {
            "query_us": {"DHL": dhl_q * 1e6, "IncH2H": h2h_q * 1e6},
            "label_bytes": {"DHL": stats.label_bytes, "IncH2H": h2h.memory_bytes()},
            "shortcut_bytes": {
                "DHL": stats.shortcut_bytes,
                "IncH2H": h2h.shortcut_bytes(),
            },
            "construction_s": {
                "DHL": stats.construction_seconds or built.dhl_seconds,
                "IncH2H": built.inch2h_seconds,
            },
            "affected_labels": {
                "DHL": [dhl_stats.labels_changed, dhl_entries],
                "IncH2H": [h2h_stats.labels_changed, h2h_entries],
            },
            "height": {"DHL": stats.height, "IncH2H": h2h.height},
        }
        rows.append(
            [
                name,
                fmt_us(dhl_q), fmt_us(h2h_q),
                fmt_bytes(stats.label_bytes), fmt_bytes(h2h.memory_bytes()),
                fmt_bytes(stats.shortcut_bytes), fmt_bytes(h2h.shortcut_bytes()),
                f"{(stats.construction_seconds or built.dhl_seconds):.1f}",
                f"{built.inch2h_seconds:.1f}",
                f"{dhl_stats.labels_changed}/{dhl_entries} "
                f"({dhl_stats.labels_changed / max(1, dhl_entries):.2f})",
                f"{h2h_stats.labels_changed}/{h2h_entries} "
                f"({h2h_stats.labels_changed / max(1, h2h_entries):.2f})",
            ]
        )
    text = ascii_table(
        [
            "Network",
            "Q DHL[us]", "Q IncH2H[us]",
            "L DHL", "L IncH2H",
            "SC DHL", "SC IncH2H",
            "C DHL[s]", "C IncH2H[s]",
            "Ld DHL", "Ld IncH2H",
        ],
        rows,
        title="Table 3: query time, labelling/shortcut size, construction, affected labels",
    )
    return {"experiment": "table3", "raw": raw, "rows": rows, "text": text}


def figure1_summary(ctx: ExperimentContext) -> dict:
    """Figure 1's headline table: DCH vs IncH2H vs DHL on the largest sets.

    The paper shows USA and EUR; we use the two largest datasets present
    in the context.
    """
    chosen = ctx.datasets[-2:] if len(ctx.datasets) >= 2 else ctx.datasets
    rows = []
    raw = {}
    for name in chosen:
        graph = ctx.graph(name)
        batch_size = ctx.batch_size(name)
        batches = sample_update_batches(graph, min(3, ctx.num_batches), batch_size, seed=ctx.seed)
        pairs = random_query_pairs(
            graph.num_vertices, min(2_000, ctx.query_count), seed=ctx.seed + 1
        )

        dch = ctx.dch(name)
        h2h = ctx.inch2h(name)
        dhl = ctx.dhl(name)

        entries = {}
        for label, index in [("DCH", dch), ("IncH2H", h2h), ("DHL", dhl)]:
            inc, dec = _measure_batch_updates(index, batches)
            # DCH queries are slow: sample fewer pairs for it.
            qpairs = pairs[:200] if label == "DCH" else pairs
            q = time_queries(index.distance, qpairs)
            entries[label] = {"inc_ms": inc * 1e3, "dec_ms": dec * 1e3, "q_us": q * 1e6}
            rows.append(
                [name, label, fmt_ms(inc), fmt_ms(dec), fmt_us(q)]
            )
        raw[name] = entries
    text = ascii_table(
        ["Dataset", "Method", "Incr [ms]", "Decr [ms]", "Query [us]"],
        rows,
        title="Figure 1 summary: update & query times (batch setting)",
    )
    return {"experiment": "figure1", "raw": raw, "rows": rows, "text": text}

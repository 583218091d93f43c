"""Road-closure / construction scenario over the structural batch path.

Grown out of ``examples/road_closures.py``: the same narrative — rush
hour closes roads, crews re-open them, a new bypass link is built — but
measured per dataset through :meth:`DHLIndex.apply_batch`:

* **rush-hour closures**: a batch of edge deletions (inf-weight
  increases through the DHL+ kernels) plus congestion reweighs;
* **re-openings**: the same edges restored in one decrease batch;
* **construction**: new links inserted — comparable endpoint pairs ride
  the closure fast path (slot extension + seeded decrease),
  incomparable ones fall back to a rebuild — with the fast-path /
  fallback split reported from the index's structural counters;
* **compaction**: the closure batch is re-applied, the dead-slot store
  compacted, and the reclaim totals reported.

Every phase is verified against Dijkstra on sampled pairs, so the
scenario doubles as an end-to-end correctness check of the structural
tool-chain at experiment scale.
"""

from __future__ import annotations

import math
import random
import time

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.experiments.context import ExperimentContext
from repro.experiments.report import ascii_table

__all__ = ["structural_scenarios"]


def _verify_sample(index, rng, count=40) -> None:
    n = index.graph.num_vertices
    for _ in range(count):
        s, t = rng.randrange(n), rng.randrange(n)
        got = index.distance(s, t)
        ref = dijkstra_distance(index.graph, s, t)
        ok = (math.isinf(got) and math.isinf(ref)) or abs(got - ref) < 1e-6
        if not ok:
            raise AssertionError(f"structural drift at ({s}, {t}): {got} != {ref}")


def _closure_batch(graph, rng, count):
    edges = [(u, v, w) for u, v, w in graph.edges() if math.isfinite(w)]
    picks = rng.sample(edges, min(count, max(1, len(edges) // 4)))
    deletions = [(u, v) for u, v, _ in picks]
    restores = [(u, v, w) for u, v, w in picks]
    return deletions, restores


def _construction_batches(index, rng, count):
    """Two link batches: comparable pairs (fast path) and arbitrary ones.

    A single incomparable endpoint pair forces the whole batch onto the
    fallback-rebuild tier, so the scenario keeps the tiers in separate
    batches — which is also how the CI quick bench measures the
    fast-path speedup.
    """
    n = index.graph.num_vertices
    hq = index.hq
    comparable = []
    seen = set()
    for a in rng.sample(range(n), min(n, 64)):
        if len(comparable) >= count:
            break
        partners = [
            b
            for b in range(n)
            if b != a
            and hq.comparable(a, b)
            and not index.graph.has_edge(a, b)
            and (min(a, b), max(a, b)) not in seen
        ]
        if partners:
            b = rng.choice(partners)
            seen.add((min(a, b), max(a, b)))
            comparable.append((a, b, float(rng.randint(1, 30))))
    arbitrary = []
    while len(arbitrary) < count:
        a, b = rng.randrange(n), rng.randrange(n)
        key = (min(a, b), max(a, b))
        if a != b and not index.graph.has_edge(a, b) and key not in seen:
            seen.add(key)
            arbitrary.append((a, b, float(rng.randint(1, 30))))
    return comparable, arbitrary


def structural_scenarios(ctx: ExperimentContext) -> dict:
    """Run the closure/construction scenario on each dataset."""
    rows = []
    raw: dict[str, dict] = {}
    for name in ctx.datasets:
        graph = ctx.graph(name)
        rng = random.Random(ctx.seed)
        config = DHLConfig(seed=ctx.seed, compaction_threshold=0.10)
        index = DHLIndex.build(graph.copy(), config)
        n = graph.num_vertices
        batch = max(4, ctx.batch_size(name) // 2)

        deletions, restores = _closure_batch(index.graph, rng, batch)
        congestion = [
            (u, v, w * 3.0)
            for u, v, w in rng.sample(
                [e for e in index.graph.edges() if math.isfinite(e[2])],
                min(batch, 8),
            )
            if (u, v) not in deletions and (v, u) not in deletions
        ]

        start = time.perf_counter()
        index.apply_batch(deletions=deletions, weight_changes=congestion)
        close_s = time.perf_counter() - start
        _verify_sample(index, rng)

        start = time.perf_counter()
        index.apply_batch(insertions=restores)
        reopen_s = time.perf_counter() - start
        index.apply_batch(
            weight_changes=[(u, v, graph.weight(u, v)) for u, v, _ in congestion]
        )
        _verify_sample(index, rng)

        fast_links, bypass_links = _construction_batches(
            index, rng, min(4, max(2, batch // 4))
        )
        counters_before = dict(index.structural_counters)
        start = time.perf_counter()
        if fast_links:
            index.apply_batch(insertions=fast_links)
        fast_s = time.perf_counter() - start
        start = time.perf_counter()
        index.apply_batch(insertions=bypass_links)
        bypass_s = time.perf_counter() - start
        construct_s = fast_s + bypass_s
        links = fast_links + bypass_links
        counters = index.structural_counters
        fastpath = counters.get("fastpath_inserts", 0) - counters_before.get(
            "fastpath_inserts", 0
        )
        fallbacks = counters.get("fallback_rebuilds", 0) - counters_before.get(
            "fallback_rebuilds", 0
        )
        _verify_sample(index, rng)

        # Second rush hour, then compact the accumulated dead slots.
        deletions2, _ = _closure_batch(index.graph, rng, batch)
        index.apply_batch(deletions=deletions2)
        dead_before = index.dead_fraction
        start = time.perf_counter()
        compaction = index.compact()
        compact_s = time.perf_counter() - start
        _verify_sample(index, rng)

        raw[name] = {
            "vertices": n,
            "closures": len(deletions),
            "close_seconds": close_s,
            "reopen_seconds": reopen_s,
            "new_links": len(links),
            "construct_seconds": construct_s,
            "fastpath_construct_seconds": fast_s,
            "bypass_construct_seconds": bypass_s,
            "fastpath_inserts": fastpath,
            "fallback_rebuilds": fallbacks,
            "dead_fraction_before_compact": dead_before,
            "dead_slots_reclaimed": compaction.dead_slots_reclaimed,
            "bytes_reclaimed": compaction.bytes_reclaimed,
            "compact_seconds": compact_s,
        }
        rows.append(
            [
                name,
                str(len(deletions)),
                f"{close_s * 1e3:.1f}",
                f"{reopen_s * 1e3:.1f}",
                f"{fastpath}/{len(links)}",
                f"{construct_s * 1e3:.1f}",
                str(compaction.dead_slots_reclaimed),
                f"{compact_s * 1e3:.1f}",
            ]
        )
    text = ascii_table(
        [
            "dataset",
            "closures",
            "close ms",
            "reopen ms",
            "fastpath/links",
            "construct ms",
            "slots reclaimed",
            "compact ms",
        ],
        rows,
        title="Structural batches: rush-hour closures, re-openings, "
        "construction, compaction (verified vs Dijkstra)",
    )
    return {"experiment": "structural", "raw": raw, "rows": rows, "text": text}

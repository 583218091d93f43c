"""Road closures and structural changes (Section 8 of the paper).

Shows the batch-dynamic structural toolkit through one ``apply_batch``
entry point:

* closing roads (deletions: inf-weight DHL+ updates, slots go dead);
* closing a whole intersection (vertex deletion);
* re-opening (insertions restore dead edges via a DHL- decrease);
* building a brand-new road (comparable endpoints ride the
  frontier-kernel fast path; incomparable ones repartition + rebuild);
* compacting dead slots out of the shortcut/label stores.

Every phase is checked against Dijkstra, so the walkthrough fails
loudly on a wrong distance. Run it with::

    python examples/road_closures.py
"""

from __future__ import annotations

import math

from repro import DHLConfig, DHLIndex, delaunay_network
from repro.baselines.dijkstra import dijkstra_distance


def check(index: DHLIndex, s: int, t: int) -> float:
    """Query the index and verify against Dijkstra."""
    d = index.distance(s, t)
    expected = dijkstra_distance(index.graph, s, t)
    assert d == expected, (s, t, d, expected)
    return d


def main() -> None:
    graph = delaunay_network(1_500, seed=31)
    original = graph.copy()  # build adopts the graph; keep pristine weights
    index = DHLIndex.build(graph, DHLConfig(seed=0))
    s, t = 4, 1_362

    baseline = check(index, s, t)
    print(f"normal conditions: d({s}, {t}) = {baseline:.0f}")

    # 1. Rush hour: close the first roads of the shortest corridor (via
    #    the hub) as one deletion batch.
    _, hub = index.distance_with_hub(s, t)
    closed = [
        (hub, u, w)
        for u, w in list(index.graph.neighbors(hub).items())[:2]
        if math.isfinite(w)
    ]
    index.apply_batch(deletions=[(u, v) for u, v, _ in closed])
    after_close = check(index, s, t)
    if math.isinf(after_close):
        effect = "no route left"
    elif after_close > baseline:
        effect = "detour"
    else:
        effect = "unaffected"
    print(f"closed {len(closed)} roads at hub {hub}: d = {after_close:.0f} ({effect})")

    # 2. Close the hub intersection entirely (roadworks).
    index.delete_vertex(hub)
    after_vertex = check(index, s, t)
    print(f"closed intersection {hub} entirely: d = {after_vertex:.0f}")
    assert math.isinf(index.distance(s, hub)), "closed intersection unreachable"

    # 3. Re-open everything: one insertion batch restores every dead
    #    edge (an insertion on a logically-deleted edge is a restore).
    reopen = [
        (hub, u, w)
        for u, w in original.neighbors(hub).items()
        if index.graph.weight(hub, u) != w
    ]
    index.apply_batch(insertions=reopen)
    reopened = check(index, s, t)
    assert reopened == baseline
    print(f"re-opened {len(reopen)} roads: d back to {reopened:.0f}")

    # 4. A new bypass road is built between two suburbs. Incomparable
    #    endpoints repartition the affected subtree of H_Q; comparable
    #    ones would take the slot-extension fast path instead.
    a, b = 100, 1_400
    if not index.graph.has_edge(a, b):
        before = check(index, a, b)
        bypass_weight = max(1.0, before / 4)
        stats = index.apply_batch(insertions=[(a, b, float(round(bypass_weight)))])
        path = "fast path" if stats.fastpath_inserts else "fallback rebuild"
        after = check(index, a, b)
        print(
            f"new bypass ({a}, {b}) of length {bypass_weight:.0f} ({path}): "
            f"d({a}, {b}) {before:.0f} -> {after:.0f}"
        )
        check(index, s, t)  # rest of the network still exact

    # 5. Winter: a batch of permanent closures, then compaction squeezes
    #    the dead slots out of the shortcut and label stores.
    victims = [
        (u, v)
        for u, v, w in list(index.graph.edges())[:40]
        if math.isfinite(w) and u != a and v != b
    ][:25]
    index.apply_batch(deletions=victims)
    frac = index.dead_fraction
    compaction = index.compact()
    print(
        f"closed {len(victims)} roads permanently: dead fraction "
        f"{frac:.3f} -> {index.dead_fraction:.3f}, reclaimed "
        f"{compaction.dead_slots_reclaimed} slots "
        f"({compaction.bytes_reclaimed} B)"
    )
    check(index, s, t)

    print("\nall queries verified against Dijkstra after every change")


if __name__ == "__main__":
    main()

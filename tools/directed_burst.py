"""Rolling-burst micro-measurement of directed maintenance.

There is no directed benchmark workload; this is the before/after probe
the ROADMAP asks for instead. It takes a bench graph by name, makes it
a digraph with half the arcs skewed (fixed seeds), builds a
:class:`~repro.core.directed.DirectedDHLIndex` and replays 20 rolling
bursts — burst ``j`` doubles 16 arcs and restores the 16 of burst
``j - 1`` — printing

* the per-burst **median ms** (and min / max) of ``index.update``;
* the ``shortcuts_changed`` / ``labels_changed`` totals;
* a **digest** — SHA-1 over ``out_weights``, ``in_weights``,
  ``labels_out.values`` and ``labels_in.values`` after the last burst.

Two checkouts that print the same totals and digest maintained the same
state; only public API is used, so the script runs against either::

    python tools/directed_burst.py grid road
    PYTHONPATH=/path/to/parent/src python tools/directed_burst.py grid road

The totals and digests are pinned (:data:`PINNED`) and a mismatch exits
non-zero, which is what makes "same maintained state" a CI gate.
Times are only comparable between runs on one machine in one session.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path

if not any(Path(p, "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.core.config import DHLConfig  # noqa: E402
from repro.core.directed import DirectedDHLIndex  # noqa: E402
from repro.graph.digraph import DiGraph  # noqa: E402
from repro.graph.generators import delaunay_network, grid_network  # noqa: E402

GRAPHS = {
    "road": lambda: delaunay_network(4_000, style="uniform", edge_factor=1.35, seed=7),
    "grid": lambda: grid_network(48, 48, seed=7),
}

BURSTS = 20
GROUP = 16

#: ``(shortcuts_changed, labels_changed, digest)`` per graph; a burst
#: counts each moved cell and entry once. A deliberate change of the
#: maintained state re-pins them.
PINNED = {
    "grid": (49_354, 734_237, "eb69aebca4d8"),
    "road": (1_995, 107_061, "7f590549c996"),
}


def skewed_digraph(graph) -> DiGraph:
    """Both directions of every edge, half the arcs made up to 24 dearer."""
    digraph = DiGraph.from_undirected(graph)
    rng = np.random.default_rng(4)
    arcs = list(digraph.arcs())
    for i in rng.permutation(len(arcs))[: len(arcs) // 2]:
        u, v, w = arcs[i]
        digraph.set_weight(u, v, float(w + rng.integers(1, 25)))
    return digraph


def rolling_bursts(digraph: DiGraph) -> list[list[tuple[int, int, float]]]:
    rng = np.random.default_rng(1)
    arcs = list(digraph.arcs())
    picks = rng.permutation(len(arcs))[: BURSTS * GROUP].reshape(BURSTS, GROUP)
    bursts, previous = [], []
    for pick in picks:
        current = [arcs[i] for i in pick]
        bursts.append([(u, v, 2 * w) for u, v, w in current] + previous)
        previous = current
    return bursts


def measure(name: str) -> bool:
    """Replay the bursts on graph *name*; True when the pins hold."""
    digraph = skewed_digraph(GRAPHS[name]())
    index = DirectedDHLIndex.build(digraph, DHLConfig(seed=0))
    millis = []
    shortcuts = labels = 0
    for burst in rolling_bursts(digraph):
        start = time.perf_counter()
        stats = index.update(burst)
        millis.append(1e3 * (time.perf_counter() - start))
        shortcuts += stats.shortcuts_changed
        labels += stats.labels_changed
    digest = hashlib.sha1()
    for buffer in (
        index.out_weights,
        index.in_weights,
        index.labels_out.values,
        index.labels_in.values,
    ):
        digest.update(np.ascontiguousarray(buffer).tobytes())
    got = (shortcuts, labels, digest.hexdigest()[:12])
    print(
        f"{name}: n={digraph.num_vertices} arcs={digraph.num_arcs}  "
        f"burst ms median {statistics.median(millis):.1f} "
        f"(min {min(millis):.1f}, max {max(millis):.1f})  "
        f"shortcuts_changed {shortcuts}  labels_changed {labels}  "
        f"digest {got[2]}"
    )
    if got != PINNED[name]:
        print(f"{name}: MISMATCH, pinned {PINNED[name]}", file=sys.stderr)
    return got == PINNED[name]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("graphs", nargs="+", choices=sorted(GRAPHS))
    args = parser.parse_args()
    # A list, not a generator: every graph is measured and printed even
    # after one has missed its pins.
    if not all([measure(name) for name in args.graphs]):
        sys.exit(1)


if __name__ == "__main__":
    main()

"""Stage table and tree digest of one partition build.

Builds a named graph, runs :func:`repro.partition.recursive_bisection`
on it under ``collect_phases()`` and prints

* the **tree digest** — SHA-1 over the preorder ``(node.vertices,
  len(node.children))`` sequence of the partition tree, and over
  ``partition_regions(k).region_of`` for k in {2, 4}. Two checkouts that
  print the same digests made the same partitioning decisions. The
  spectral candidate runs LAPACK's ``eigh``, so digests are comparable
  between checkouts on one machine, not between machines. Both are
  computed under the ``compiled`` engine (every step in
  ``dhl_kernels.c``) and the ``reference`` one (the Python bodies) in
  this one process, where ``eigh`` is shared; the script exits 1 when
  the engines disagree;
* the **stage table** of each engine — raw seconds per ``partition.*``
  phase mark (best of ``--repeat`` runs by total), with the share of the
  measured total the marks account for — and the reference-over-compiled
  ratio of the totals::

      python tools/partition_profile.py road grid
      cd /path/to/parent && python tools/partition_profile.py road grid

``road`` and ``grid`` are the two bench profiles (``bench/workloads.py``
``make_graph``, generator seed 7); ``road16k`` and ``road32k`` are the
16,000- and 32,000-vertex ``road`` the ROADMAP quotes ms per vertex and
its scale build on (``--repeat 1`` keeps the reference run of
``road32k`` to one).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

if not any(Path(p, "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.config import DHLConfig  # noqa: E402
from repro.graph.generators import delaunay_network, grid_network  # noqa: E402
from repro.observability import collect_phases  # noqa: E402
from repro.partition import partition_regions, recursive_bisection  # noqa: E402

ENGINES = ("compiled", "reference")

GRAPHS = {
    "road": lambda: delaunay_network(4_000, style="uniform", edge_factor=1.35, seed=7),
    "grid": lambda: grid_network(48, 48, seed=7),
    "road16k": lambda: delaunay_network(
        16_000, style="uniform", edge_factor=1.35, seed=7
    ),
    "road32k": lambda: delaunay_network(
        32_000, style="uniform", edge_factor=1.35, seed=7
    ),
}


def tree_digest(tree) -> str:
    """SHA-1 of the preorder ``(vertices, child count)`` sequence."""
    h = hashlib.sha1()
    for node in tree.iter_nodes():
        h.update(repr((list(node.vertices), len(node.children))).encode())
    return h.hexdigest()[:12]


def digests(graph, engine: str) -> tuple[str, str]:
    """``(tree digest, regions digest)`` of the partitioning on *engine*."""
    h = hashlib.sha1()
    for k in (2, 4):
        h.update(partition_regions(graph, k, seed=0, engine=engine).region_of.tobytes())
    tree = recursive_bisection(graph, seed=0, engine=engine)
    return tree_digest(tree), h.hexdigest()[:12]


def stage_table(graph, engine: str, repeat: int) -> float:
    """Print *engine*'s stage table; returns its best total seconds."""
    n = graph.num_vertices
    runs = []
    for _ in range(repeat):
        with collect_phases() as collector:
            start = time.perf_counter()
            recursive_bisection(graph, seed=0, engine=engine)
            total = time.perf_counter() - start
        runs.append((total, collector.as_dict(), dict(collector.counts)))
    total, seconds, counts = min(runs, key=lambda run: run[0])
    resolved = DHLConfig(engine=engine).resolve_engine()
    label = engine if resolved == engine else f"{engine} (ran as {resolved})"
    print(
        f"  {label}: recursive_bisection {total:.3f} s best of {repeat} "
        f"({1e3 * total / n:.4f} ms per vertex; all runs: "
        + " ".join(f"{run[0]:.3f}" for run in runs)
        + ")"
    )
    stages = {k: v for k, v in seconds.items() if k.startswith("partition.")}
    for stage, secs in sorted(stages.items(), key=lambda kv: -kv[1]):
        print(
            f"    {stage:<22}{secs:8.3f} s {100 * secs / total:5.1f} %"
            f"  x{counts[stage]}"
        )
    covered = sum(stages.values())
    print(f"    {'marks / total':<22}{covered:8.3f} s {100 * covered / total:5.1f} %")
    return total


def profile(name: str, repeat: int) -> bool:
    """Print *name*'s digests and both engines' stage tables; False when
    the engines' digests differ."""
    graph = GRAPHS[name]()
    compiled, reference = (digests(graph, engine) for engine in ENGINES)
    print(
        f"{name}: n={graph.num_vertices} m={graph.num_edges}  tree {compiled[0]}  "
        f"regions {compiled[1]}  "
        + (
            "(both engines)"
            if compiled == reference
            else f"MISMATCH, reference tree {reference[0]} regions {reference[1]}"
        )
    )
    totals = [stage_table(graph, engine, repeat) for engine in ENGINES]
    print(f"  reference / compiled: {totals[1] / totals[0]:.1f}x")
    return compiled == reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("graphs", nargs="+", choices=sorted(GRAPHS))
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(
        f"machine: {os.cpu_count()} cores, python {sys.version.split()[0]}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
        f"engine {DHLConfig().resolve_engine()}"
    )
    # A list, not a generator: every graph is printed after a mismatch.
    return 0 if all([profile(name, max(1, args.repeat)) for name in args.graphs]) else 1


if __name__ == "__main__":
    sys.exit(main())

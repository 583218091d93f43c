"""Stage table and tree digest of one partition build.

Builds a named graph, runs :func:`repro.partition.recursive_bisection`
on it under ``collect_phases()`` and prints

* the **tree digest** — SHA-1 over the preorder ``(node.vertices,
  len(node.children))`` sequence of the partition tree, and over
  ``partition_regions(k).region_of`` for k in {2, 4}. Two checkouts that
  print the same digests made the same partitioning decisions. The
  spectral candidate runs LAPACK's ``eigh``, so digests are comparable
  between checkouts on one machine, not between machines. Both are
  computed by the package (every step in ``dhl_kernels.c``) and by the
  Python oracle pipeline of ``tests/oracles/multilevel.py`` in this one
  process, where ``eigh`` is shared; the script exits 1 when they
  disagree;
* the **stage table** — raw seconds per ``partition.*`` phase mark
  (best of ``--repeat`` runs by total), with the share of the measured
  total the marks account for — and the oracle's seconds for the same
  digests::

      python tools/partition_profile.py grid road road16k
      cd /path/to/parent && python tools/partition_profile.py road grid

``road`` and ``grid`` are the two bench profiles (``bench/workloads.py``
``make_graph``, generator seed 7); ``road16k`` and ``road32k`` are the
16,000- and 32,000-vertex ``road`` the ROADMAP quotes ms per vertex and
its scale build on.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not any(Path(p, "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # the oracle pipeline under tests/

from repro.graph.generators import delaunay_network, grid_network  # noqa: E402
from repro.observability import collect_phases  # noqa: E402
from repro.partition import partition_regions, recursive_bisection  # noqa: E402
from tests.oracles import multilevel as oracle  # noqa: E402

#: ``(partition_regions, recursive_bisection)`` of the package and of
#: the oracle pipeline.
PIPELINES = {
    "package": (partition_regions, recursive_bisection),
    "oracle": (oracle.partition_regions, oracle.recursive_bisection),
}

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


def digests(graph, pipeline: str) -> tuple[str, str]:
    """``(tree digest, regions digest)`` of *pipeline*'s partitioning."""
    regions, bisection = PIPELINES[pipeline]
    h = hashlib.sha1()
    for k in (2, 4):
        h.update(regions(graph, k, seed=0).region_of.tobytes())
    return tree_digest(bisection(graph, seed=0)), h.hexdigest()[:12]


def stage_table(graph, repeat: int) -> float:
    """Print the package's stage table; returns its best total seconds."""
    n = graph.num_vertices
    runs = []
    for _ in range(repeat):
        with collect_phases() as collector:
            start = time.perf_counter()
            recursive_bisection(graph, seed=0)
            total = time.perf_counter() - start
        runs.append((total, collector.as_dict(), dict(collector.counts)))
    total, seconds, counts = min(runs, key=lambda run: run[0])
    print(
        f"  recursive_bisection {total:.3f} s best of {repeat} "
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
    """Print *name*'s digests and the package's stage table; False when
    the oracle pipeline's digests differ."""
    graph = GRAPHS[name]()
    package = digests(graph, "package")
    start = time.perf_counter()
    expected = digests(graph, "oracle")
    oracle_seconds = time.perf_counter() - start
    print(
        f"{name}: n={graph.num_vertices} m={graph.num_edges}  tree {package[0]}  "
        f"regions {package[1]}  "
        + (
            f"(the oracle's too, {oracle_seconds:.1f} s)"
            if package == expected
            else f"MISMATCH, oracle tree {expected[0]} regions {expected[1]}"
        )
    )
    stage_table(graph, repeat)
    return package == expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("graphs", nargs="+", choices=sorted(GRAPHS))
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(
        f"machine: {os.cpu_count()} cores, python {sys.version.split()[0]}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"
    )
    # A list, not a generator: every graph is printed after a mismatch.
    return 0 if all([profile(name, max(1, args.repeat)) for name in args.graphs]) else 1


if __name__ == "__main__":
    sys.exit(main())

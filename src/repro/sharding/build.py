"""Partition-parallel shard construction.

Each region subgraph is an independent build — partition, contract,
label — with no shared state, so the k shard indexes are constructed in
a :class:`~concurrent.futures.ProcessPoolExecutor`. The per-shard graphs
are small (roughly ``n / k`` vertices each) and a DHL build's cost grows
superlinearly with graph size, so even the *serial* sum of k small
builds undercuts one monolithic build; the process pool then overlaps
them across cores.

Workers receive ``(subgraph, config)`` and return the built index plus
its wall-clock seconds; results are deterministic either way because
every build is seeded through the config. Pool failures (no usable
process start method, unpicklable environment) degrade to the serial
path with a warning rather than failing the build.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.graph.graph import Graph

if TYPE_CHECKING:  # annotation only: repro.core imports this module
    from repro.core.config import DHLConfig

__all__ = ["ShardBuildReport", "build_shards"]


@dataclass
class ShardBuildReport:
    """Where the shard-build wall clock went."""

    per_shard_seconds: list[float] = field(default_factory=list)
    total_seconds: float = 0.0
    parallel: bool = False
    workers: int = 1

    @property
    def serial_seconds(self) -> float:
        """Sum of per-shard build times (the no-overlap cost)."""
        return sum(self.per_shard_seconds)


def _build_one(payload: tuple[Graph, DHLConfig]):
    """Pool worker: build one shard index, timing it."""
    from repro.core.index import DHLIndex

    subgraph, config = payload
    start = time.perf_counter()
    index = DHLIndex.build(subgraph, config)
    return index, time.perf_counter() - start


def build_shards(
    subgraphs: list[Graph],
    config: DHLConfig,
    workers: int | None = None,
) -> tuple[list, ShardBuildReport]:
    """Build one DHL index per region subgraph, in parallel when asked.

    ``workers`` caps the process pool (``None``/``1`` builds serially).
    Returns ``(shards, report)`` with shards in subgraph order.
    """
    report = ShardBuildReport(workers=max(1, workers or 1))
    payloads = [(g, config) for g in subgraphs]
    start = time.perf_counter()
    results = None
    if workers and workers > 1 and len(subgraphs) > 1:
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(subgraphs))
            ) as pool:
                results = list(pool.map(_build_one, payloads))
            report.parallel = True
        except Exception as exc:  # pragma: no cover - environment dependent
            warnings.warn(
                f"parallel shard build failed ({exc!r}); building serially",
                RuntimeWarning,
                stacklevel=2,
            )
            results = None
    if results is None:
        results = [_build_one(p) for p in payloads]
    report.total_seconds = time.perf_counter() - start
    shards = [index for index, _ in results]
    report.per_shard_seconds = [seconds for _, seconds in results]
    return shards, report

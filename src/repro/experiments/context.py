"""Shared experiment state: datasets, built indexes, protocol parameters.

Experiments share one :class:`ExperimentContext` so a dataset is generated
once and each index type is built at most once per dataset. Parameters
scale the paper's protocol to the synthetic suite sizes (the paper uses
1,000-update batches and 1M query pairs on million-vertex graphs; we keep
the same *structure* at suite scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.dch import DCHIndex
from repro.baselines.inch2h import IncH2HIndex
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.datasets.synthetic import dataset_names, load_dataset
from repro.graph.graph import Graph
from repro.observability.timing import Timer

__all__ = ["ExperimentContext", "BuiltIndexes"]


@dataclass
class BuiltIndexes:
    """Lazily built indexes plus their construction times (seconds)."""

    dhl: DHLIndex | None = None
    dhl_seconds: float = 0.0
    inch2h: IncH2HIndex | None = None
    inch2h_seconds: float = 0.0
    dch: DCHIndex | None = None
    dch_seconds: float = 0.0


@dataclass
class ExperimentContext:
    """Datasets + index cache + scaled protocol parameters."""

    datasets: list[str] = field(default_factory=dataset_names)
    scale: float | None = None  # None = suite default (1e-3 x REPRO_SCALE)
    seed: int = 0
    num_batches: int = 10
    query_count: int = 20_000
    _graphs: dict[str, Graph] = field(default_factory=dict, repr=False)
    _indexes: dict[str, BuiltIndexes] = field(default_factory=dict, repr=False)

    def graph(self, name: str) -> Graph:
        if name not in self._graphs:
            self._graphs[name] = load_dataset(name, self.scale)
        return self._graphs[name]

    def batch_size(self, name: str) -> int:
        """Scaled stand-in for the paper's 1,000-update batches.

        Uses ~7.5% of the network's edges, capped at 1,000 — at full
        DIMACS scale this recovers the paper's setting.
        """
        m = self.graph(name).num_edges
        return max(10, min(1_000, m // 13))

    def built(self, name: str) -> BuiltIndexes:
        return self._indexes.setdefault(name, BuiltIndexes())

    def dhl(self, name: str) -> DHLIndex:
        built = self.built(name)
        if built.dhl is None:
            with Timer() as t:
                built.dhl = DHLIndex.build(
                    self.graph(name).copy(), DHLConfig(seed=self.seed)
                )
            built.dhl_seconds = t.seconds
        return built.dhl

    def inch2h(self, name: str) -> IncH2HIndex:
        built = self.built(name)
        if built.inch2h is None:
            with Timer() as t:
                built.inch2h = IncH2HIndex.build(self.graph(name).copy())
            built.inch2h_seconds = t.seconds
        return built.inch2h

    def dch(self, name: str) -> DCHIndex:
        built = self.built(name)
        if built.dch is None:
            with Timer() as t:
                built.dch = DCHIndex.build(self.graph(name).copy())
            built.dch_seconds = t.seconds
        return built.dch

    def drop(self, name: str) -> None:
        """Free a dataset's indexes (memory control for long runs)."""
        self._indexes.pop(name, None)
        self._graphs.pop(name, None)

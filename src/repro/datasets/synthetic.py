"""Named synthetic datasets mirroring the paper's Table 1.

Each entry reproduces one of the paper's networks at ``scale`` times its
vertex count (default 1/1000), with a point-distribution style chosen to
echo the real geography: New York is a dense core, the Bay Area wraps an
obstacle, Europe is two landmasses with a corridor, and so on. Weights
are integer travel times.

The suite scale can be overridden globally with the ``REPRO_SCALE``
environment variable (a float multiplier on the default sizes), to move
the experiments toward the paper's full sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ReproError
from repro.graph.generators import delaunay_network
from repro.graph.graph import Graph

__all__ = ["DatasetSpec", "DATASETS", "dataset_names", "load_dataset", "suite"]


@dataclass(frozen=True)
class DatasetSpec:
    """One synthetic network: paper identity plus generator parameters."""

    name: str
    region: str
    paper_vertices: int
    paper_edges: int
    style: str
    seed: int

    def vertices_at(self, scale: float) -> int:
        return max(64, int(round(self.paper_vertices * scale)))

    def generate(self, scale: float = 1e-3) -> Graph:
        """Materialise the network at *scale* of the paper's size."""
        return delaunay_network(
            self.vertices_at(scale),
            seed=self.seed,
            style=self.style,
            edge_factor=1.35,
        )


#: Paper Table 1, in increasing-size order (paper vertex/edge counts are
#: the DIMACS numbers; DIMACS counts directed arcs, hence ~2.7 |V|).
DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec("NY", "New York City", 264_346, 733_846, "city", 101),
        DatasetSpec("BAY", "San Francisco", 321_270, 800_172, "bay", 102),
        DatasetSpec("COL", "Colorado", 435_666, 1_057_066, "uniform", 103),
        DatasetSpec("FLA", "Florida", 1_070_376, 2_712_798, "uniform", 104),
        DatasetSpec("CAL", "California", 1_890_815, 4_657_742, "city", 105),
        DatasetSpec("E", "Eastern USA", 3_598_623, 8_778_114, "uniform", 106),
        DatasetSpec("W", "Western USA", 6_262_104, 15_248_146, "uniform", 107),
        DatasetSpec("CTR", "Central USA", 14_081_816, 34_292_496, "uniform", 108),
        DatasetSpec("USA", "United States", 23_947_347, 58_333_344, "uniform", 109),
        DatasetSpec("EUR", "Western Europe", 18_010_173, 42_560_279, "continental", 110),
    ]
}


def dataset_names() -> list[str]:
    """All dataset names in the paper's Table 1 order."""
    return list(DATASETS)


def default_scale() -> float:
    """Suite scale: 1/1000 of the paper, times ``REPRO_SCALE`` if set."""
    base = 1e-3
    override = os.environ.get("REPRO_SCALE")
    if override:
        try:
            base *= float(override)
        except ValueError as exc:
            raise ReproError(f"invalid REPRO_SCALE={override!r}") from exc
    return base


def load_dataset(name: str, scale: float | None = None) -> Graph:
    """Generate dataset *name* (e.g. ``"NY"``) at the given or default scale."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise ReproError(
            f"unknown dataset {name!r}; choose from {', '.join(DATASETS)}"
        ) from None
    return spec.generate(default_scale() if scale is None else scale)


def suite(
    names: list[str] | None = None, scale: float | None = None
) -> dict[str, Graph]:
    """Generate several datasets at once; defaults to the full Table 1."""
    return {
        name: load_dataset(name, scale) for name in (names or dataset_names())
    }

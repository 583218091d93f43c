"""Mixed query/update traffic generators and a replay driver.

Three traffic shapes cover the serving regimes a road-network distance
service actually sees:

* :func:`uniform_traffic` — uniformly random pairs with periodic weight
  churn (the paper's Table 2/3 protocol recast as a stream);
* :func:`zipf_hotspot_traffic` — Zipf-skewed endpoints (city centres,
  airports) where a result cache should shine;
* :func:`rush_hour_traffic` — congestion cycles: arterial edges ramp up
  in consecutive bursts (exercising the coalescer), a query storm hits
  while congested, then weights clear and off-peak queries trickle;
* :func:`commute_traffic` — cross-region commutes: every query pair
  straddles a partition boundary and weight churn is biased onto the
  cut edges, the worst case for a region-sharded backend (no query is
  answerable by one shard; most updates force overlay refreshes).

Events are generated up-front against the graph's *base* weights, so a
replay is deterministic for a given seed and always ends with the graph
back in a consistent state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from repro.graph.graph import Graph
from repro.labelling.maintenance import WeightChange
from repro.service.metrics import Timer
from repro.service.service import DistanceService, ServiceStats
from repro.utils.rng import make_rng, sample_pairs

__all__ = [
    "QueryBatch",
    "UpdateBatch",
    "Event",
    "uniform_traffic",
    "zipf_hotspot_traffic",
    "rush_hour_traffic",
    "commute_traffic",
    "cross_region_pairs",
    "replay",
    "ReplayReport",
]


@dataclass(frozen=True)
class QueryBatch:
    """One service call answering a batch of (s, t) pairs."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class UpdateBatch:
    """A burst of weight changes submitted to the coalescer."""

    changes: tuple[WeightChange, ...]


Event = Union[QueryBatch, UpdateBatch]


def _scaled(weight: float, factor: float) -> float:
    """Integral scaled weight (integer weights keep maintenance exact)."""
    return float(max(1, round(weight * factor)))


def _finite_edges(graph: Graph) -> list[tuple[int, int, float]]:
    return [(u, v, w) for u, v, w in graph.edges() if np.isfinite(w)]


# ---------------------------------------------------------------------------
# traffic shapes
# ---------------------------------------------------------------------------

def uniform_traffic(
    graph: Graph,
    *,
    query_batches: int = 50,
    batch_size: int = 200,
    update_every: int = 5,
    update_size: int = 16,
    seed: int | np.random.Generator | None = 0,
) -> list[Event]:
    """Uniform random pairs with periodic random weight churn."""
    rng = make_rng(seed)
    edges = _finite_edges(graph)
    events: list[Event] = []
    factors = (0.5, 0.75, 1.5, 2.0)
    for batch_no in range(query_batches):
        if update_every and batch_no and batch_no % update_every == 0:
            picks = rng.choice(len(edges), size=min(update_size, len(edges)), replace=False)
            changes = tuple(
                (edges[int(p)][0], edges[int(p)][1],
                 _scaled(edges[int(p)][2], factors[int(rng.integers(len(factors)))]))
                for p in picks
            )
            events.append(UpdateBatch(changes))
        events.append(
            QueryBatch(tuple(sample_pairs(graph.num_vertices, batch_size, rng)))
        )
    # Close the stream by restoring every touched edge to its base weight.
    events.append(
        UpdateBatch(tuple((u, v, w) for u, v, w in edges))
    )
    return events


def zipf_hotspot_traffic(
    graph: Graph,
    *,
    query_batches: int = 50,
    batch_size: int = 200,
    alpha: float = 1.2,
    update_every: int = 5,
    update_size: int = 16,
    seed: int | np.random.Generator | None = 0,
) -> list[Event]:
    """Zipf-skewed endpoints: a few hotspot vertices dominate traffic.

    Endpoints are drawn by Zipf rank over a fixed random permutation of
    the vertices, so the hottest vertex differs per seed but stays hot
    for the whole stream — the regime where an epoch-guarded cache keeps
    most queries off the label arrays.
    """
    if alpha <= 1.0:
        raise ValueError("zipf exponent alpha must exceed 1")
    rng = make_rng(seed)
    n = graph.num_vertices
    perm = rng.permutation(n)
    edges = _finite_edges(graph)
    factors = (0.5, 2.0)

    def zipf_vertices(count: int) -> np.ndarray:
        ranks = (rng.zipf(alpha, size=count) - 1) % n
        return perm[ranks]

    events: list[Event] = []
    for batch_no in range(query_batches):
        if update_every and batch_no and batch_no % update_every == 0:
            picks = rng.choice(len(edges), size=min(update_size, len(edges)), replace=False)
            changes = tuple(
                (edges[int(p)][0], edges[int(p)][1],
                 _scaled(edges[int(p)][2], factors[int(rng.integers(len(factors)))]))
                for p in picks
            )
            events.append(UpdateBatch(changes))
        s = zipf_vertices(batch_size)
        t = zipf_vertices(batch_size)
        # Redraw collisions uniformly so self-pairs stay rare but legal.
        clash = s == t
        while clash.any():
            t[clash] = rng.integers(0, n, size=int(clash.sum()))
            clash = s == t
        events.append(QueryBatch(tuple(zip(s.tolist(), t.tolist()))))
    events.append(UpdateBatch(tuple((u, v, w) for u, v, w in edges)))
    return events


def rush_hour_traffic(
    graph: Graph,
    *,
    cycles: int = 3,
    arterial_edges: int = 24,
    ramp_factors: tuple[float, ...] = (1.5, 2.0, 3.0),
    peak_batches: int = 6,
    peak_batch_size: int = 400,
    offpeak_batches: int = 4,
    offpeak_batch_size: int = 100,
    seed: int | np.random.Generator | None = 0,
) -> list[Event]:
    """Congestion cycles over sampled arterial edge sets.

    Each cycle emits the ramp as *consecutive* update bursts re-touching
    the same edges (1.5x, then 2x, then 3x base weight) — exactly the
    redundancy the coalescer folds into one maintenance pass — followed
    by a peak query storm, an instant clearing, and an off-peak lull.
    """
    rng = make_rng(seed)
    n = graph.num_vertices
    edges = _finite_edges(graph)
    size = min(arterial_edges, len(edges))
    events: list[Event] = []
    for _ in range(cycles):
        picks = [edges[int(p)] for p in rng.choice(len(edges), size=size, replace=False)]
        for factor in ramp_factors:
            events.append(
                UpdateBatch(tuple((u, v, _scaled(w, factor)) for u, v, w in picks))
            )
        for _ in range(peak_batches):
            events.append(
                QueryBatch(tuple(sample_pairs(n, peak_batch_size, rng)))
            )
        events.append(UpdateBatch(tuple((u, v, w) for u, v, w in picks)))
        for _ in range(offpeak_batches):
            events.append(
                QueryBatch(tuple(sample_pairs(n, offpeak_batch_size, rng)))
            )
    return events


def cross_region_pairs(
    region_of: np.ndarray,
    count: int,
    seed: int | np.random.Generator | None = 0,
    boundary: "list[list[int]] | None" = None,
    boundary_bias: float = 0.5,
) -> list[tuple[int, int]]:
    """Cross-region commute pairs — the sharded index's worst case.

    Every pair straddles two distinct regions of *region_of* (a
    per-vertex region assignment, e.g.
    :attr:`~repro.partition.RegionPartition.region_of`), so a sharded
    backend can never answer from a single shard: each query pays the
    source-fan + overlay + target-fan combine. With *boundary* given
    (per-region boundary vertex lists), each endpoint is drawn from its
    region's boundary set with probability *boundary_bias* — commutes
    that hug the partition frontier, where the overlay detour is least
    amortised.

    Requires at least two regions; a single-region assignment raises.
    """
    rng = make_rng(seed)
    region_of = np.asarray(region_of, dtype=np.int64)
    num_regions = int(region_of.max()) + 1 if len(region_of) else 0
    if num_regions < 2:
        raise ValueError("cross-region pairs need at least two regions")
    members = [np.flatnonzero(region_of == r) for r in range(num_regions)]
    boundary_arrays = None
    if boundary is not None:
        boundary_arrays = [np.asarray(b, dtype=np.int64) for b in boundary]

    def draw(region: int) -> int:
        if (
            boundary_arrays is not None
            and len(boundary_arrays[region])
            and rng.random() < boundary_bias
        ):
            pool = boundary_arrays[region]
        else:
            pool = members[region]
        return int(pool[rng.integers(len(pool))])

    pairs: list[tuple[int, int]] = []
    for _ in range(count):
        rs, rt = rng.choice(num_regions, size=2, replace=False)
        pairs.append((draw(int(rs)), draw(int(rt))))
    return pairs


def commute_traffic(
    graph: Graph,
    region_of: np.ndarray,
    *,
    boundary: "list[list[int]] | None" = None,
    query_batches: int = 50,
    batch_size: int = 200,
    update_every: int = 5,
    update_size: int = 16,
    cut_edge_bias: float = 0.5,
    seed: int | np.random.Generator | None = 0,
) -> list[Event]:
    """Cross-region commute stream over a fixed region assignment.

    Query pairs always straddle two regions (drawn via
    :func:`cross_region_pairs`, boundary-biased when *boundary* is
    given); periodic weight churn picks cut edges with probability
    *cut_edge_bias* — the exact updates that force a sharded backend to
    refresh its overlay.
    """
    rng = make_rng(seed)
    region_of = np.asarray(region_of, dtype=np.int64)
    edges = _finite_edges(graph)
    cut = [
        (u, v, w) for u, v, w in edges if region_of[u] != region_of[v]
    ]
    factors = (0.5, 0.75, 1.5, 2.0)

    def churn() -> UpdateBatch:
        changes = []
        seen: set[tuple[int, int]] = set()
        while len(changes) < min(update_size, len(edges)):
            pool = cut if cut and rng.random() < cut_edge_bias else edges
            u, v, w = pool[int(rng.integers(len(pool)))]
            if (u, v) in seen:
                continue
            seen.add((u, v))
            factor = factors[int(rng.integers(len(factors)))]
            changes.append((u, v, _scaled(w, factor)))
        return UpdateBatch(tuple(changes))

    events: list[Event] = []
    for batch_no in range(query_batches):
        if update_every and batch_no and batch_no % update_every == 0:
            events.append(churn())
        events.append(
            QueryBatch(
                tuple(
                    cross_region_pairs(
                        region_of, batch_size, rng, boundary=boundary
                    )
                )
            )
        )
    events.append(UpdateBatch(tuple((u, v, w) for u, v, w in edges)))
    return events


# ---------------------------------------------------------------------------
# replay driver
# ---------------------------------------------------------------------------

@dataclass
class ReplayReport:
    """Outcome of replaying an event stream through a service."""

    wall_seconds: float
    query_batches: int
    update_batches: int
    queries: int
    updates_submitted: int
    distance_checksum: float
    service: ServiceStats = field(repr=False)

    @property
    def queries_per_second(self) -> float:
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> str:
        head = (
            f"replayed {self.query_batches} query batches "
            f"({self.queries} queries) and {self.update_batches} update "
            f"bursts ({self.updates_submitted} changes) in "
            f"{self.wall_seconds:.2f}s — {self.queries_per_second:,.0f} q/s"
        )
        return head + "\n" + self.service.summary()


def replay(service: DistanceService, events: Iterable[Event]) -> ReplayReport:
    """Drive *events* through *service*, then flush any trailing updates."""
    query_batches = update_batches = queries = submitted = 0
    checksum = 0.0
    with Timer() as timer:
        for event in events:
            if isinstance(event, QueryBatch):
                out = service.distances(event.pairs)
                finite = np.isfinite(out)
                checksum += float(out[finite].sum())
                query_batches += 1
                queries += len(event.pairs)
            else:
                service.submit_many(event.changes)
                update_batches += 1
                submitted += len(event.changes)
        service.flush()
    return ReplayReport(
        wall_seconds=timer.seconds,
        query_batches=query_batches,
        update_batches=update_batches,
        queries=queries,
        updates_submitted=submitted,
        distance_checksum=checksum,
        service=service.stats(),
    )

"""Workload generators following the paper's experimental protocol.

Section 7: update workloads sample random edge batches, double their
weights (increase), then restore them (decrease); query workloads are
uniform random pairs plus ten distance-stratified sets ``Q1..Q10`` whose
ranges grow geometrically from 1,000 to the network diameter.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.graph.graph import EdgeTriple, Graph
from repro.utils.rng import make_rng, sample_pairs

__all__ = [
    "sample_update_batches",
    "double_weights",
    "restore_weights",
    "scale_weights",
    "random_query_pairs",
    "distance_stratified_queries",
]


def sample_update_batches(
    graph: Graph,
    batches: int,
    batch_size: int,
    seed: int | np.random.Generator | None = 0,
) -> list[list[EdgeTriple]]:
    """Sample *batches* disjoint-within-batch edge sets with weights.

    Each batch lists ``(u, v, current_weight)`` for ``batch_size`` random
    finite-weight edges (without replacement inside a batch, matching the
    paper's 10 batches of 1,000 updates).
    """
    rng = make_rng(seed)
    edges = [(u, v, w) for u, v, w in graph.edges() if math.isfinite(w)]
    if not edges:
        raise ValueError("graph has no finite-weight edges to update")
    size = min(batch_size, len(edges))
    result = []
    for _ in range(batches):
        picks = rng.choice(len(edges), size=size, replace=False)
        result.append([edges[int(p)] for p in picks])
    return result


def double_weights(batch: list[EdgeTriple]) -> list[EdgeTriple]:
    """Increase workload: weights doubled (the paper's 2.0 x w)."""
    return [(u, v, 2.0 * w) for u, v, w in batch]


def restore_weights(batch: list[EdgeTriple]) -> list[EdgeTriple]:
    """Decrease workload: restore the original weights."""
    return [(u, v, w) for u, v, w in batch]


def scale_weights(batch: list[EdgeTriple], factor: float) -> list[EdgeTriple]:
    """Figure 5 workload: weights scaled to ``factor * w``."""
    return [(u, v, factor * w) for u, v, w in batch]


def random_query_pairs(
    n: int, count: int, seed: int | np.random.Generator | None = 0
) -> list[tuple[int, int]]:
    """Uniform random distinct (s, t) pairs (Table 3 protocol)."""
    return sample_pairs(n, count, make_rng(seed))


def distance_stratified_queries(
    distance: Callable[[int, int], float],
    n: int,
    per_set: int,
    seed: int | np.random.Generator | None = 0,
    num_sets: int = 10,
    l_min: float = 1_000.0,
    max_attempts_factor: int = 400,
) -> list[list[tuple[int, int]]]:
    """The paper's ``Q1..Q10`` sets with geometrically growing distances.

    With ``x = (l_max / l_min)^(1/num_sets)``, set ``Q_i`` holds pairs
    whose distance falls in ``(l_min * x^(i-1), l_min * x^i]``. ``l_max``
    is estimated from a random sample. Buckets that the graph cannot fill
    (few pairs that far apart) are returned partially filled.
    """
    rng = make_rng(seed)
    probe = sample_pairs(n, min(2_000, 4 * per_set * num_sets), rng)
    l_max = max(
        (distance(s, t) for s, t in probe if math.isfinite(distance(s, t))),
        default=l_min * 2,
    )
    l_max = max(l_max, l_min * 2)
    x = (l_max / l_min) ** (1.0 / num_sets)

    sets: list[list[tuple[int, int]]] = [[] for _ in range(num_sets)]
    needed = num_sets * per_set
    attempts = 0
    max_attempts = max_attempts_factor * needed
    filled = 0
    while filled < needed and attempts < max_attempts:
        attempts += 1
        s = int(rng.integers(0, n))
        t = int(rng.integers(0, n))
        if s == t:
            continue
        d = distance(s, t)
        if not math.isfinite(d) or d <= l_min:
            continue
        bucket = min(num_sets - 1, int(math.ceil(math.log(d / l_min, x))) - 1)
        if len(sets[bucket]) < per_set:
            sets[bucket].append((s, t))
            filled += 1
    return sets

"""The oracle kernels really replace the C ones, and agree with them.

Inside :func:`~tests.oracles.kernels.python_kernels` an update, every
query shape, a label build and a result cache's probes and fills must
run without a single call into the library (the partitioner, which has
its own oracle pipeline, runs at build time outside it), and give the C
kernels' bits.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.sharded import ShardedDHLIndex
from repro.graph.generators import grid_network
from repro.labelling.build import build_labelling
from repro.labelling.native import engine as native_engine
from repro.service import DistanceService
from tests.oracles.kernels import python_kernels


def exercise(index, sharded, burst, pairs) -> list[np.ndarray]:
    index.update(burst)
    sharded.update(burst)
    ids = np.arange(0, index.graph.num_vertices, 5)
    with DistanceService(index, cache_capacity=64) as service:
        served = [service.distances(pairs), service.distances(pairs[::-1])]
        served.append(np.array([service.distance(1, 7), service.distance(7, 1)]))
        served.append(np.array(astuple(service.stats().cache)))
    return [
        index.labels.values.copy(),
        index.hu.up_weights.copy(),
        *index.engine.distances_with_hubs(pairs),
        index.engine.distance_matrix(ids, ids[::3]),
        build_labelling(index.hu).values,
        sharded.distances(pairs),
        *served,
    ]


def test_the_oracles_never_enter_c_and_give_its_bits(monkeypatch):
    graph = grid_network(10, 10, seed=1)
    config = DHLConfig(seed=0)
    builds = [
        (
            DHLIndex.build(graph.copy(), config),
            ShardedDHLIndex.build(graph.copy(), k=2, config=config),
        )
        for _ in range(2)
    ]
    roads = list(graph.edges())
    burst = [(u, v, 3 * w) for u, v, w in roads[:12]]
    burst += [(u, v, max(1.0, w // 2)) for u, v, w in roads[12:24]]
    pairs = np.random.default_rng(3).integers(0, graph.num_vertices, (300, 2))
    want = exercise(*builds[0], burst, pairs)

    def refuse():
        raise AssertionError("an oracle kernel called into the C library")

    monkeypatch.setattr(native_engine, "library", refuse)
    with python_kernels():
        got = exercise(*builds[1], burst, pairs)
    for ours, theirs in zip(got, want, strict=True):
        assert ours.tobytes() == theirs.tobytes()

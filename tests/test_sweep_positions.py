"""The label sweep lists every label entry it writes.

:func:`repro.labelling.driver.maintain` returns the sweep's own list of
written flat positions on ``MaintenanceStats.label_positions``, one
``int64`` array per weight plane. A shard runtime ships exactly those
entries to its replicas, so a changed entry the list missed would leave
every replica stale. Each plane's list is held to a before/after diff of
that plane's values over rolling bursts — on a grid and a road graph,
undirected and on both planes of a directed index, on the C sweep and
on its oracle — and per shard of a sharded index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.labelling.maintenance import MaintenanceStats
from tests.conftest import build_sharded
from tests.strategies import rolling_stream

GRAPHS = {
    "grid": lambda: grid_network(12, 12, seed=3),
    "road": lambda: delaunay_network(300, seed=77),
}


def _rolling(edges, rounds: int = 8, group: int = 8):
    """Burst ``j`` doubles group ``j`` and restores group ``j - 1``."""
    rng = np.random.default_rng(5)
    picks = rng.permutation(len(edges))[: rounds * group].reshape(rounds, group)
    previous: list = []
    for pick in picks:
        current = [edges[i] for i in pick]
        yield [(u, v, 2 * w) for u, v, w in current] + previous
        previous = current


def _check_lists_the_diff(stats, labellings, before) -> int:
    """Each plane's positions: distinct, inside a label run, a fresh
    copy, and a superset of the entries whose value moved. Returns the
    number of moved entries."""
    assert len(stats.label_positions) == len(labellings)
    moved = 0
    for positions, labels, old in zip(stats.label_positions, labellings, before):
        assert positions.dtype == np.int64 and positions.base is None
        assert len(np.unique(positions)) == len(positions)
        # Rows are contiguous: inside the entries is inside a label run.
        assert ((positions >= 0) & (positions < labels.num_entries)).all()
        changed = np.flatnonzero(old != labels.values)
        assert np.isin(changed, positions).all()
        moved += len(changed)
    assert sum(map(len, stats.label_positions)) == stats.labels_changed
    return moved


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("name", list(GRAPHS))
def test_every_written_entry_is_listed(on_kernels, name, directed):
    graph = GRAPHS[name]()
    config = DHLConfig(seed=0)
    if directed:
        digraph = DiGraph.from_undirected(graph)
        for i, (u, v, w) in enumerate(list(digraph.arcs())):
            if i % 3 == 0:
                digraph.set_weight(u, v, float(w + 5))
        index = DirectedDHLIndex.build(digraph, config)
        edges = list(digraph.arcs())
    else:
        index = DHLIndex.build(graph, config)
        edges = list(graph.edges())
    moved = [0] * len(index.labellings)
    for burst in _rolling(edges):
        before = [labels.values.copy() for labels in index.labellings]
        stats = index.update(burst)
        _check_lists_the_diff(stats, index.labellings, before)
        for plane, positions in enumerate(stats.label_positions):
            moved[plane] += len(positions)
    assert all(moved), "every plane must see written entries"


def test_each_shard_keeps_its_own_positions():
    """A sharded update keeps each shard's positions on
    ``per_shard[sid]`` (local to that shard's store); the aggregate
    lists none."""
    index = build_sharded(grid_network(12, 12))
    for changes, _ in rolling_stream(index.graph, index.region_of, group=8):
        before = {sid: index.shards[sid].labels.values.copy() for sid in range(index.k)}
        stats = index.update(changes)
        assert stats.label_positions is None
        for sid, shard_stats in stats.per_shard.items():
            labels = index.shards[sid].labels
            _check_lists_the_diff(shard_stats, (labels,), (before[sid],))
        for sid in set(range(index.k)) - set(stats.per_shard):
            np.testing.assert_array_equal(before[sid], index.shards[sid].labels.values)


def test_merge_concatenates_positions_plane_by_plane():
    def stats(*planes):
        return MaintenanceStats(
            label_positions=tuple(np.array(p, dtype=np.int64) for p in planes)
        )

    merged = stats([1, 2], [7]).merge(stats([3], []))
    assert [p.tolist() for p in merged.label_positions] == [[1, 2, 3], [7]]
    # No entry written is the identity; an unknown set absorbs the rest.
    assert MaintenanceStats().merge(stats([4])).label_positions[0].tolist() == [4]
    assert stats([4]).merge(MaintenanceStats()).label_positions[0].tolist() == [4]
    unknown = MaintenanceStats(label_positions=None)
    assert stats([4]).merge(unknown).label_positions is None
    assert unknown.merge(stats([4])).label_positions is None

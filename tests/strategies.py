"""Hypothesis strategies and shared event streams for the test suite."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.core.stats import IndexStats
from repro.graph.graph import Graph
from repro.hierarchy.query_hierarchy import QueryHierarchy
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.build import build_labelling
from repro.partition.recursive import PartitionTreeNode


@st.composite
def road_lists(draw, max_n: int = 14):
    """``(n, roads)``: random roads, duplicates and self-pairs dropped
    by the caller, with inf (deleted) and fractional weights; nothing
    keeps the graph connected."""
    n = draw(st.integers(2, max_n))
    weight = st.one_of(
        st.integers(0, 30).map(float),
        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
        st.just(math.inf),
    )
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
    roads = draw(st.lists(pairs, max_size=3 * n))
    return n, [(u, v, w) for u, v, w in roads if u != v]


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 24, max_weight: int = 30):
    """Connected undirected graphs with integer weights.

    A random spanning path guarantees connectivity; extra random edges
    add cycles. Weights are integers (the library's recommended regime).
    """
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(range(n)))
    weights = st.integers(1, max_weight)
    edges: dict[tuple[int, int], float] = {}
    for i in range(n - 1):
        u, v = perm[i], perm[i + 1]
        key = (min(u, v), max(u, v))
        edges[key] = float(draw(weights))
    extra_count = draw(st.integers(0, 2 * n))
    for _ in range(extra_count):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = float(draw(weights))
    g = Graph(n)
    for (u, v), w in edges.items():
        g.add_edge(u, v, w)
    return g


@st.composite
def update_sequences(draw, graph: Graph, max_steps: int = 6, max_batch: int = 4):
    """Sequences of mixed weight-update batches for *graph*.

    Each step is a batch of ``(u, v, new_weight)`` with integer weights;
    roughly half increases, half decreases relative to a plausible range.
    """
    edges = list(graph.edges())
    steps = draw(st.integers(1, max_steps))
    sequence = []
    for _ in range(steps):
        size = draw(st.integers(1, min(max_batch, len(edges))))
        idx = draw(
            st.lists(
                st.integers(0, len(edges) - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        batch = []
        for i in idx:
            u, v, _ = edges[i]
            batch.append((u, v, float(draw(st.integers(1, 60)))))
        sequence.append(batch)
    return sequence


def assert_stats_match(array_stats, reference_stats) -> None:
    """The engine-independent fields of two maintenance passes agree."""
    assert array_stats.shortcuts_changed == reference_stats.shortcuts_changed
    assert array_stats.labels_changed == reference_stats.labels_changed
    assert array_stats.affected_shortcuts == reference_stats.affected_shortcuts
    assert array_stats.affected_labels == reference_stats.affected_labels


#: Caterpillar depths at the edges of the C LCA's 64-bit path words:
#: one word just short of full, full, and one bit into the next word.
WORD_EDGES = [63, 64, 65, 128, 129]


def caterpillar_index(spine: int, config: DHLConfig | None = None) -> DHLIndex:
    """A path with one leg per vertex under a depth-``spine`` hierarchy.

    Node ``i`` of the partition tree owns spine vertex ``i`` alone; its
    children are leg ``i`` and the rest of the spine, so the tree is as
    deep as the spine is long: its path bits fill ``ceil(spine / 64)``
    of the C LCA's words, and past depth 50 the oracles' numpy K count
    goes pair by pair.
    """
    graph = Graph(2 * spine)
    for i in range(spine):
        graph.add_edge(i, spine + i, float(1 + i % 5))
        if i + 1 < spine:
            graph.add_edge(i, i + 1, float(2 + i % 3))
    node = PartitionTreeNode(
        vertices=[spine - 1], children=[PartitionTreeNode(vertices=[2 * spine - 1])]
    )
    for i in range(spine - 2, -1, -1):
        node = PartitionTreeNode(
            vertices=[i], children=[PartitionTreeNode(vertices=[spine + i]), node]
        )
    hq = QueryHierarchy.from_partition_tree(node, graph.num_vertices)
    hu = UpdateHierarchy.build(graph, hq)
    labels = build_labelling(hu)
    stats = IndexStats(num_vertices=graph.num_vertices, num_edges=graph.num_edges)
    return DHLIndex(graph, hq, hu, labels, config or DHLConfig(seed=0), stats)


def pair_matrix(engine, sources, targets) -> np.ndarray:
    """The pair kernel on the expanded ``sources x targets`` pairs —
    the reference every set-to-set matrix is compared with."""
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    s = np.repeat(sources, len(targets))
    t = np.concatenate([targets] * len(sources)) if len(sources) else targets[:0]
    return engine.distances_arrays(s, t).reshape(len(sources), len(targets))


def rolling_stream(
    graph: Graph, region_of, rounds: int = 5, seed: int = 0, group: int = 6
):
    """Rolling update bursts interleaved with mixed intra/cross batches.

    Yields ``(changes, pairs)`` per round. Burst ``j`` doubles the
    weights of the *group* edges of group ``j`` and restores group
    ``j - 1`` in the same call (the benchmark's rolling shape: every
    burst mixes increase and decrease work and weights are never at
    base mid-stream); the pairs are half intra-region, half
    cross-region, shuffled, with repeated endpoints and one self pair.
    """
    rng = np.random.default_rng(seed)
    edges = list(graph.edges())
    picks = rng.permutation(len(edges))[: group * rounds].reshape(rounds, group)
    region_of = np.asarray(region_of)
    by_region = [np.flatnonzero(region_of == r) for r in range(region_of.max() + 1)]
    previous: list = []
    for pick in picks:
        current = [edges[i] for i in pick]
        changes = [(u, v, 2 * w) for u, v, w in current] + previous
        previous = current
        pairs = [(int(by_region[0][0]), int(by_region[0][0]))]
        for _ in range(24):
            a, b = rng.choice(len(by_region), 2, replace=False)
            pairs.append((int(rng.choice(by_region[a])), int(rng.choice(by_region[a]))))
            pairs.append((int(rng.choice(by_region[a])), int(rng.choice(by_region[b]))))
        pairs += pairs[3:9]
        yield changes, [pairs[i] for i in rng.permutation(len(pairs))]


def assert_stream_parity(
    runtimes, graph: Graph, region_of, seed: int = 0, group: int = 6, after_update=None
) -> None:
    """Replay :func:`rolling_stream` through every runtime in lockstep.

    Each runtime owns its own copy of the index. Every batch must come
    back bit-identical from all of them and equal Dijkstra on the
    first runtime's (updated) graph. *after_update*, when given, is
    called after every burst with the runtimes' ``apply_update``
    results.
    """
    for changes, pairs in rolling_stream(graph, region_of, seed=seed, group=group):
        results = [runtime.apply_update(changes) for runtime in runtimes]
        if after_update is not None:
            after_update(results)
        answers = [runtime.distances(pairs) for runtime in runtimes]
        for other in answers[1:]:
            np.testing.assert_array_equal(other, answers[0])
        current = runtimes[0].index.graph
        rows = {s: dijkstra(current, s) for s in {s for s, _ in pairs}}
        want = np.array([rows[s][t] for s, t in pairs])
        np.testing.assert_array_equal(answers[0], want)

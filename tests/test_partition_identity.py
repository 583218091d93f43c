"""The fast partitioner makes the oracle's decisions, bit for bit.

``tests/partition_oracle.py`` holds the dict-row / ``LazyHeap`` bodies
``repro.partition`` was rewritten from. Identity is checked (a) function
by function on random inputs, (b) through whole builds with the oracle
bodies patched into the pipeline, both sides in one process, plus (c)
seed determinism, (d) a guard that the FM pass really stops on its bound
and (e) that repeated candidates are refined once. Every step has two
implementations, the C one (``compiled``, :mod:`repro.partition.kernels`)
and the Python body (``reference``): (a), (b) and (d) run on both, and
(f) requires whole trees and bisections of both engines to be equal on
random graph families.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PartitionError
from repro.graph.generators import (
    delaunay_network,
    grid_network,
    random_connected_graph,
)
from repro.graph.graph import Graph
from repro.partition import (
    coarsen,
    fm,
    initial,
    kernels,
    multilevel,
    partition_regions,
    recursive_bisection,
    spectral,
)
from repro.partition.types import PartitionGraph
from tests import partition_oracle as oracle
from tests.conftest import require_engine
from tests.test_recursive_partition import (
    check_balance,
    check_separators,
    collect_vertices,
)

# ---------------------------------------------------------------------------
# (a) function-by-function differential
# ---------------------------------------------------------------------------


@st.composite
def partition_cases(draw, max_n: int = 26):
    """A coarse-style PartitionGraph, a side array and a balance bound.

    Multiplicities are small integers in floats and rows are filled in a
    random order (both decide gain-queue ties); vertex weights vary;
    sides are random, skewed to one side, or zero-cut; the bound ranges
    from hopelessly infeasible to slack.
    """
    n = draw(st.integers(2, max_n))
    vertex = st.integers(0, n - 1)
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for u, v, w in draw(
        st.lists(st.tuples(vertex, vertex, st.integers(1, 5)), max_size=3 * n)
    ):
        if u != v and v not in adj[u]:
            adj[u][v] = adj[v][u] = float(w)
    vweight = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    pg = PartitionGraph(adj, vweight)

    kind = draw(st.sampled_from(["random", "skewed", "one-sided", "zero-cut"]))
    if kind == "random":
        side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    elif kind == "skewed":
        picks = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        side = [int(p == 0) for p in picks]
    elif kind == "one-sided":
        side = [draw(st.integers(0, 1))] * n
    else:
        side = [0] * n
        for _, members in initial.components(pg):
            s = draw(st.integers(0, 1))
            for v in members:
                side[v] = s
    bound = draw(st.integers(1, sum(vweight)))
    return pg, np.array(side, dtype=np.int8), bound


def same_sides(new, old) -> bool:
    return np.array_equal(np.frombuffer(bytes(new), dtype=np.int8), old)


ENGINES = ["compiled", "reference"]


class _Reference:
    """The Python steps under the names :mod:`repro.partition.kernels`
    gives their C twins."""

    fm_refine = staticmethod(fm.fm_refine)
    rebalance = staticmethod(fm.rebalance)
    greedy_growing = staticmethod(initial.greedy_growing)
    bfs_halves = staticmethod(initial.bfs_halves)
    components = staticmethod(initial.components)
    coarsen_once = staticmethod(coarsen.coarsen_once)
    cut_weight = staticmethod(multilevel._cut_weight)


def steps(engine: str):
    """The partitioner's steps on *engine*."""
    require_engine(engine)
    return kernels if engine == "compiled" else _Reference


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=300, deadline=None)
@given(partition_cases(), st.sampled_from([1, 8]))
def test_fm_refine_matches_oracle(engine, case, max_passes):
    refine = steps(engine).fm_refine
    pg, side, bound = case
    before = side.copy()
    new = refine(pg, side, bound, max_passes)
    assert same_sides(new, oracle.fm_refine(pg, side, bound, max_passes))
    assert np.array_equal(side, before)  # input untouched
    # any 0/1 sequence is accepted, whatever its dtype
    assert refine(pg, side.astype(np.int64), bound, max_passes) == new
    assert refine(pg, side.tolist(), bound, max_passes) == new


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=200, deadline=None)
@given(partition_cases())
def test_rebalance_matches_oracle(engine, case):
    pg, side, bound = case
    assert same_sides(
        steps(engine).rebalance(pg, side, bound), oracle.rebalance(pg, side, bound)
    )


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=200, deadline=None)
@given(partition_cases())
def test_cut_weight_matches_oracle(engine, case):
    pg, side, _ = case
    cut_weight = steps(engine).cut_weight
    expected = oracle._cut_weight(pg, side)
    assert cut_weight(pg, side) == expected
    assert cut_weight(pg, bytearray(side)) == expected


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=200, deadline=None)
@given(partition_cases(), st.integers(0, 2**32 - 1), st.data())
def test_greedy_growing_matches_oracle(engine, case, seed, data):
    greedy_growing = steps(engine).greedy_growing
    pg = case[0]
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(
        greedy_growing(pg, rng_new), oracle.greedy_growing(pg, rng_old)
    )
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    seed_vertex = data.draw(st.integers(0, pg.num_vertices - 1))
    assert np.array_equal(
        greedy_growing(pg, rng_new, seed_vertex=seed_vertex),
        oracle.greedy_growing(pg, rng_old, seed_vertex=seed_vertex),
    )
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=200, deadline=None)
@given(partition_cases(), st.integers(0, 2**32 - 1))
def test_bfs_halves_and_components_match_oracle(engine, case, seed):
    impl = steps(engine)
    pg = case[0]  # often disconnected: the id-order remainder is covered
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(impl.bfs_halves(pg, rng_new), oracle.bfs_halves(pg, rng_old))
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    assert impl.components(pg) == oracle.components(pg)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=200, deadline=None)
@given(partition_cases(), st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_coarsen_once_matches_oracle(engine, case, seed, max_vertex_weight):
    pg = case[0]
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = steps(engine).coarsen_once(pg, rng_new, max_vertex_weight)
    old = oracle.coarsen_once(pg, rng_old, max_vertex_weight)
    assert np.array_equal(new.fine_to_coarse, old.fine_to_coarse)
    assert new.graph.rows == old.graph.rows  # pair order included
    assert new.graph.vweight == old.graph.vweight
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


# ---------------------------------------------------------------------------
# (b) whole pipeline, oracle bodies patched in, same process
# ---------------------------------------------------------------------------


class _NeverSeen(bytearray):
    """A side whose memo key is new every time: under the oracle, every
    rebalanced candidate is refined, repeated or not, as it used to be."""

    _keys = itertools.count()

    def __bytes__(self) -> bytes:
        return next(self._keys).to_bytes(8, "big")


def _oracle_rebalance(pgraph, side, max_side_weight):
    return _NeverSeen(oracle.rebalance(pgraph, bytearray(side), max_side_weight))


def patch_oracle(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(multilevel, "fm_refine", oracle.fm_refine)
    mp.setattr(multilevel, "rebalance", _oracle_rebalance)
    mp.setattr(multilevel, "greedy_growing", oracle.greedy_growing)
    mp.setattr(multilevel, "bfs_halves", oracle.bfs_halves)
    mp.setattr(multilevel, "components", oracle.components)
    mp.setattr(multilevel, "_cut_weight", oracle._cut_weight)
    mp.setattr(coarsen, "coarsen_once", oracle.coarsen_once)


def preorder(tree) -> list[tuple[list[int], int]]:
    return [(list(node.vertices), len(node.children)) for node in tree.iter_nodes()]


def both(build, engine: str = "compiled"):
    """``build(engine)`` and, under the oracle bodies, ``build("reference")``
    (the oracle bodies stand in for the reference engine's)."""
    require_engine(engine)
    with pytest.MonkeyPatch.context() as mp:
        patch_oracle(mp)
        expected = build("reference")
    return build(engine), expected


def star(leaves: int) -> Graph:
    g = Graph(leaves + 1)
    for leaf in range(1, leaves + 1):
        g.add_edge(0, leaf, 1.0)
    return g


def path(n: int) -> Graph:
    g = Graph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1, 1.0)
    return g


def giant_and_crumbs() -> Graph:
    """A 500-vertex component over the balance bound, plus two small ones."""
    giant = delaunay_network(500, seed=11)
    g = Graph(540)
    for u, v, w in giant.edges():
        g.add_edge(u, v, w)
    for v in range(500, 529):
        g.add_edge(v, v + 1, 1.0)
    for v in range(530, 539):
        g.add_edge(v, v + 1, 1.0)
    return g


PIPELINE_CASES = {
    "grid-20x31": (lambda: grid_network(20, 31), {}),
    "delaunay-1500": (lambda: delaunay_network(1_500, seed=5), {}),
    "giant-and-crumbs": (giant_and_crumbs, {}),
    "path-300": (lambda: path(300), {}),
    **{
        f"sparse-{seed}-beta{beta}-leaf{leaf}": (
            lambda seed=seed: random_connected_graph(
                150 + 40 * seed, extra_edges=60 + 25 * seed, seed=seed
            ),
            {"beta": beta, "leaf_size": leaf},
        )
        for seed, (beta, leaf) in enumerate(
            [(0.2, 8), (0.35, 4), (0.2, 4), (0.35, 8), (0.2, 8), (0.35, 4)]
        )
    },
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", PIPELINE_CASES)
def test_recursive_bisection_tree_matches_oracle(name, engine):
    make, kwargs = PIPELINE_CASES[name]
    graph = make()
    new, expected = both(
        lambda engine: preorder(
            recursive_bisection(graph, seed=0, engine=engine, **kwargs)
        ),
        engine,
    )
    assert new == expected
    assert sorted(v for vertices, _ in new for v in vertices) == list(graph.vertices())


@pytest.mark.parametrize("engine", ENGINES)
def test_giant_component_case_recurses_on_the_giant(monkeypatch, engine):
    """The case above really bisects the 500-vertex component on its own."""
    require_engine(engine)
    sizes = []
    if engine == "reference":
        real = multilevel.multilevel_bisection
        monkeypatch.setattr(
            multilevel,
            "multilevel_bisection",
            lambda pg, *args: sizes.append(pg.num_vertices) or real(pg, *args),
        )
    else:
        real = kernels.Bisector.disconnected

        def disconnected(ctx):
            packed = real(ctx)
            if not packed:
                sizes.append(ctx.size)
            return packed

        monkeypatch.setattr(kernels.Bisector, "disconnected", disconnected)
    recursive_bisection(giant_and_crumbs(), seed=0, engine=engine)
    assert sizes and sizes[0] == 500


@pytest.mark.parametrize("engine", ENGINES)
def test_star_through_the_lanczos_branch_matches_oracle(monkeypatch, engine):
    """900 leaves: matching stalls, the coarsest graph stays above
    ``_DENSE_CUTOFF`` and the spectral candidate comes from ``eigsh``.

    ``eigsh`` starts from a fixed vector of its own generator, so it
    repeats bit for bit and both builds see the same Fiedler vector of
    the same Laplacian (the C pipeline's comes from its CSR arrays, in
    the same triplet order). The trees would be equal even if it did
    not: every balanced cut of a star is the same 181 leaves, the
    earlier candidates already reach it, and a tie never passes the
    strict ``<``.
    """
    sizes = []
    real = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(
        scipy.sparse.linalg,
        "eigsh",
        lambda lap, **kwargs: sizes.append(lap.shape[0]) or real(lap, **kwargs),
    )
    graph = star(900)
    new, expected = both(
        lambda engine: preorder(recursive_bisection(graph, seed=0, engine=engine)),
        engine,
    )
    assert new == expected
    assert len(sizes) == 2 and min(sizes) > spectral._DENSE_CUTOFF


def test_lanczos_branch_repeats_bit_for_bit():
    """Two spectral bisections of star(900) — the ``eigsh`` branch — give
    the same sides, and leave the caller's generator alone (there is
    none to touch)."""
    pg = PartitionGraph.from_graph(star(900))
    first = spectral.spectral_bisection(pg)
    assert first is not None
    assert np.array_equal(spectral.spectral_bisection(pg), first)
    flat = spectral.spectral_bisection_flat(*pg.flat())
    assert np.array_equal(flat, first)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize(
    "make",
    [lambda: grid_network(20, 31), lambda: delaunay_network(1_500, seed=5)],
    ids=["grid-20x31", "delaunay-1500"],
)
def test_partition_regions_matches_oracle(make, k, engine):
    graph = make()
    new, expected = both(
        lambda engine: partition_regions(graph, k, seed=0, engine=engine).region_of,
        engine,
    )
    assert np.array_equal(new, expected)


# ---------------------------------------------------------------------------
# (c) determinism
# ---------------------------------------------------------------------------


def test_same_seed_same_tree_other_seed_valid_tree():
    graph = delaunay_network(600, seed=21)
    first = recursive_bisection(graph, seed=3)
    assert preorder(recursive_bisection(graph, seed=3)) == preorder(first)
    other = recursive_bisection(graph, seed=4)
    assert sorted(collect_vertices(other)) == list(graph.vertices())
    check_balance(other, 0.2)
    check_separators(other, graph)


# ---------------------------------------------------------------------------
# (d) the FM pass stops on its bound
# ---------------------------------------------------------------------------


class _FMCounter:
    """Counts gain-queue pops (an upper bound on moves) and pass-vertices
    (n per pass that had a boundary to queue) inside the FM *engine*
    runs: its ``heapq`` calls on the Python loop; on the C one, the
    counts the kernel adds to the ``work`` pair of a one-off call or of
    every partitioner context made meanwhile."""

    def __init__(self, mp: pytest.MonkeyPatch, engine: str):
        require_engine(engine)
        self.work = np.zeros(2, dtype=np.int64)  # pops, pass-vertices
        self._n = 0
        self._contexts: list[kernels.Bisector] = []
        if engine == "reference":
            mp.setattr(fm, "heappop", self._pop)
            mp.setattr(fm, "heapify", self._heapify)

            def refine(pgraph, side, *args):
                self._n = pgraph.num_vertices
                return fm.fm_refine(pgraph, side, *args)

            mp.setattr(multilevel, "fm_refine", refine)
        else:
            real_init = kernels.Bisector.__init__

            def init(ctx, *args):
                real_init(ctx, *args)
                self._contexts.append(ctx)

            def refine(*args):
                return kernels.fm_refine(*args, work=self.work)

            mp.setattr(kernels.Bisector, "__init__", init)
        self.fm_refine = refine

    def _total(self, i: int) -> int:
        return int(self.work[i]) + sum(int(ctx.work[i]) for ctx in self._contexts)

    @property
    def pops(self) -> int:
        return self._total(0)

    @property
    def pass_vertices(self) -> int:
        return self._total(1)

    def _pop(self, heap):
        self.work[0] += 1
        return heapq.heappop(heap)

    def _heapify(self, heap):
        self.work[1] += self._n
        heapq.heapify(heap)


@pytest.mark.parametrize("engine", ENGINES)
def test_fm_pass_stops_when_the_bound_closes(monkeypatch, engine):
    """Two disjoint 40-cliques with one vertex on the wrong side: moving
    it back reaches a zero cut, ``room`` closes, and the pass ends after
    that one move instead of dragging all 80 vertices across and back."""
    n = 80
    adj = [
        {u: 1.0 for u in range(n) if u != v and (u < 40) == (v < 40)}
        for v in range(n)
    ]
    pg = PartitionGraph(adj, [1] * n)
    side = np.array([0] * 40 + [1] * 40, dtype=np.int8)
    side[7] = 1
    counter = _FMCounter(monkeypatch, engine)
    refined = counter.fm_refine(pg, side, 60)
    assert same_sides(refined, oracle.fm_refine(pg, side, 60))
    assert multilevel._cut_weight(pg, refined) == 0
    assert counter.pass_vertices == n  # one pass: the second has no cut
    assert counter.pops <= 3  # the drained pass pops every vertex at least once


@pytest.mark.parametrize("engine", ENGINES)
def test_fm_pops_stay_well_under_the_pass_vertices_on_road(monkeypatch, engine):
    """Over a whole build of the bench ``road`` graph, queue pops stay
    under 0.7 x the pass-vertices (0.55 with the bound-based exit, 1.10
    when every pass drains its queue; moves are at most pops — 0.38 vs
    0.83), so losing the exit fails here, not in a benchmark."""
    graph = delaunay_network(4_000, style="uniform", edge_factor=1.35, seed=7)
    counter = _FMCounter(monkeypatch, engine)
    recursive_bisection(graph, seed=0, engine=engine)
    assert counter.pass_vertices > 100_000
    assert counter.pops <= 0.7 * counter.pass_vertices


# ---------------------------------------------------------------------------
# (e) the candidate memo
# ---------------------------------------------------------------------------


def test_colliding_candidates_are_grown_and_refined_once(monkeypatch):
    """A 3-vertex path, four growing seeds: at least two collide, and
    seeds 0 and 1 grow the same side. Growing runs once per distinct
    seed and FM once per distinct rebalanced candidate; the result is the
    oracle's, which grew and refined all five."""
    seeds, rebalanced, refined = [], [], []
    real_growing = multilevel.greedy_growing
    real_rebalance, real_fm = multilevel.rebalance, multilevel.fm_refine

    def spy_growing(pgraph, seed_vertex):
        seeds.append(seed_vertex)
        return real_growing(pgraph, seed_vertex=seed_vertex)

    def spy_rebalance(*args):
        rebalanced.append(bytes(real_rebalance(*args)))
        return bytearray(rebalanced[-1])

    def spy_fm(*args):
        refined.append(bytes(args[1]))
        return real_fm(*args)

    monkeypatch.setattr(multilevel, "greedy_growing", spy_growing)
    monkeypatch.setattr(multilevel, "rebalance", spy_rebalance)
    monkeypatch.setattr(multilevel, "fm_refine", spy_fm)
    pg = PartitionGraph([{1: 1.0}, {0: 1.0, 2: 1.0}, {1: 1.0}], [1, 1, 1])
    bip = multilevel.multilevel_bisection(pg, seed=0, engine="reference")
    assert len(seeds) == len(set(seeds)) < 4
    candidates = rebalanced[:-1]  # the last call is the final safety rebalance
    assert len(candidates) == len(seeds) + 1  # + BFS (n < 4: no spectral)
    assert sorted(refined) == sorted(set(candidates))
    assert len(refined) < len(candidates)

    monkeypatch.undo()
    with pytest.MonkeyPatch.context() as mp:
        patch_oracle(mp)
        expected = multilevel.multilevel_bisection(pg, seed=0, engine="reference")
    assert np.array_equal(bip.side, expected.side)
    assert bip.cut_edges == expected.cut_edges
    require_engine("compiled")
    compiled = multilevel.multilevel_bisection(pg, seed=0, engine="compiled")
    assert np.array_equal(compiled.side, expected.side)
    assert compiled.cut_edges == expected.cut_edges


# ---------------------------------------------------------------------------
# (f) the engines build the same trees
# ---------------------------------------------------------------------------


def test_one_draw_of_the_portfolio_seeds_is_the_scalar_draws():
    """The C pipeline draws the growing and BFS seeds in one
    ``integers(..., size=5)`` call; the reference body draws them one by
    one. Same values, same generator state afterwards."""
    for seed in range(50):
        for n in (2, 3, 7, 120, 121, 4_000):
            one, many = np.random.default_rng(seed), np.random.default_rng(seed)
            one.permutation(n)
            many.permutation(n)
            scalar = [int(many.integers(0, n)) for _ in range(5)]
            assert one.integers(0, n, size=5).tolist() == scalar
            assert one.bit_generator.state == many.bit_generator.state


def _disjoint_union(parts: list[Graph]) -> Graph:
    g = Graph(sum(p.num_vertices for p in parts))
    offset = 0
    for part in parts:
        for u, v, w in part.edges():
            g.add_edge(offset + u, offset + v, w)
        offset += part.num_vertices
    return g


@st.composite
def tree_graphs(draw):
    """Graphs from the families the two engines must partition alike:
    disconnected ones (many pieces, or a giant and crumbs), stars above
    the Lanczos cutoff, and small grids and Delaunay networks."""
    kind = draw(st.sampled_from(["pieces", "giant", "star", "grid", "delaunay"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "pieces":
        sizes = draw(st.lists(st.integers(1, 40), min_size=2, max_size=8))
        return _disjoint_union(
            [random_connected_graph(k, extra_edges=k // 3, seed=seed + i)
             for i, k in enumerate(sizes)]
        )
    if kind == "giant":
        crumbs = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
        giant = delaunay_network(draw(st.integers(60, 300)), seed=seed)
        return _disjoint_union([giant] + [path(k) for k in crumbs])
    if kind == "star":
        return star(draw(st.integers(spectral._DENSE_CUTOFF + 1, 640)))
    if kind == "grid":
        rows, cols = draw(st.integers(2, 16)), draw(st.integers(2, 16))
        return grid_network(rows, cols, seed=seed)
    return delaunay_network(draw(st.integers(10, 400)), seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    tree_graphs(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.2, 0.35, 0.5]),
    st.sampled_from([1, 4, 8]),
)
def test_compiled_tree_equals_reference_tree(graph, seed, beta, leaf_size):
    require_engine("compiled")
    trees = [
        preorder(
            recursive_bisection(
                graph, beta=beta, leaf_size=leaf_size, seed=seed, engine=engine
            )
        )
        for engine in ENGINES
    ]
    assert trees[0] == trees[1]


@settings(max_examples=150, deadline=None)
@given(
    partition_cases(max_n=60),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.2, 0.4]),
)
def test_compiled_bisection_of_a_weighted_graph_equals_reference(case, seed, beta):
    """Vertex-weighted, multiplicity-weighted graphs like coarse levels,
    often disconnected: the whole ``multilevel_bisection`` agrees."""
    require_engine("compiled")
    pg = case[0]

    def outcome(engine):
        try:
            bip = multilevel.multilevel_bisection(
                pg, beta=beta, seed=seed, engine=engine
            )
        except PartitionError as exc:  # a giant of one heavy vertex
            return str(exc)
        return bip.side.tolist(), bip.cut_weight, bip.cut_edges

    assert outcome("compiled") == outcome("reference")


def test_a_giant_of_one_heavy_vertex_raises_on_both_engines():
    pg = PartitionGraph([{}, {}], [4, 1])
    for engine in ENGINES:
        require_engine(engine)
        with pytest.raises(PartitionError, match="fewer than 2"):
            multilevel.multilevel_bisection(pg, beta=0.4, engine=engine)

"""Tests for Hopcroft-Karp matching and Koenig vertex separators.

The separator the partitioner runs is C (``Bisector.split``, over the
cut of the bisection it holds); its oracle is the Python matching and
cover in ``tests/oracles/``. The separator tests run on the oracle, the
matching is held to a brute force, and the C split must be the oracle
cover of the context's own cut, with the two sides around it, on named
graph families and on random graphs.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import delaunay_network, grid_network, random_connected_graph
from repro.graph.graph import Graph
from repro.observability.phases import phase_laps
from repro.partition import kernels
from repro.partition.multilevel import bisect_subset
from repro.utils.rng import make_rng
from tests.oracles import separator
from tests.oracles.matching import hopcroft_karp
from tests.oracles.separator import koenig_cover


def brute_force_max_matching(left: int, right: int, adj: list[list[int]]) -> int:
    """Exponential reference for tiny instances."""
    edges = [(l, r) for l in range(left) for r in adj[l]]
    best = 0
    for size in range(min(left, right), 0, -1):
        for combo in itertools.combinations(edges, size):
            ls = {l for l, _ in combo}
            rs = {r for _, r in combo}
            if len(ls) == size and len(rs) == size:
                return size
    return best


class TestHopcroftKarp:
    def test_perfect_matching(self):
        size, ml, mr = hopcroft_karp(2, 2, [[0, 1], [0]])
        assert size == 2
        assert sorted(ml) == [0, 1]

    def test_empty_graph(self):
        size, ml, mr = hopcroft_karp(3, 3, [[], [], []])
        assert size == 0 and ml == [-1] * 3

    def test_star(self):
        size, _, _ = hopcroft_karp(3, 1, [[0], [0], [0]])
        assert size == 1

    def test_matching_is_consistent(self):
        size, ml, mr = hopcroft_karp(4, 4, [[0, 1], [1, 2], [2, 3], [3]])
        assert size == 4
        for l, r in enumerate(ml):
            assert mr[r] == l

    @settings(deadline=None)  # the exponential oracle can be slow under load
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_matches_brute_force(self, left, right, data):
        adj = [
            sorted(
                data.draw(
                    st.sets(st.integers(0, right - 1), max_size=right),
                    label=f"adj[{l}]",
                )
            )
            for l in range(left)
        ]
        size, ml, mr = hopcroft_karp(left, right, adj)
        assert size == brute_force_max_matching(left, right, adj)
        matched = [(l, r) for l, r in enumerate(ml) if r != -1]
        assert len(matched) == size
        for l, r in matched:
            assert r in adj[l]


class TestKoenigCover:
    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_cover_is_minimum_and_valid(self, left, right, data):
        adj = [
            sorted(
                data.draw(
                    st.sets(st.integers(0, right - 1), max_size=right),
                    label=f"adj[{l}]",
                )
            )
            for l in range(left)
        ]
        size, _, _ = hopcroft_karp(left, right, adj)
        cover_left, cover_right = koenig_cover(left, right, adj)
        # Koenig: |cover| == max matching
        assert len(cover_left) + len(cover_right) == size
        covered_left = set(cover_left)
        covered_right = set(cover_right)
        for l in range(left):
            for r in adj[l]:
                assert l in covered_left or r in covered_right


class TestMinimumVertexSeparator:
    def test_empty_cut(self):
        assert separator.minimum_vertex_separator([]) == set()

    def test_single_edge(self):
        sep = separator.minimum_vertex_separator([(3, 9)])
        assert len(sep) == 1 and sep <= {3, 9}

    def test_star_cut_picks_center(self):
        # vertex 5 on side A touches three cut edges: cover = {5}
        sep = separator.minimum_vertex_separator([(5, 10), (5, 11), (5, 12)])
        assert sep == {5}

    def test_duplicate_edges_ignored(self):
        sep = separator.minimum_vertex_separator([(1, 2), (1, 2)])
        assert len(sep) == 1

    def test_covers_all_edges(self):
        cut = [(0, 10), (1, 10), (1, 11), (2, 12)]
        sep = separator.minimum_vertex_separator(cut)
        for a, b in cut:
            assert a in sep or b in sep
        assert len(sep) <= 3


def star(leaves: int) -> Graph:
    graph = Graph(leaves + 1)
    for leaf in range(1, leaves + 1):
        graph.add_edge(0, leaf, 1.0)
    return graph


def path(n: int) -> Graph:
    graph = Graph(n)
    for v in range(n - 1):
        graph.add_edge(v, v + 1, 1.0)
    return graph


def c_split(graph: Graph, seed: int = 0):
    """One bisection of *graph* on the C context: ``(result, split)``,
    both after the split held to the oracle cover of the result's cut."""
    n = graph.num_vertices
    laps = phase_laps()
    with kernels.Bisector.over_graph(graph, 0.2) as ctx:
        try:
            bisect_subset(ctx, range(n), make_rng(seed), laps)
        finally:
            laps.close()
        bip, (sep, left, right) = ctx.result(), ctx.split()
    want = separator.minimum_vertex_separator(bip.cut_edges)
    sides = bip.side.tolist()
    assert sep == sorted(want)
    assert left == [v for v in range(n) if v not in want and sides[v] == 0]
    assert right == [v for v in range(n) if v not in want and sides[v] == 1]
    return bip, sep


class TestContextSplit:
    def test_a_star_is_split_at_its_centre(self):
        bip, sep = c_split(star(30))
        assert bip.cut_weight > 1 and sep == [0]

    def test_a_path_is_split_at_one_vertex(self):
        bip, sep = c_split(path(40))
        assert bip.cut_weight == 1 and len(sep) == 1

    def test_pieces_need_no_separator(self):
        pieces = Graph(12)
        for v in range(0, 12, 2):
            pieces.add_edge(v, v + 1, 1.0)
        bip, sep = c_split(pieces)
        assert bip.cut_weight == 0 and sep == []

    @pytest.mark.parametrize(
        "make",
        [lambda: grid_network(6, 9, seed=0), lambda: delaunay_network(200, seed=3)],
        ids=["grid", "delaunay"],
    )
    def test_the_separator_covers_every_cut_edge(self, make):
        bip, sep = c_split(make())
        assert bip.cut_edges
        assert all(a in sep or b in sep for a, b in bip.cut_edges)
        assert len(sep) <= len(bip.cut_edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 60), st.integers(0, 40), st.integers(0, 2**16))
def test_c_split_is_the_oracle_cover_of_its_cut(n, extra, seed):
    """On random connected graphs: the C separator is the oracle's
    cover of the C cut, vertex for vertex."""
    c_split(random_connected_graph(n, extra_edges=extra, seed=seed), seed)

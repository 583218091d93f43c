"""Tests for Hopcroft-Karp matching and Koenig vertex separators.

The separator has two implementations, the Python one and the C one
(``dhl_step_separator``, the step the compiled pipeline runs): the
separator tests run on both, and a differential test requires equal
separators on random cuts, duplicates and vertices on both sides
included.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.partition import kernels, separator
from repro.partition.matching import hopcroft_karp
from repro.partition.separator import koenig_cover
from tests.conftest import require_engine


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


@pytest.fixture(params=["compiled", "reference"])
def minimum_vertex_separator(request):
    require_engine(request.param)
    if request.param == "compiled":
        return kernels.minimum_vertex_separator
    return separator.minimum_vertex_separator


class TestMinimumVertexSeparator:
    def test_empty_cut(self, minimum_vertex_separator):
        assert minimum_vertex_separator([]) == set()

    def test_single_edge(self, minimum_vertex_separator):
        sep = minimum_vertex_separator([(3, 9)])
        assert len(sep) == 1 and sep <= {3, 9}

    def test_star_cut_picks_center(self, minimum_vertex_separator):
        # vertex 5 on side A touches three cut edges: cover = {5}
        sep = minimum_vertex_separator([(5, 10), (5, 11), (5, 12)])
        assert sep == {5}

    def test_duplicate_edges_ignored(self, minimum_vertex_separator):
        sep = minimum_vertex_separator([(1, 2), (1, 2)])
        assert len(sep) == 1

    def test_covers_all_edges(self, minimum_vertex_separator):
        cut = [(0, 10), (1, 10), (1, 11), (2, 12)]
        sep = minimum_vertex_separator(cut)
        for a, b in cut:
            assert a in sep or b in sep
        assert len(sep) <= 3


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=1, max_size=40
    )
)
def test_compiled_separator_matches_reference(cut):
    """Same cover, vertex for vertex (a vertex may sit on both sides of
    an arbitrary list; edges may repeat)."""
    require_engine("compiled")
    assert kernels.minimum_vertex_separator(cut) == separator.minimum_vertex_separator(
        cut
    )

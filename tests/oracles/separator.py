"""Minimum vertex separators from edge cuts (Koenig's theorem).

Given a balanced edge cut, the smallest set of vertices whose removal
destroys every cut edge is a minimum vertex cover of the bipartite "cut
graph" whose two classes are the cut-edge endpoints on either side. By
Koenig's theorem that cover has the size of a maximum matching and can be
constructed from one. The resulting separator is what a query-hierarchy
tree node owns.
"""

from __future__ import annotations

from collections import deque

from tests.oracles.matching import hopcroft_karp

__all__ = ["minimum_vertex_separator", "koenig_cover"]


def koenig_cover(
    left_count: int,
    right_count: int,
    adjacency: list[list[int]],
) -> tuple[list[int], list[int]]:
    """Minimum vertex cover of a bipartite graph via Koenig's construction.

    Returns ``(cover_left, cover_right)`` — indices of covered vertices in
    each class. The cover consists of left vertices *not* reachable and
    right vertices reachable by alternating paths from unmatched left
    vertices.
    """
    _, match_left, match_right = hopcroft_karp(left_count, right_count, adjacency)

    visited_left = [False] * left_count
    visited_right = [False] * right_count
    queue: deque[int] = deque()
    for l in range(left_count):
        if match_left[l] == -1:
            visited_left[l] = True
            queue.append(l)
    while queue:
        l = queue.popleft()
        for r in adjacency[l]:
            if not visited_right[r] and match_left[l] != r:
                visited_right[r] = True
                nxt = match_right[r]
                if nxt != -1 and not visited_left[nxt]:
                    visited_left[nxt] = True
                    queue.append(nxt)

    cover_left = [l for l in range(left_count) if not visited_left[l]]
    cover_right = [r for r in range(right_count) if visited_right[r]]
    return cover_left, cover_right


def minimum_vertex_separator(cut_edges: list[tuple[int, int]]) -> set[int]:
    """Minimum set of endpoints covering every cut edge.

    ``cut_edges`` contains ``(a, b)`` pairs with ``a`` on side 0 and ``b``
    on side 1 (vertex ids in any consistent namespace). Returns the
    separator as a set of vertex ids.
    """
    if not cut_edges:
        return set()
    left_ids = sorted({a for a, _ in cut_edges})
    right_ids = sorted({b for _, b in cut_edges})
    left_index = {v: i for i, v in enumerate(left_ids)}
    right_index = {v: i for i, v in enumerate(right_ids)}
    adjacency: list[list[int]] = [[] for _ in left_ids]
    seen: set[tuple[int, int]] = set()
    for a, b in cut_edges:
        key = (left_index[a], right_index[b])
        if key not in seen:
            seen.add(key)
            adjacency[key[0]].append(key[1])
    cover_left, cover_right = koenig_cover(len(left_ids), len(right_ids), adjacency)
    separator = {left_ids[l] for l in cover_left}
    separator.update(right_ids[r] for r in cover_right)
    return separator

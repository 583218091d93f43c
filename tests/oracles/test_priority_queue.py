"""Tests for the lazy-deletion heap."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from tests.oracles.priority_queue import LazyHeap


class TestLazyHeap:
    def test_push_pop(self):
        h = LazyHeap()
        h.push("a", 2.0)
        h.push("b", 1.0)
        assert h.pop() == ("b", 1.0)
        assert h.pop() == ("a", 2.0)

    def test_push_lower_key_supersedes(self):
        h = LazyHeap()
        h.push("a", 5.0)
        h.push("a", 1.0)
        assert h.pop() == ("a", 1.0)
        assert not h

    def test_push_higher_key_refused_while_queued(self):
        h = LazyHeap()
        assert h.push("a", 1.0)
        assert not h.push("a", 5.0)
        assert h.pop() == ("a", 1.0)

    def test_repush_after_pop_allowed(self):
        h = LazyHeap()
        h.push("a", 1.0)
        h.pop()
        assert h.push("a", 3.0)
        assert h.pop() == ("a", 3.0)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            LazyHeap().pop()

    def test_ties_broken_by_insertion_order(self):
        h = LazyHeap()
        h.push("first", 1.0)
        h.push("second", 1.0)
        assert h.pop()[0] == "first"

    def test_contains_and_len_count_items_not_entries(self):
        h = LazyHeap()
        h.push(4, 5.0)
        h.push(4, 1.0)  # supersedes: two heap entries, one item
        assert 4 in h and 5 not in h and len(h) == 1
        h.pop()
        assert 4 not in h and len(h) == 0

    def test_stale_entry_does_not_resurface_after_repush(self):
        """The entry a lower key superseded stays in the heap; once the
        item is popped and pushed again at a larger key, that old entry
        must be skipped, not returned under the new push."""
        h = LazyHeap()
        h.push("a", 5.0)
        h.push("a", 1.0)
        assert h.pop() == ("a", 1.0)
        h.push("a", 7.0)
        assert h.pop() == ("a", 7.0)
        assert not h

    def test_drain_yields_sorted(self):
        h = LazyHeap()
        for i, key in enumerate([5.0, 1.0, 3.0, 2.0]):
            h.push(i, key)
        assert [k for _, k in h.drain()] == [1.0, 2.0, 3.0, 5.0]
        assert not h

    @given(st.lists(st.tuples(st.integers(0, 30), st.floats(0, 100)), max_size=100))
    def test_model_lowest_key_wins(self, ops):
        h = LazyHeap()
        best: dict[int, float] = {}
        for item, key in ops:
            h.push(item, key)
            if item not in best or key < best[item]:
                best[item] = key
        drained = dict(h.drain())
        assert drained == best

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 100)), max_size=100))
    def test_model_drains_in_key_order(self, ops):
        """Dijkstra-style usage: each item comes out once, keys never
        decrease, and equal keys keep the order of their winning push."""
        h = LazyHeap()
        winner: dict[int, tuple[int, int]] = {}  # item -> (key, push seq)
        for seq, (item, key) in enumerate(ops):
            if h.push(item, key):
                winner[item] = (key, seq)
        drained = list(h.drain())
        assert [item for item, _ in drained] == sorted(winner, key=winner.get)
        assert [key for _, key in drained] == sorted(k for k, _ in winner.values())

"""Tests for the seeded RNG helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import make_rng, sample_pairs


class TestRng:
    def test_make_rng_idempotent_on_generator(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_make_rng_seeded_reproducible(self):
        assert make_rng(7).integers(0, 100) == make_rng(7).integers(0, 100)

    def test_sample_pairs_distinct(self):
        pairs = sample_pairs(10, 200, make_rng(0))
        assert len(pairs) == 200
        assert all(s != t for s, t in pairs)
        assert all(0 <= s < 10 and 0 <= t < 10 for s, t in pairs)

    def test_sample_pairs_rejects_singleton_distinct(self):
        with pytest.raises(ValueError):
            sample_pairs(1, 5, make_rng(0))

    def test_sample_pairs_allows_selfloops_when_not_distinct(self):
        pairs = sample_pairs(1, 5, make_rng(0), distinct=False)
        assert pairs == [(0, 0)] * 5

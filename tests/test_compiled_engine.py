"""Compiled-engine seam: config validation, fallback, warmup, query parity.

The differential maintenance coverage lives in
``tests/test_maintenance_kernels.py``; this module covers the plumbing
around the compiled package — the ``DHLConfig(engine=...)`` contract,
the one-time downgrade warning, warmup idempotence, the no-numba
import-blocked fallback, and the fused query gather against the numpy
batch kernel.
"""

from __future__ import annotations

import builtins
import warnings

import numpy as np
import pytest

import repro.labelling.compiled as compiled
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.labelling.compiled import kernels
from repro.utils.rng import make_rng, sample_pairs


@pytest.fixture
def reset_compiled_state(monkeypatch):
    """Give each test a pristine probe/warmup/warning state."""
    monkeypatch.setattr(compiled, "_warmed", False)
    monkeypatch.setattr(compiled, "_warmup_runs", 0)
    monkeypatch.setattr(compiled, "_failed", False)
    monkeypatch.setattr(compiled, "_warned_fallback", False)


def two_component_graph() -> Graph:
    g = Graph(6)
    g.add_edge(0, 1, 2.0)
    g.add_edge(1, 2, 3.0)
    g.add_edge(3, 4, 1.0)
    g.add_edge(4, 5, 1.0)
    return g


class TestConfigEngine:
    def test_accepts_compiled(self):
        assert DHLConfig(engine="compiled").engine == "compiled"

    @pytest.mark.parametrize("bad", ["numba", "jit", "", "ARRAY"])
    def test_rejects_unknown_engines(self, bad):
        with pytest.raises(IndexBuildError, match="engine must be one of"):
            DHLConfig(engine=bad)

    def test_non_compiled_resolution_is_identity(self):
        assert DHLConfig(engine="array").resolve_engine() == "array"
        assert DHLConfig(engine="reference").resolve_engine() == "reference"

    def test_forced_compiled_resolves_to_compiled(
        self, reset_compiled_state, forced_compiled
    ):
        assert DHLConfig(engine="compiled").resolve_engine() == "compiled"


class TestFallback:
    def test_downgrade_warns_exactly_once(
        self, reset_compiled_state, monkeypatch
    ):
        monkeypatch.setattr(kernels, "NUMBA_AVAILABLE", False)
        config = DHLConfig(engine="compiled")
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            assert config.resolve_engine() == "array"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.resolve_engine() == "array"
            assert DHLConfig(engine="compiled").resolve_engine() == "array"

    def test_compilation_failure_reason(
        self, reset_compiled_state, monkeypatch
    ):
        monkeypatch.setattr(kernels, "NUMBA_AVAILABLE", True)
        monkeypatch.setattr(compiled, "_failed", True)
        with pytest.warns(RuntimeWarning, match="kernel compilation failed"):
            assert DHLConfig(engine="compiled").resolve_engine() == "array"

    def test_index_builds_and_updates_without_numba(
        self, reset_compiled_state, monkeypatch
    ):
        # Block the numba import entirely: the build must downgrade to
        # the array engine and still answer exact distances.
        monkeypatch.setattr(kernels, "NUMBA_AVAILABLE", False)
        real_import = builtins.__import__

        def blocking_import(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ModuleNotFoundError("No module named 'numba'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", blocking_import)
        g = Graph(5)
        for i in range(4):
            g.add_edge(i, i + 1, float(i + 1))
        with pytest.warns(RuntimeWarning, match="falling back"):
            idx = DHLIndex.build(
                g, DHLConfig(leaf_size=2, seed=0, engine="compiled")
            )
        assert idx.engine.engine == "array"
        assert idx.distance(0, 4) == 10.0
        idx.update([(0, 1, 0.5)])
        assert idx.distance(0, 4) == 9.5
        idx.update([(0, 1, 4.0)])
        assert idx.distance(0, 4) == 13.0


class TestWarmup:
    def test_second_call_is_noop(self, reset_compiled_state):
        compiled.warmup_kernels()
        assert compiled._warmup_runs == 1
        compiled.warmup_kernels()
        assert compiled._warmup_runs == 1

    def test_build_labelling_warms_up(self, reset_compiled_state):
        g = Graph(4)
        for i in range(3):
            g.add_edge(i, i + 1, 1.0)
        DHLIndex.build(g, DHLConfig(leaf_size=2, seed=0))
        assert compiled._warmup_runs == 1

    def test_failed_warmup_disables_engine(
        self, reset_compiled_state, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("compilation exploded")

        monkeypatch.setattr(compiled, "_exercise_kernels", boom)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert compiled.warmup_kernels() is False
        assert compiled.available() is False


class TestCompiledQueryGather:
    def test_matches_array_kernel(self, small_road, forced_compiled):
        idx_a = DHLIndex.build(
            small_road.copy(), DHLConfig(leaf_size=6, seed=0, engine="array")
        )
        idx_c = DHLIndex.build(
            small_road.copy(),
            DHLConfig(leaf_size=6, seed=0, engine="compiled"),
        )
        assert idx_c.engine.engine == "compiled"
        n = small_road.num_vertices
        pairs = sample_pairs(n, 2000, make_rng(9), distinct=False)
        pairs += [(v, v) for v in range(0, n, 13)]
        d_a, h_a = idx_a.engine.distances_with_hubs(pairs)
        d_c, h_c = idx_c.engine.distances_with_hubs(pairs)
        np.testing.assert_array_equal(d_c, d_a)
        np.testing.assert_array_equal(h_c, h_a)
        np.testing.assert_array_equal(idx_c.distances(pairs), d_a)

    def test_self_and_disconnected_pairs(self, forced_compiled):
        idx = DHLIndex.build(
            two_component_graph(),
            DHLConfig(leaf_size=2, seed=0, engine="compiled"),
        )
        pairs = [(0, 3), (2, 5), (0, 2), (3, 5), (2, 2)]
        out, hubs = idx.engine.distances_with_hubs(pairs)
        assert np.isinf(out[0]) and np.isinf(out[1])
        assert hubs[0] == -1 and hubs[1] == -1
        assert out[2] == 5.0 and out[3] == 2.0
        assert out[4] == 0.0 and hubs[4] == -1

"""Every kernel the package runs in C, swapped for its Python oracle.

:func:`python_kernels` patches the entry points of
:mod:`repro.labelling.native.engine` that the driver, the build and the
queries call — the two maintenance sweeps, Algorithm 1's top-down pass,
the K count, the pair (batch, pair-array and one-pair), set and
shard-batch kernels, a sharded batch's split and combine (its min-plus
inside) and the result cache's probe and fill — with the bodies in
this package, and the driver's vectorised seed step with the per-road
loop it replaced. An index built, updated and
queried inside it never enters C outside the partitioner (whose trees
``tests/test_partition_identity.py`` holds to their own oracle), so a
differential test compares its bits with an index run on the C kernels.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.labelling import driver
from repro.labelling.native import engine as native_engine
from tests.oracles import build, cache, maintenance, query, sharding

__all__ = ["python_kernels"]


@contextmanager
def python_kernels():
    """Run maintenance, the label build, every query and the result
    cache's table on the oracles."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "seed_cells", maintenance.seed_cells)
        mp.setattr(native_engine, "shortcut_sweep", maintenance.shortcut_sweep)
        mp.setattr(native_engine, "label_sweep", maintenance.label_sweep)
        mp.setattr(native_engine, "label_build", build.label_build)
        mp.setattr(native_engine, "common_ancestors", query.common_ancestors)
        mp.setattr(native_engine, "gather_pairs", query.pair_kernel)
        mp.setattr(native_engine, "gather_pair_array", query.pair_array_kernel)
        mp.setattr(native_engine, "gather_one", query.one_pair)
        mp.setattr(native_engine, "distance_matrix", query.distance_matrix)
        mp.setattr(native_engine, "shard_batch", query.shard_batch)
        mp.setattr(native_engine, "batch_split", sharding.batch_split)
        mp.setattr(native_engine, "batch_answer", sharding.batch_answer)
        mp.setattr(native_engine, "cache_probe", cache.cache_probe)
        mp.setattr(native_engine, "cache_fill", cache.cache_fill)
        mp.setattr(native_engine, "cache_get", cache.cache_get)
        mp.setattr(native_engine, "cache_put", cache.cache_put)
        yield


class OnOracles:
    """An index whose every method call runs inside :func:`python_kernels`.

    Attributes that are not callable come back as they are, so
    ``oracle.labels`` and ``oracle.hu.up_weights`` compare directly;
    calls through them (``oracle.engine.distance_matrix``) leave the
    proxy and run on C.
    """

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            with python_kernels():
                return attr(*args, **kwargs)

        return call


def oracle_build(cls, *args, **kwargs) -> OnOracles:
    """``cls.build(*args, **kwargs)`` on the oracles, kept on them."""
    with python_kernels():
        return OnOracles(cls.build(*args, **kwargs))

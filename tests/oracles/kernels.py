"""Every kernel the package runs in C, swapped for its Python oracle.

:func:`python_kernels` patches the entry points of
:mod:`repro.labelling.native.engine` that the driver, the build and the
queries call — the two maintenance sweeps, Algorithm 1's top-down pass,
the pair kernel and the min-plus combine — with the bodies in this
package, and turns the LCA tables off so the set and shard-batch
queries take their numpy path. An index built, updated and queried
inside it never enters C outside the partitioner (whose trees
``tests/test_partition_identity.py`` holds to their own oracle), so a
differential test compares its bits with an index run on the C kernels.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.labelling.native import engine as native_engine
from repro.labelling.query import QueryEngine
from tests.oracles import build, maintenance, query

__all__ = ["python_kernels"]


@contextmanager
def python_kernels():
    """Run maintenance, the label build and every query on the oracles."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native_engine, "shortcut_sweep", maintenance.shortcut_sweep)
        mp.setattr(native_engine, "label_sweep", maintenance.label_sweep)
        mp.setattr(native_engine, "label_build", build.label_build)
        mp.setattr(native_engine, "gather_pairs", query.pair_kernel)
        mp.setattr(native_engine, "min_plus", query.min_plus)
        mp.setattr(QueryEngine, "kernel_tables", lambda self: None)
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

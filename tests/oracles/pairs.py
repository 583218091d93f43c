"""The id contract of :mod:`repro.utils.pairs` in plain Python: the
oracle of ``dhl_ingest.c``.

Each id goes through ``operator.index`` (a float or a string raises
``TypeError``) and must fit int64 (else ``OverflowError``); each pair is
any iterable of exactly two ids (else ``ValueError``; a non-iterable
``TypeError``). Items are read in order and the first bad one raises,
as the C pass does.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["ingest_ids", "ingest_pairs"]

_INT64 = range(-(2**63), 2**63)


def _id(value) -> int:
    value = operator.index(value)
    if value not in _INT64:
        raise OverflowError(f"vertex id {value} is outside the int64 range")
    return value


def ingest_ids(items) -> np.ndarray:
    """*items* (any iterable of ids) as a flat int64 array."""
    return np.array([_id(item) for item in items], dtype=np.int64).reshape(-1)


def ingest_pairs(items) -> np.ndarray:
    """*items* (any iterable of ``(s, t)`` pairs) as an ``(m, 2)`` int64
    array."""
    rows = []
    for at, item in enumerate(items):
        pair = tuple(item)
        if len(pair) != 2:
            raise ValueError(f"pair {at} has {len(pair)} ids, not 2")
        rows.append((_id(pair[0]), _id(pair[1])))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)

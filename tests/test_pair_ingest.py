"""The id contract of every query door, and the C ingest behind it.

A door that takes ids as Python objects (``distances(pairs)``,
``distances_from``, ``k_nearest``, ``distance_matrix``,
``distances_arrays``, ``common_ancestor_counts``) hands them to one C
pass, ``dhl_ingest_ids``: ``operator.index`` per id and exactly two ids
per pair, as the oracle ``tests/oracles/pairs.py`` spells out. An id
array of a non-integer dtype is refused with ``ValueError`` instead of
being cast. Differential tests hold the C pass to the oracle on lists,
tuples, generators, numpy scalars, bools, lists of lists, rows of a 2-D
array, the empty list and ids past int64; door tests hold every door to
the contract; a reference-count test holds the C pass to its borrowed
and owned references.
"""

from __future__ import annotations

import asyncio
import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.graph.generators import grid_network
from repro.labelling.native import library
from repro.service.async_frontend import AsyncDistanceService
from repro.service.service import DistanceService
from repro.utils.pairs import as_ids, as_pair_array
from tests.conftest import build_sharded
from tests.oracles import pairs as oracle

# ---------------------------------------------------------------------------
# the C pass against the oracle
# ---------------------------------------------------------------------------

#: How a recipe's id value becomes an object.
ID_KINDS = {
    "int": int,
    "bool": bool,
    "int64": np.int64,
    "uint64": np.uint64,
    "int32": np.int32,
    "float": float,
    "float64": np.float64,
    "str": str,
    "none": lambda _: None,
}

ids = st.one_of(
    st.tuples(st.just("int"), st.integers(-3, 300)),
    st.tuples(
        st.just("int"),
        st.one_of(
            st.integers(-(2**65), 2**65),
            st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64]),
        ),
    ),
    st.tuples(st.just("bool"), st.booleans()),
    st.tuples(st.just("int64"), st.integers(-(2**63), 2**63 - 1)),
    st.tuples(st.just("uint64"), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("int32"), st.integers(-(2**31), 2**31 - 1)),
    st.tuples(st.sampled_from(["float", "float64"]), st.integers(-3, 9)),
    st.tuples(st.just("float"), st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("str"), st.text("0123456789 ", max_size=3)),
    st.tuples(st.just("none"), st.none()),
)
#: A pair recipe: how the pair is held, and its ids (mostly two).
pairs = st.tuples(
    st.sampled_from(["tuple", "list", "generator", "array", "bare"]),
    st.one_of(st.lists(ids, min_size=2, max_size=2), st.lists(ids, max_size=3)),
)
OUTER = st.sampled_from(["list", "tuple", "generator"])
#: How a recipe's items are held.
HOLDERS = {"list": list, "tuple": tuple, "generator": lambda xs: (x for x in xs)}


def build_id(recipe):
    kind, value = recipe
    return ID_KINDS[kind](value)


def build_pair(recipe):
    kind, id_recipes = recipe
    values = [build_id(r) for r in id_recipes]
    if kind == "bare":  # an id where a pair belongs
        return values[0] if values else 0
    if kind == "array":  # a numpy row: its items are numpy scalars
        return np.array(values)
    return HOLDERS[kind](values)


def build(outer, items):
    return HOLDERS[outer](items)


def outcome(convert, make):
    """*convert* of a freshly made input: the array, or the type of the
    exception it raised (making the input is part of the call: a
    generator is consumed by the first side that reads it)."""
    try:
        return convert(make())
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc)


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    else:
        assert got is want


@settings(max_examples=300, deadline=None)
@given(OUTER, st.lists(pairs, max_size=6))
def test_pair_ingest_equals_the_oracle(outer, recipes):
    make = lambda: build(outer, [build_pair(r) for r in recipes])  # noqa: E731
    assert_same(outcome(as_pair_array, make), outcome(oracle.ingest_pairs, make))


@settings(max_examples=300, deadline=None)
@given(OUTER, st.lists(ids, max_size=6))
def test_id_ingest_equals_the_oracle(outer, recipes):
    make = lambda: build(outer, [build_id(r) for r in recipes])  # noqa: E731
    assert_same(outcome(as_ids, make), outcome(oracle.ingest_ids, make))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * 2), max_size=8))
def test_rows_of_a_2d_array_ingest_as_pairs(rows):
    matrix = np.array(rows, dtype=np.int64).reshape(-1, 2)
    got = as_pair_array(list(matrix))  # a list of 1-D rows, not the array
    np.testing.assert_array_equal(got, matrix)
    np.testing.assert_array_equal(got, oracle.ingest_pairs(list(matrix)))


def test_refusals_name_their_cause():
    with pytest.raises(ValueError, match=r"pair 1 has 3 ids, not 2: \(3, 4, 7\)"):
        as_pair_array([(0, 5), (3, 4, 7)])
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        as_pair_array([(0, 1.7)])
    with pytest.raises(TypeError, match="'str' object cannot be interpreted"):
        as_ids(["0"])
    with pytest.raises(OverflowError, match=str(2**63)):
        as_pair_array([(0, 2**63)])
    with pytest.raises(TypeError, match="sequence of two ids"):
        as_pair_array([5])


def test_integer_arrays_pass_without_a_copy_and_others_are_refused():
    pair_array = np.arange(8, dtype=np.int64).reshape(4, 2)
    assert np.shares_memory(as_pair_array(pair_array), pair_array)
    flat = np.arange(5, dtype=np.int64)
    assert np.shares_memory(as_ids(flat), flat)
    np.testing.assert_array_equal(as_ids(flat.astype(np.uint16)), flat)
    for bad in (flat.astype(float), flat > 2, flat.astype(str), flat.astype(object)):
        with pytest.raises(ValueError, match="integers"):
            as_ids(bad)
        with pytest.raises(ValueError, match="integers"):
            as_pair_array(np.stack((bad, bad), axis=1))
    with pytest.raises(ValueError, match="one-dimensional integers"):
        as_ids(pair_array)


def test_the_c_pass_checks_its_own_operands():
    ingest = library().dhl_ingest_ids
    out = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(TypeError, match="list or a tuple"):
        ingest(iter([(0, 1), (2, 3)]), 2, out)
    with pytest.raises(ValueError, match="width must be 1 or 2"):
        ingest([(0, 1), (2, 3)], 3, out)
    with pytest.raises(ValueError, match="must hold 6 int64 ids"):
        ingest([(0, 1), (2, 3), (4, 5)], 2, out)
    with pytest.raises(ValueError, match="must hold"):
        ingest([(0, 1), (2, 3)], 2, out.astype(np.int32))
    assert not out.any()  # nothing written by a refused call
    ingest(((0, 1), [2, 3]), 2, out)
    assert out.tolist() == [[0, 1], [2, 3]]


def test_an_index_method_that_mutates_the_list_is_caught():
    """An id's ``__index__`` may run any code, the list's own mutation
    included: the pass never reads past the items it sized its output
    for, and a pair list emptied under it still yields the ids it held."""
    items: list = []

    class Shrinks:
        def __index__(self):
            items.clear()
            return 1

    items[:] = [Shrinks(), 2, 3]
    with pytest.raises(RuntimeError, match="changed size"):
        as_ids(items)
    pair: list = []

    class EmptiesItsPair:
        def __index__(self):
            pair.clear()
            return 7

    pair[:] = [EmptiesItsPair(), 11]
    assert as_pair_array([pair]).tolist() == [[7, 11]]


def test_repeated_ingest_keeps_reference_counts():
    """Borrowed ids are not released and owned ones are: on the fast
    path, through ``__index__``, and on every refusal."""
    big = 10**15 + 7  # not a cached small int

    class Indexes:
        def __index__(self):
            return big

    wrapped = Indexes()
    good = [(big, big), [big, wrapped], (wrapped, 1), np.array([big, 3])]
    bad = [
        [(big, big), (big, 1.5)],
        [(big, wrapped, big)],
        [(wrapped, 2**64)],
        [big, "1"],
    ]
    gc.collect()
    before = sys.getrefcount(big), sys.getrefcount(wrapped)
    for _ in range(200):
        as_pair_array(good)
        as_ids([big, wrapped, big])
        as_pair_array(tuple(good))
        for items in bad:
            try:
                as_pair_array(items) if isinstance(items[0], tuple) else as_ids(items)
            except (TypeError, ValueError, OverflowError):
                pass
    gc.collect()
    assert (sys.getrefcount(big), sys.getrefcount(wrapped)) == before


# ---------------------------------------------------------------------------
# the doors
# ---------------------------------------------------------------------------

BAD_PAIRS = {
    "triple": ([(0, 5, 9), (3, 4, 7)], ValueError),
    "float-id": ([(0, 1), (0, 1.7)], TypeError),
    "str-id": ([("0", 1)], TypeError),
    "float-array": (np.array([[0.0, 1.7]]), ValueError),
}
BAD_IDS = {
    "float-id": ([1.7, 2.2], TypeError),
    "str-id": (["1", "2"], TypeError),
    "pair-as-id": ([(1, 2)], TypeError),
    "float-array": (np.array([1.7, 2.2]), ValueError),
    "bool-array": (np.array([True, False]), ValueError),
}


@pytest.fixture(scope="module")
def index():
    return DHLIndex.build(grid_network(4, 4), DHLConfig(seed=0))


@pytest.fixture(scope="module")
def sharded():
    return build_sharded(grid_network(4, 4))


@pytest.fixture()
def service(index):
    with DistanceService(index, cache_capacity=64) as svc:
        yield svc


@pytest.mark.parametrize("bad, error", BAD_PAIRS.values(), ids=BAD_PAIRS)
def test_pair_doors_refuse(index, sharded, service, bad, error):
    cache_before = service.stats().cache
    for door in (
        index.distances,
        index.engine.distances_with_hubs,
        sharded.distances,
        service.distances,
    ):
        with pytest.raises(error):
            door(bad)
    assert service.stats().cache == cache_before

    async def scenario():
        async with AsyncDistanceService(service) as frontend:
            with pytest.raises(error):
                await frontend.distances(bad)
            return await frontend.distances([(0, 5)])

    assert asyncio.run(scenario()).tolist() == [index.distance(0, 5)]


@pytest.mark.parametrize("bad, error", BAD_IDS.values(), ids=BAD_IDS)
def test_id_doors_refuse(index, sharded, service, bad, error):
    engine = index.engine
    doors = [
        lambda: index.distances_from(0, bad),
        lambda: index.k_nearest(0, bad, 1),
        lambda: sharded.distances_from(0, bad),
        lambda: sharded.k_nearest(0, bad, 1),
        lambda: service.k_nearest(0, bad, 1),
        lambda: engine.distance_matrix(bad, [0]),
        lambda: engine.distance_matrix([0], bad),
        lambda: engine.distances_arrays(bad, [0] * len(bad)),
        lambda: engine.common_ancestor_counts([0] * len(bad), bad),
        lambda: sharded.engine.distances_arrays([0] * len(bad), bad),
    ]
    for door in doors:
        with pytest.raises(error):
            door()


@pytest.mark.parametrize("bad", [1.5, "1", None])
def test_scalar_sources_are_ids_too(index, sharded, bad):
    for door in (index.distances_from, sharded.distances_from):
        with pytest.raises(TypeError):
            door(bad, [1, 2])
    with pytest.raises(TypeError):
        sharded.distance(bad, 1)


def test_every_shape_of_one_batch_answers_the_same_bits(index, sharded, service):
    raw = np.random.default_rng(5).integers(0, 16, (40, 2))
    as_tuples = [tuple(p) for p in raw.tolist()]
    shapes = [
        lambda: raw,
        lambda: raw.astype(np.int32),
        lambda: as_tuples,
        lambda: tuple(as_tuples),
        lambda: raw.tolist(),
        lambda: iter(as_tuples),
        lambda: list(raw),
        lambda: [(np.int64(s), bool(t) + t - bool(t)) for s, t in as_tuples],
    ]
    want = index.distances(raw).tobytes()
    for door in (index.distances, sharded.distances, service.distances):
        for batch in shapes:
            assert door(batch()).tobytes() == want
    s, t = raw[:, 0], raw[:, 1]
    from_zero = index.distances(np.stack((0 * s, s), 1)).tobytes()
    for targets in (s, s.tolist(), tuple(s.tolist()), (int(v) for v in s)):
        assert index.distances_from(0, targets).tobytes() == from_zero
    got = index.engine.distances_arrays(s.tolist(), t.tolist())
    assert got.tobytes() == want


def test_k_nearest_ranks_a_generator_like_the_equal_list(index, sharded, service):
    """``k_nearest`` ranks the id array its door ingested, so a
    generator of candidates answers as the equal list does, in Python
    ints."""
    candidates = [3, 12, 5, 9, 15, 2, 7]
    for door in (index.k_nearest, sharded.k_nearest, service.k_nearest):
        want = door(0, candidates, 4)
        assert len(want) == 4 and all(type(v) is int for v, _ in want)
        assert door(0, (v for v in candidates), 4) == want
        assert door(0, np.array(candidates), 4) == want

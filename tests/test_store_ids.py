"""The shortcut store's int32 ids: narrowed once, never wrapped, and
read and written as before.

* *Arithmetic.* numpy 2 keeps ``int32_array * python_int`` in int32
  and wraps without a warning, and the bench graphs are too small for
  a slot key to pass 2**31. A synthetic structure over 70,000 vertices,
  whose few slots have keys past 2**31, holds every slot lookup,
  :func:`~repro.hierarchy.csr.extend_slots` and
  :func:`~repro.hierarchy.csr.compact_slots` to a plain dict.
* *Capacity.* A build, a slot growth or a load of 2**31 vertices or
  slots raises :class:`~repro.exceptions.StoreCapacityError` before
  anything is narrowed — checked by count, on zero-stride arrays that
  allocate nothing.
* *Compatibility.* A snapshot holds the same int64 arrays as before
  the narrowing (its digests are pinned), and snapshots and pickles
  with int64 store arrays load narrowed.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import DHLConfig
from repro.core.directed import DirectedDHLIndex
from repro.core.index import DHLIndex
from repro.core.serialization import _store_from_payload, _write_checksums
from repro.core.sharded import ShardedDHLIndex
from repro.exceptions import StoreCapacityError
from repro.graph.digraph import DiGraph
from repro.graph.generators import delaunay_network, grid_network
from repro.hierarchy.contraction import ContractionResult
from repro.hierarchy.csr import (
    ShortcutCSR,
    build_shortcut_csr,
    check_capacity,
    compact_slots,
    extend_slots,
)

N = 70_000
ID_ARRAYS = (
    "rank",
    "order",
    "indptr",
    "indices",
    "ranks",
    "owners",
    "down_indptr",
    "down_indices",
    "down_slots",
)


def assert_narrow(csr: ShortcutCSR) -> None:
    for name in ID_ARRAYS:
        assert getattr(csr, name).dtype == np.int32, name
    assert csr.slot_keys.dtype == np.int64


# ---------------------------------------------------------------------------
# arithmetic past 2**31
# ---------------------------------------------------------------------------

#: A vertex that owns no slot in :func:`wide_store`.
ABSENT = 12_345


def wide_store() -> tuple[ContractionResult, dict[tuple[int, int], float]]:
    """A one-plane store over N vertices whose slots sit on deep owners
    (``owner * N`` past 2**31), each weighed by its pair. Contraction
    runs from the highest id down, so a slot's shallower end is any
    lower id."""
    rng = np.random.default_rng(5)
    rank = np.arange(N)[::-1].copy()
    rows: list[list[int]] = [[] for _ in range(N)]
    pairs: dict[tuple[int, int], float] = {}
    for lo in (N - 1, N - 2, 40_000, 61_234, 69_001):
        for hi in rng.choice(lo, 3, replace=False).tolist():
            rows[lo].append(hi)
            pairs[(lo, hi)] = float(len(pairs) + 1)
    csr = build_shortcut_csr(rows, rank)
    weights = np.empty(csr.num_slots)
    for slot, pair in enumerate(zip(csr.owners.tolist(), csr.indices.tolist())):
        weights[slot] = pairs[pair]
    return ContractionResult(None, csr, weights), pairs


def assert_agrees(store: ContractionResult, pairs: dict) -> None:
    """Every lookup — by Python int, int32 scalar and int32 array —
    names the slot that holds the pair's weight, and an absent pair
    none."""
    csr = store.csr
    assert_narrow(csr)
    assert csr.slot_keys.max() > 2**31
    assert np.all(np.diff(csr.slot_keys) > 0)
    assert csr.num_slots == len(pairs)
    lo = np.array([p[0] for p in pairs], dtype=np.int32)
    hi = np.array([p[1] for p in pairs], dtype=np.int32)
    slots = csr.slots_of(lo, hi)
    for (a, b), weight, slot, x, y in zip(pairs, pairs.values(), slots, lo, hi):
        assert store.up_weights[slot] == weight
        assert csr.slot_of(a, b) == slot == csr.find_slot(x, y)
        assert (int(csr.owners[slot]), int(csr.indices[slot])) == (a, b)
    assert csr.find_slot(np.int32(ABSENT), hi[0]) == -1
    with pytest.raises(KeyError):
        csr.slot_of(np.int32(ABSENT), hi[0])
    with pytest.raises(KeyError):
        csr.slots_of(np.array([ABSENT], dtype=np.int32), hi[:1])


def test_slot_lookups_past_two_to_the_31():
    store, pairs = wide_store()
    assert_agrees(store, pairs)


def test_extend_and_compact_past_two_to_the_31():
    store, pairs = wide_store()
    new = {(lo, lo - 1): np.inf for lo in (N - 3, 50_000)}
    extend_slots(
        store,
        np.array([p[0] for p in new], dtype=np.int32),
        np.array([p[1] for p in new], dtype=np.int32),
    )
    pairs.update(new)
    assert_agrees(store, pairs)
    kept = {pair: weight for pair, weight in pairs.items() if pair[0] != N - 1}
    keep = np.ones(store.csr.num_slots, dtype=bool)
    keep[[store.csr.slot_of(*pair) for pair in pairs if pair not in kept]] = False
    compact_slots(store, keep)
    assert_agrees(store, kept)


# ---------------------------------------------------------------------------
# the 2**31 guard, by count
# ---------------------------------------------------------------------------

def zeros(count: int) -> np.ndarray:
    """*count* int64 zeros in one item's memory."""
    return np.broadcast_to(np.int64(0), (count,))


def test_capacity_is_fewer_than_two_to_the_31_of_each():
    check_capacity(2**31 - 1, 2**31 - 1)
    for n, m in ((2**31, 0), (0, 2**31)):
        with pytest.raises(StoreCapacityError) as err:
            check_capacity(n, m)
        assert isinstance(err.value, ValueError)


def test_a_structure_past_the_ids_raises_before_narrowing():
    with pytest.raises(StoreCapacityError):
        ShortcutCSR(2**31, zeros(2**31), zeros(2**31 + 1), zeros(0))
    with pytest.raises(StoreCapacityError):
        ShortcutCSR(2, np.arange(2), np.array([0, 0, 2**31]), zeros(2**31))


def test_a_build_past_the_ids_raises_before_narrowing():
    with pytest.raises(StoreCapacityError):
        build_shortcut_csr([range(2**31)], np.zeros(1, dtype=np.int64))


def test_a_growth_past_the_ids_raises_before_narrowing():
    store = SimpleNamespace(csr=SimpleNamespace(n=10, num_slots=2**31 - 1))
    with pytest.raises(StoreCapacityError):
        extend_slots(store, np.array([1]), np.array([2]))


def test_a_load_past_the_ids_raises_before_narrowing():
    data = {"up_offsets": zeros(11), "up_flat": zeros(2**31), "wup_flat": zeros(0)}
    with pytest.raises(StoreCapacityError):
        _store_from_payload(None, SimpleNamespace(n=10), data, ("wup_flat",))


# ---------------------------------------------------------------------------
# snapshots and pickles
# ---------------------------------------------------------------------------

#: What a snapshot digest covers: the store, its weight planes and H_Q's
#: five arrays in ``arrays.npz``, and every label file.
DIGEST_ARRAYS = (
    "up_flat",
    "up_offsets",
    "wup_flat",
    "wout_flat",
    "win_flat",
    "tau",
    "node_of",
    "node_depth",
    "node_parent",
    "node_vend",
)


def snapshot_digest(root: Path) -> str:
    """SHA-1 over a snapshot's store, weight planes, H_Q arrays (by key,
    dtype, shape and bytes) and label files, in every directory."""
    digest = hashlib.sha1()
    for path in sorted(root.rglob("*")):
        if path.name == "arrays.npz":
            with np.load(path) as data:
                for key in sorted(set(DIGEST_ARRAYS) & set(data.files)):
                    arr = data[key]
                    name = f"{path.parent.relative_to(root)}/{key}"
                    digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
                    digest.update(arr.tobytes())
        elif path.name.startswith("label") and path.suffix == ".npy":
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


GRAPHS = {
    "grid": lambda: grid_network(12, 12, seed=3),
    "road": lambda: delaunay_network(300, seed=77),
}
KINDS = {
    "monolithic": lambda g: DHLIndex.build(g, DHLConfig()),
    "sharded": lambda g: ShardedDHLIndex.build(g, k=3, config=DHLConfig()),
    "directed": lambda g: DirectedDHLIndex.build(
        DiGraph.from_undirected(g), DHLConfig()
    ),
}
#: Digests of the snapshots the int64 store wrote, before its ids were
#: narrowed — over the arrays and files :func:`snapshot_digest` covers,
#: which the format-2 writer wrote byte for byte the same.
PINNED_SNAPSHOTS = {
    ("grid", "monolithic"): "6bb97bc37ff7db6388cc7ec769be12ef11140830",
    ("grid", "sharded"): "7d34d658123b8216d4b4ff932cb4b9c927563f44",
    ("grid", "directed"): "c1dfc36a2666e17d1f3d866a3a0c1f394b00d465",
    ("road", "monolithic"): "cba2571cc906f17187e1e8fc35b0dfe002b53a8e",
    ("road", "sharded"): "7ea7ac945804a80e97cc7529348936eb0509057f",
    ("road", "directed"): "4c38f217c6f4aeaba3f414c7747808ea363609c0",
}


def stores(index) -> list:
    parts = getattr(index, "shards", None)
    if parts is None:
        return [index.hu]
    return [shard.hu for shard in parts] + (
        [index.overlay.hu] if index.overlay is not None else []
    )


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("graph", list(GRAPHS))
def test_a_snapshot_holds_the_int64_arrays_it_always_held(graph, kind, tmp_path):
    index = KINDS[kind](GRAPHS[graph]())
    index.save(tmp_path / "idx")
    assert snapshot_digest(tmp_path / "idx") == PINNED_SNAPSHOTS[(graph, kind)]
    for npz in (tmp_path / "idx").rglob("arrays.npz"):
        with np.load(npz) as data:
            for key in ("up_flat", "up_offsets"):
                if key in data.files:
                    assert data[key].dtype == np.int64, key
    loaded = type(index).load(tmp_path / "idx")
    for store in stores(loaded):
        assert_narrow(store.csr)
        assert store.order.dtype == np.int32
    pairs = np.random.default_rng(1).integers(0, index.graph.num_vertices, (64, 2))
    assert np.array_equal(loaded.distances(pairs), index.distances(pairs))


def age_snapshot(path: Path) -> None:
    """Rewrite every ``arrays.npz`` under *path* with each integer array
    as int64 — what the writer held before the store was narrowed —
    checksums resealed to match."""
    for npz in path.rglob("arrays.npz"):
        with np.load(npz) as data:
            arrays = {key: data[key] for key in data.files}
        for key, arr in arrays.items():
            if arr.dtype.kind == "i":
                arrays[key] = arr.astype(np.int64)
        np.savez_compressed(npz, **arrays)
        (npz.parent / "checksums.json").unlink()
    for manifest in path.rglob("manifest.json"):
        if not (manifest.parent / "checksums.json").exists():
            _write_checksums(manifest.parent)


@pytest.mark.parametrize("kind", ["monolithic", "directed", "sharded"])
def test_an_int64_snapshot_loads_narrowed(kind, tmp_path):
    index = KINDS[kind](GRAPHS["grid"]())
    index.save(tmp_path / "idx")
    age_snapshot(tmp_path / "idx")
    loaded = type(index).load(tmp_path / "idx", verify=True)
    for store in stores(loaded):
        assert_narrow(store.csr)
    u, v, w = next(iter(index.graph.edges()))
    for target in (index, loaded):
        target.update([(u, v, w * 3)])
    pairs = np.random.default_rng(2).integers(0, index.graph.num_vertices, (64, 2))
    assert np.array_equal(loaded.distances(pairs), index.distances(pairs))
    for ours, theirs in zip(stores(loaded), stores(index)):
        assert np.array_equal(ours.up_weights, theirs.up_weights)


def aged_pickle(obj, monkeypatch) -> bytes:
    """*obj* pickled the way the int64 store pickled: each store's state
    held its own int64 ``order`` and ``rank`` (the structure's ``rank``
    one and the same array) beside the structure's int64 arrays."""
    wide: dict[int, np.ndarray] = {}

    def rank64(csr) -> np.ndarray:
        return wide.setdefault(id(csr), csr.rank.astype(np.int64))

    def csr_state(csr):
        return (
            csr.n,
            rank64(csr),
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
        )

    def store_state(store):
        state = {
            name: getattr(store, name)
            for cls in type(store).__mro__
            for name in getattr(cls, "__slots__", ())
            if name != "_record"
        }
        state["order"] = store.order.astype(np.int64)
        state["rank"] = rank64(store.csr)
        return None, state

    monkeypatch.setattr(ShortcutCSR, "__getstate__", csr_state)
    monkeypatch.setattr(ContractionResult, "__getstate__", store_state, raising=False)
    try:
        return pickle.dumps(obj)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("kind", ["monolithic", "directed", "sharded"])
def test_an_int64_pickle_loads_narrowed(kind, monkeypatch):
    index = KINDS[kind](GRAPHS["grid"]())
    clone = pickle.loads(aged_pickle(index, monkeypatch))
    for store in stores(clone):
        assert_narrow(store.csr)
        assert store.rank is store.csr.rank
    u, v, w = next(iter(index.graph.edges()))
    for target in (index, clone):
        target.update([(u, v, w * 3)])
        target.update([(u, v, w / 2)])
    pairs = np.random.default_rng(3).integers(0, index.graph.num_vertices, (64, 2))
    assert np.array_equal(clone.distances(pairs), index.distances(pairs))
    for ours, theirs in zip(stores(clone), stores(index)):
        assert np.array_equal(ours.up_weights, theirs.up_weights)

"""One model-based oracle for :class:`DHLIndex`: every mutation, one invariant.

The paper's maintenance contract is identity: DHL+/DHL- (Algorithms
2-5) and the Section 8 structural changes leave ``(H_U, L)`` exactly as
a fresh construction over the changed graph on the same H_Q would (the
standard of arXiv 2102.08529). :class:`IndexModel` is a hypothesis
state machine whose rules are every way the index changes — mixed
``update`` bursts, the paper's two passes, ``apply_batch`` insertions
(closure fast path, same-H_Q rebuild, repartition), deletions and
reweighs (a road may recur within a list; a road named in two lists is
refused), ``restore_edge``, ``delete_vertex``, ``compact``, a pickle
and ``save`` -> ``load`` (plain or memory-mapped) — interleaved at
random on small integer-weighted graphs with weights 0-4, so ties are
everywhere and roads go to ``inf`` and back. The machine keeps its own
road map as the model of what each rule means. After every step
:meth:`IndexModel.equals_a_fresh_build` checks the graph against that
map, the labels and weights bit for bit against a fresh build,
``verify()`` and every pair against Dijkstra; every weight batch's
stats are checked against the diff of the buffers it wrote.
"""

from __future__ import annotations

import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.baselines.dijkstra import dijkstra
from repro.core.config import DHLConfig
from repro.core.index import DHLIndex
from repro.exceptions import MaintenanceError
from repro.hierarchy.update_hierarchy import UpdateHierarchy
from repro.labelling.build import build_labelling
from tests.strategies import connected_graphs

#: Road weights: small integers, so equal-length routes are common.
WEIGHTS = st.integers(0, 4).map(float)
#: What a weight report may set: a small weight, or a closure.
REPORTS = st.one_of(WEIGHTS, st.just(math.inf))
#: The batch lists a road may be named in.
LISTS = ("insertions", "deletions", "weight_changes")


class IndexModel(RuleBasedStateMachine):
    """A :class:`DHLIndex` under random interleavings of every mutation.

    The model is the road map each rule means to leave: ``roads`` maps
    every road the graph holds to its weight (``inf`` when closed), and
    ``gone`` holds the roads compaction removed, which a restore may
    bring back.
    """

    def __init__(self):
        super().__init__()
        self.roads: dict[tuple[int, int], float] = {}
        self.gone: set[tuple[int, int]] = set()

    # -- helpers --------------------------------------------------------
    def dead_roads(self) -> list[tuple[int, int]]:
        """Roads a restore brings back: closed, or compacted away."""
        closed = [key for key, w in self.roads.items() if math.isinf(w)]
        return sorted(closed + [key for key in self.gone if key not in self.roads])

    def draw_burst(self, data, max_size: int = 8) -> list:
        """Reports on existing roads, closed ones too, in either
        orientation; a road may be named more than once."""
        reports = st.tuples(st.sampled_from(sorted(self.roads)), REPORTS, st.booleans())
        burst = data.draw(st.lists(reports, min_size=1, max_size=max_size))
        return [(v, u, w) if flip else (u, v, w) for (u, v), w, flip in burst]

    def maintain(self, method: str, changes: list) -> None:
        """Run one weight batch; its stats must be the diff of the
        buffers it wrote, and the epoch moves iff a road weight did."""
        index = self.index
        labels = index.labels
        values, weights = labels.values.copy(), index.hu.up_weights.copy()
        before, epoch = dict(self.roads), index.epoch
        keys = index.hu.csr.slot_keys.copy()
        stats = getattr(index, method)(changes)
        road = index.graph.road_key
        self.roads.update((road(u, v), w) for u, v, w in changes)
        csr = index.hu.csr
        assert np.array_equal(csr.slot_keys, keys), "U1: a weight batch moved H_U"
        moved = np.flatnonzero(weights != index.hu.up_weights)
        assert stats.shortcuts_changed == len(moved)
        assert stats.affected_shortcuts == {
            (int(csr.owners[s]), int(csr.indices[s])): float(weights[s]) for s in moved
        }
        changed = np.flatnonzero(values != labels.values)
        assert stats.labels_changed == len(changed)
        owners = np.searchsorted(labels.offsets, changed, side="right") - 1
        assert stats.affected_labels == set(owners.tolist())
        assert index.epoch == epoch + (self.roads != before)

    # -- the index ------------------------------------------------------
    @initialize(
        graph=connected_graphs(min_n=3, max_n=18, max_weight=4),
        leaf_size=st.integers(1, 4),
        closure_limit=st.sampled_from([0, 4096]),
    )
    def build(self, graph, leaf_size, closure_limit):
        config = DHLConfig(leaf_size=leaf_size, insert_closure_limit=closure_limit)
        self.roads = {(u, v): w for u, v, w in graph.edges()}
        self.index = DHLIndex.build(graph, config)

    # -- weight maintenance ---------------------------------------------
    @precondition(lambda self: self.roads)
    @rule(data=st.data())
    def update(self, data):
        """One mixed pass: raises, drops, closures, reopenings and
        repeated roads (the last mention wins)."""
        self.maintain("update", self.draw_burst(data))

    @precondition(lambda self: self.roads)
    @rule(data=st.data())
    def two_passes(self, data):
        """The same kind of burst as the paper runs it: DHL+ on the
        raised roads, then DHL- on the lowered ones."""
        road = self.index.graph.road_key
        final = {road(u, v): (u, v, w) for u, v, w in self.draw_burst(data)}
        now = dict(self.roads)
        self.maintain("increase", [c for k, c in final.items() if c[2] > now[k]])
        self.maintain("decrease", [c for k, c in final.items() if c[2] < now[k]])

    # -- structural changes ---------------------------------------------
    def draw_batch(self, data, insertions: int, deletions: int) -> dict:
        """``apply_batch`` keywords: at least *insertions* insertions and
        *deletions* deletions, up to three mentions in each list and in
        the reweighs. A list may name a road more than once, in either
        orientation; no road is named in two lists. A deletion may name
        a closed road; an insertion a new pair, comparable or not, a
        live road (a reweigh) or a closed one (a restore); a reweigh may
        close a road or reopen one."""
        n = self.index.graph.num_vertices
        roads = sorted(self.roads)
        dropped = data.draw(
            st.lists(st.sampled_from(roads), min_size=deletions, max_size=3)
            if roads
            else st.just([])
        )
        others = [key for key in roads if key not in dropped]
        reweighs = data.draw(
            st.lists(st.tuples(st.sampled_from(others), REPORTS), max_size=3)
            if others
            else st.just([])
        )
        taken = set(dropped) | {key for key, _ in reweighs}
        free = [(u, v) for u in range(n) for v in range(u + 1, n)]
        free = [key for key in free if key not in taken]
        inserts = data.draw(
            st.lists(
                st.tuples(st.sampled_from(free), WEIGHTS),
                min_size=insertions,
                max_size=3,
            )
            if free
            else st.just([])
        )

        def oriented(mentions):
            flips = data.draw(
                st.lists(st.booleans(), min_size=len(mentions), max_size=len(mentions))
            )
            return [
                ((v, u) if flip else (u, v)) + tuple(rest)
                for ((u, v), *rest), flip in zip(mentions, flips)
            ]

        return {
            "insertions": oriented(inserts),
            "deletions": oriented([(key,) for key in dropped]),
            "weight_changes": oriented(reweighs),
        }

    def apply_batch(self, batch: dict) -> None:
        """Apply *batch*; its stats must count what the model's fold
        says it holds (each list folded by ``graph.road_key``, the last
        mention winning), the ladder must take one rung for all new
        roads, and the epoch moves once iff a road did."""
        index = self.index
        road = index.graph.road_key
        inserted = {road(u, v): w for u, v, w in batch["insertions"]}
        dropped = {road(u, v) for u, v in batch["deletions"]}
        reweighed = {road(u, v): w for u, v, w in batch["weight_changes"]}
        new = [key for key in inserted if key not in self.roads]
        apart = sum(not index.hq.comparable(*key) for key in new)
        closed = sum(math.isinf(self.roads[key]) for key in dropped)
        before, epoch = dict(self.roads), index.epoch
        stats = index.apply_batch(**batch)
        self.roads.update((key, math.inf) for key in dropped)
        for key, w in {**reweighed, **inserted}.items():
            self.roads[key] = w
            self.gone.discard(key)
        assert stats.already_deleted == closed
        assert stats.deleted == len(dropped) - closed
        moved = {**reweighed, **inserted}.items()
        assert stats.weight_changed == sum(
            key in before and w != before[key] for key, w in moved
        )
        assert (stats.inserted, stats.repartitions) == (len(new), apart)
        rung = (stats.fastpath_inserts, stats.fallback_rebuilds)
        assert rung in ((len(new), 0), (0, int(bool(new))))
        assert index.epoch == epoch + (self.roads != before)

    @rule(data=st.data())
    def insert(self, data):
        """A batch with insertions: the closure fast path, the rebuild
        on the same H_Q or the repartition, by the pairs and the
        index's ``insert_closure_limit``."""
        self.apply_batch(self.draw_batch(data, insertions=1, deletions=0))

    @precondition(lambda self: self.roads)
    @rule(data=st.data())
    def delete(self, data):
        self.apply_batch(self.draw_batch(data, insertions=0, deletions=1))

    @rule(data=st.data())
    def name_a_road_in_two_lists(self, data):
        """A batch that names one road in two of its lists — any pair,
        a road or not, in either orientation — is refused before any
        write: graph, epoch and labels stay as they were."""
        index = self.index
        batch = self.draw_batch(data, insertions=0, deletions=0)
        n = index.graph.num_vertices
        u, v = data.draw(
            st.sampled_from([(u, v) for u in range(n) for v in range(n) if u != v])
        )
        mentions = {
            "insertions": (u, v, data.draw(WEIGHTS)),
            "deletions": (u, v),
            "weight_changes": (u, v, data.draw(REPORTS)),
        }
        for name in data.draw(st.sampled_from([LISTS[:2], LISTS[1:], LISTS[::2]])):
            batch[name].append(mentions[name])
            if data.draw(st.booleans()):
                batch[name].insert(0, batch[name].pop())
        values, epoch = index.labels.values.tobytes(), index.epoch
        with pytest.raises(MaintenanceError, match="more than one of"):
            index.apply_batch(**batch)
        assert index.epoch == epoch
        assert index.labels.values.tobytes() == values

    @precondition(lambda self: self.dead_roads())
    @rule(data=st.data(), weight=WEIGHTS)
    def restore_edge(self, data, weight):
        u, v = data.draw(st.sampled_from(self.dead_roads()))
        self.index.restore_edge(u, v, weight)
        self.roads[(u, v)] = weight
        self.gone.discard((u, v))

    @rule(data=st.data())
    def delete_vertex(self, data):
        v = data.draw(st.integers(0, self.index.graph.num_vertices - 1))
        incident = [key for key in self.roads if v in key]
        stats = self.index.delete_vertex(v)
        if all(math.isinf(self.roads[key]) for key in incident):
            assert stats.labels_changed == 0 and not stats.affected_labels
        self.roads.update((key, math.inf) for key in incident)

    @rule()
    def compact(self):
        """Closed roads leave the graph for good; no dead slot stays."""
        self.index.compact()
        assert self.index.dead_fraction == 0.0
        self.gone.update(key for key, w in self.roads.items() if math.isinf(w))
        self.roads = {key: w for key, w in self.roads.items() if math.isfinite(w)}

    # -- copies -----------------------------------------------------------
    @rule()
    def pickle_round_trip(self):
        self.index = pickle.loads(pickle.dumps(self.index))

    @rule(mmap_labels=st.booleans())
    def save_and_load(self, mmap_labels):
        """A mapped store (which outlives its deleted file) stays
        read-only until the first write copies it."""
        with tempfile.TemporaryDirectory() as scratch:
            self.index.save(Path(scratch) / "index")
            self.index = DHLIndex.load(Path(scratch) / "index", mmap_labels=mmap_labels)
        assert self.index.labels.values.flags.writeable != mmap_labels

    # -- the one invariant ----------------------------------------------
    @invariant()
    def equals_a_fresh_build(self):
        """Labels bit-equal to Algorithm 1 over a fresh H_U on the
        index's own H_Q; every weight and direct weight bit-equal on
        the slots both stores hold, and a slot only the fresh store
        holds is one compaction dropped as dead (``inf``);
        ``verify()`` (Property 3.1 on every slot, compaction's
        survivors too, and the one label layout); every pair equal to
        Dijkstra (one row also through ``distance``). The graph holds
        exactly the model's roads, and the size stats follow the stores."""
        index = self.index
        graph, hu = index.graph, index.hu
        assert {(u, v): w for u, v, w in graph.edges()} == self.roads
        assert index.stats().label_entries == index.labels.num_entries
        assert index.stats().num_shortcuts == hu.num_shortcuts
        fresh = UpdateHierarchy.build(graph, index.hq)
        labels = build_labelling(fresh)
        assert index.labels.offsets.tobytes() == labels.offsets.tobytes()
        assert index.labels.values.tobytes() == labels.values.tobytes()
        _, mine, theirs = np.intersect1d(
            hu.csr.slot_keys, fresh.csr.slot_keys, return_indices=True
        )
        assert hu.up_weights[mine].tobytes() == fresh.up_weights[theirs].tobytes()
        if hu.direct is not None:
            direct = fresh.direct_weights()
            assert hu.direct[mine].tobytes() == direct[theirs].tobytes()
        only_fresh = np.ones(fresh.csr.num_slots, dtype=bool)
        only_fresh[theirs] = False
        assert np.isinf(fresh.up_weights[only_fresh]).all()
        index.verify()
        n = graph.num_vertices
        pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
        want = np.concatenate([dijkstra(graph, s) for s in range(n)])
        np.testing.assert_array_equal(index.distances(pairs), want)
        row = len(self.roads) % n  # one row through the one-pair kernel
        got = [index.distance(row, t) for t in range(n)]
        assert got == want[row * n : row * n + n].tolist()


def test_every_interleaving_equals_a_fresh_build(on_kernels):
    """The machine on the C kernels, and with every kernel swapped for
    its Python oracle (``on_kernels``, the fresh builds included) on
    fewer runs, each oracle step being Python end to end. A failure is
    shrunk but not explained: on a failing run the explain phase ran
    for minutes and grew to about 1 GB (2-core box)."""
    examples = 25 if on_kernels == "c" else 8
    run_state_machine_as_test(
        IndexModel,
        settings=settings(
            max_examples=examples,
            stateful_step_count=20,
            deadline=None,
            phases=[phase for phase in Phase if phase is not Phase.explain],
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        ),
    )

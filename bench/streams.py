"""Traffic generators: every stream is a pure function of its arguments.

The benchmark owns its traffic (nothing here comes from the program's
own workload helpers), so a change to those cannot move a benchmark
number. A stream is a list of rounds; the first ``warmup`` are replayed
and discarded. Every round does the same work at each of its positions -- the same
update burst, then fresh query pairs from the same distribution -- so a
position's time can be taken as a quartile over the rounds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from bench.spec import GRAPH_SEED, PERTURBED_EDGES, Workload

__all__ = ["Position", "Round", "Stream", "make_stream"]

WeightChange = tuple[int, int, float]
Edge = tuple[int, int, float]

#: Spot-check sample per round: sources x targets = 32 pairs, grouped by
#: source so one Dijkstra run answers a whole group.
CHECK_SOURCES = 4
CHECK_TARGETS = 8

ZIPF_ALPHA = 1.2


@dataclass
class Position:
    #: The update burst that opens the position.
    burst: list[WeightChange]
    #: sync paths: a ``(calls, batch, 2)`` array, one row of pairs per
    #: query call (``calls()`` makes the lists the program takes);
    #: async path: a list with one ``(s, t)`` request per entry.
    queries: np.ndarray | list

    def calls(self) -> list:
        """The queries as the program takes them: lists of int tuples.

        Made per round, just before it runs: a whole stream of tuples
        would weigh ten times its arrays, in this process and in every
        child forked from it.
        """
        if isinstance(self.queries, list):
            return self.queries
        return [_pairs(call) for call in self.queries]


@dataclass
class Round:
    positions: list[Position]
    #: Spot-check pairs, compared with Dijkstra after the round with the
    #: clock stopped. Bursts roll, so the weights are mid-stream there.
    check_pairs: list[tuple[int, int]]


@dataclass
class Stream:
    rounds: list[Round]
    #: How many of the leading rounds are warm-up.
    warmup: int
    #: Query pairs and weight changes of one timed round (all alike).
    pairs: int
    changes: int
    #: Restores the last perturbed group: the stream ends at base weights.
    epilogue: list[WeightChange]
    #: CRC32 over every generated array: equal fingerprints mean equal
    #: streams (``workers-road`` and ``sockets-road`` must share one).
    fingerprint: str


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _pairs(arr: np.ndarray) -> list[tuple[int, int]]:
    return list(map(tuple, arr.tolist()))


class _Fingerprint:
    def __init__(self) -> None:
        self.crc = 0

    def add(self, arr: np.ndarray) -> np.ndarray:
        self.crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), self.crc)
        return arr


def _uniform_calls(rng, n: int, calls: int, batch: int) -> np.ndarray:
    return rng.integers(0, n, size=(calls, batch, 2))


def _zipf_requests(rng, n: int, calls: int, perm: np.ndarray) -> np.ndarray:
    """Endpoints drawn from a bounded Zipf over a fixed vertex ranking."""
    p = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_ALPHA
    p /= p.sum()
    return perm[rng.choice(n, size=(calls, 2), p=p)]


def _region_calls(rng, members: list[np.ndarray], calls: int, batch: int) -> np.ndarray:
    """Half intra-region, half cross-region pairs per call, shuffled."""
    k = len(members)

    def sample(regions: np.ndarray) -> np.ndarray:
        out = np.empty(len(regions), dtype=np.int64)
        for r in range(k):
            mask = regions == r
            out[mask] = members[r][rng.integers(0, len(members[r]), int(mask.sum()))]
        return out

    half = batch // 2
    out = np.empty((calls, batch, 2), dtype=np.int64)
    for c in range(calls):
        rs = rng.integers(0, k, half)
        intra = np.stack([sample(rs), sample(rs)], axis=1)
        rs = rng.integers(0, k, batch - half)
        rt = (rs + rng.integers(1, k, batch - half)) % k
        cross = np.stack([sample(rs), sample(rt)], axis=1)
        out[c] = rng.permutation(np.concatenate([intra, cross]))
    return out


def _update_groups(
    tag: str, pool: list[Edge], count: int, mixed: bool
) -> list[list[tuple[int, int, float, float]]]:
    """*count* disjoint groups of ``(u, v, base, perturbed)`` edges.

    The groups and their order depend on the graph profile only, not on
    ``--seed``: the cost of a burst is heavy-tailed in which edges it
    hits (a 16-edge burst on the grid has a coefficient of variation of
    0.3-0.45), and which group's restore shares a burst with which
    group's increase moves the median burst by 10-19 % from seed to
    seed. No run that fits the time cap averages either out, so the
    update groups are part of the profile, like the graph.
    """
    rng = _rng(GRAPH_SEED, f"updates-{tag}")
    per_group = PERTURBED_EDGES
    if count * per_group > len(pool):
        raise ValueError(
            f"{count} update groups of {per_group} need more than the "
            f"{len(pool)} edges this graph has"
        )
    chosen = rng.choice(len(pool), count * per_group, replace=False)
    groups = []
    for g in range(count):
        group = []
        for i in chosen[g * per_group : (g + 1) * per_group]:
            u, v, w = pool[int(i)]
            group.append((u, v, w, _perturbed(w, rng, mixed)))
        groups.append(group)
    return groups


def _perturbed(w: float, rng, mixed: bool) -> float:
    if not mixed:
        return 2.0 * w
    # integer weights keep the increase-side equality pruning exact
    new = max(1.0, float(round(w * 2.0 ** rng.uniform(-1.0, 1.0))))
    return new if new != w else w + 1.0


def make_stream(
    workload: Workload,
    sizes: tuple[int, int, int],
    n: int,
    edges: list[Edge],
    seed: int,
    rounds: int,
    region_of: np.ndarray | None = None,
    cut_edges: list[Edge] | None = None,
) -> Stream:
    """The workload's warm-up rounds plus *rounds* timed rounds.

    *edges* is the base-weight edge list; the shard paths also pass the
    built index's ``region_of`` and cut edges (both deterministic for a
    fixed graph), so pairs can be split intra/cross and road bursts can
    touch the cut.

    Updates roll, and every round rolls through the same groups: the
    burst at position *j* perturbs group *j* and restores the group of
    the position before it (the last position's, at *j* = 0) in one
    call. A burst is therefore the same mix of increases and decreases
    (x2 and back on the grid, x0.5..x2.0 and back on the road graph),
    the weights are never at base mid-stream, and position *j* repeats
    the same maintenance work in every round. The stream's ``epilogue``
    restores the last group.
    """
    slots, calls, batch = sizes
    sharded = workload.path in ("workers", "sockets")
    # The two transports replay one stream: same tag, same seed.
    tag = f"shard-{workload.graph}" if sharded else workload.name
    rng = _rng(seed, tag)
    fp = _Fingerprint()
    mixed = workload.graph == "road"

    pool, cut = edges, []
    members: list[np.ndarray] = []
    if sharded:
        members = [
            np.flatnonzero(region_of == r) for r in range(int(region_of.max()) + 1)
        ]
        if mixed:  # every other road burst perturbs a cut edge
            if slots % 2:
                raise ValueError("road shard workloads need an even slot count")
            cut = sorted(cut_edges)
            pool = [e for e in edges if region_of[e[0]] == region_of[e[1]]]
    groups = _update_groups(tag, pool, slots, mixed)
    for g in range(0, slots, 2):
        if cut:  # perturbed at even positions, restored by the one after
            u, v, w = cut[int(rng.integers(0, len(cut)))]
            groups[g][-1] = (u, v, w, _perturbed(w, rng, mixed))
    perturb = [[(u, v, new) for u, v, _, new in group] for group in groups]
    restore = [[(u, v, base) for u, v, base, _ in group] for group in groups]
    bursts = [perturb[j] + restore[j - 1] for j in range(slots)]
    for burst in bursts:
        fp.add(np.asarray(burst, dtype=np.float64))
    perm = rng.permutation(n)

    out: list[Round] = []
    for r in range(workload.warmup + rounds):
        positions = []
        for j in range(slots):
            if workload.path == "async":
                queries = _pairs(fp.add(_zipf_requests(rng, n, calls, perm)))
            else:
                arr = (
                    _region_calls(rng, members, calls, batch)
                    if sharded
                    else _uniform_calls(rng, n, calls, batch)
                )
                queries = fp.add(arr)
            # Nothing is perturbed yet when the first round opens.
            burst = perturb[0] if r == j == 0 else bursts[j]
            positions.append(Position(burst, queries))
        sources = rng.integers(0, n, CHECK_SOURCES)
        targets = rng.integers(0, n, (CHECK_SOURCES, CHECK_TARGETS))
        check = [(int(s), int(t)) for s, row in zip(sources, targets) for t in row]
        out.append(Round(positions, check))
    return Stream(
        out,
        warmup=workload.warmup,
        pairs=slots * calls * batch,
        changes=sum(len(burst) for burst in bursts),
        epilogue=restore[-1],
        fingerprint=f"{fp.crc:08x}",
    )

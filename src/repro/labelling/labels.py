"""The hierarchical labelling data structure (distance map gamma).

For each vertex ``v`` the label is a dense ``float64`` run of length
``tau(v) + 1``: entry ``i`` holds ``L_v[i]``, the distance between ``v``
and its rank-``i`` ancestor within the ⪯_H-interval subgraph of H_U
(Definition 4.11); entry ``tau(v)`` is 0 (the vertex itself). The distance
scheme Gamma (Definitions 4.9/4.10) is purely conceptual — the ancestor
identities are implied by ranks, so only distances are stored, exactly as
in the paper.

Storage is a flat CSR-style store rather than a list of per-vertex
arrays: one contiguous ``values`` buffer plus ``offsets``/``lengths``
index arrays. Vertex ``v``'s label lives at
``values[offsets[v] : offsets[v] + lengths[v]]``. This layout is what
lets the batch-query kernel gather label entries with pure fancy
indexing (no padded copy), serialization dump/mmap the store as two
arrays, and bulk invariants run as single vector reductions. Per-vertex
*views* into the buffer are exposed for the maintenance algorithms,
which relax individual entries.

The store optionally carries per-vertex slack capacity
(``offsets[v + 1] - offsets[v] > lengths[v]``) so a label can be
extended in place; :meth:`HierarchicalLabelling.extend_label` grows with
amortised doubling when the slack runs out.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HierarchicalLabelling"]


class HierarchicalLabelling:
    """Distance map ``gamma`` over the conceptual distance scheme.

    Attributes
    ----------
    values:
        Contiguous float64 buffer holding every label entry (plus any
        slack capacity). May be a read-only memory map after
        ``load(..., mmap_labels=True)``; mutation goes through
        :meth:`ensure_writable`.
    offsets:
        ``int64`` array of length ``n + 1``; vertex ``v``'s slot is
        ``values[offsets[v] : offsets[v + 1]]``.
    lengths:
        ``int64`` array of length ``n``; entries in use per vertex
        (``tau[v] + 1`` unless a label was extended).
    tau:
        Rank array shared with the hierarchies.
    """

    __slots__ = ("values", "offsets", "lengths", "tau", "_views", "_record")

    def __init__(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        tau: np.ndarray,
    ):
        self.values = values
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.tau = tau
        self._views: list[np.ndarray] | None = None
        # The C kernels' record of values / offsets, bound at the first
        # query and again whenever either array is swapped for another
        # (repro.labelling.native.engine).
        self._record = None

    @classmethod
    def from_arrays(
        cls,
        arrays: list[np.ndarray],
        tau: np.ndarray,
        slack: float = 0.0,
    ) -> "HierarchicalLabelling":
        """Build a flat store from ragged per-vertex arrays.

        ``slack`` reserves ``ceil(slack * len)`` spare slots per vertex
        so in-place :meth:`extend_label` calls need no store rebuild.
        """
        n = len(arrays)
        lengths = np.asarray([len(a) for a in arrays], dtype=np.int64)
        caps = lengths + np.ceil(slack * lengths).astype(np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(caps, out=offsets[1:])
        values = np.full(int(offsets[-1]), np.inf, dtype=np.float64)
        for v, row in enumerate(arrays):
            values[offsets[v] : offsets[v] + lengths[v]] = row
        return cls(values, offsets, lengths, tau)

    # -- pickling ---------------------------------------------------------
    def __getstate__(self):
        """Pickle without the view cache or the kernels' record.

        ``_views`` holds numpy *views* into ``values``; pickling would
        materialise them as detached copies, and an unpickled store
        would then route maintenance writes into dead buffers. The
        views are rebuilt lazily on first use instead, and the record
        (this process's addresses) is bound again at the first query.
        """
        return (self.values, self.offsets, self.lengths, self.tau)

    def __setstate__(self, state) -> None:
        self.values, self.offsets, self.lengths, self.tau = state
        self._views = None
        self._record = None

    # -- per-vertex views -------------------------------------------------
    def view(self, v: int) -> np.ndarray:
        """Zero-copy view of vertex *v*'s label (shares the flat buffer)."""
        start = self.offsets[v]
        return self.values[start : start + self.lengths[v]]

    def views(self) -> list[np.ndarray]:
        """Per-vertex views into the flat buffer, cached until the buffer
        is replaced (:meth:`ensure_writable`, :meth:`extend_label`)."""
        if self._views is None:
            offsets = self.offsets
            lengths = self.lengths
            values = self.values
            self._views = [
                values[offsets[v] : offsets[v] + lengths[v]]
                for v in range(len(lengths))
            ]
        return self._views

    # -- element access ---------------------------------------------------
    def entry(self, v: int, i: int) -> float:
        """``L_v[i]`` — distance from *v* to its rank-``i`` ancestor."""
        return float(self.values[self.offsets[v] + i])

    def entry_for(self, v: int, w: int) -> float:
        """``L_v[w]`` for an ancestor vertex *w* (paper's index-by-vertex)."""
        return float(self.values[self.offsets[v] + int(self.tau[w])])

    def set_entry(self, v: int, i: int, value: float) -> None:
        self.ensure_writable()
        self.values[self.offsets[v] + i] = value

    # -- mutation support -------------------------------------------------
    def ensure_writable(self) -> None:
        """Materialise the buffer in memory if it is a read-only mmap.

        Maintenance entry points call this so a snapshot loaded with
        ``mmap_mode="r"`` can serve queries straight off disk yet still
        accept updates (copy-on-first-write).
        """
        if not self.values.flags.writeable:
            self.values = np.array(self.values, dtype=np.float64)
            self._views = None

    def extend_label(self, v: int, new_length: int) -> np.ndarray:
        """Grow vertex *v*'s label to *new_length* entries (inf-filled).

        Uses the slot's slack when available (in-place, O(new entries));
        otherwise rebuilds the store with *v*'s capacity at least
        doubled, so repeated extensions of the same vertex trigger only
        O(log growth) rebuilds. Returns the (possibly new) view.
        """
        self.ensure_writable()
        length = int(self.lengths[v])
        if new_length <= length:
            return self.view(v)
        start = int(self.offsets[v])
        capacity = int(self.offsets[v + 1]) - start
        if new_length > capacity:
            caps = np.diff(self.offsets)
            caps[v] = max(new_length, 2 * capacity)
            offsets = np.zeros(len(caps) + 1, dtype=np.int64)
            np.cumsum(caps, out=offsets[1:])
            values = np.full(int(offsets[-1]), np.inf, dtype=np.float64)
            for u in range(len(caps)):
                run = int(self.lengths[u])
                src = int(self.offsets[u])
                values[offsets[u] : offsets[u] + run] = self.values[
                    src : src + run
                ]
            self.values = values
            self.offsets = offsets
            self._views = None
            start = int(offsets[v])
        self.values[start + length : start + new_length] = np.inf
        self.lengths[v] = new_length
        self._views = None
        return self.view(v)

    # -- cross-process buffer publication ---------------------------------
    def export_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, offsets)`` packed for publication outside this process.

        The two arrays are exactly the format-v3 snapshot layout
        (``label_values.npy`` + ``label_offsets.npy``) and exactly what
        :meth:`from_shared_buffers` re-binds on the far side, so the same
        buffers serve disk snapshots, memory maps, and shared-memory
        shard workers. Zero-copy when the store is already packed.
        """
        return self.packed()

    @classmethod
    def from_shared_buffers(
        cls, values: np.ndarray, offsets: np.ndarray, tau: np.ndarray
    ) -> "HierarchicalLabelling":
        """Bind a labelling onto externally owned buffers without copying.

        ``values``/``offsets`` are the :meth:`export_buffers` pair —
        typically numpy views over ``multiprocessing.shared_memory``
        segments published by another process. The store keeps reading
        whatever the owner writes into those buffers, which is how shard
        workers observe the parent's delta re-publishes; callers that
        mutate must coordinate an epoch protocol around it.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        return cls(values, offsets, np.diff(offsets), tau)

    # -- packed export ----------------------------------------------------
    @property
    def is_packed(self) -> bool:
        """True when the buffer carries no slack (offsets == cumsum lengths)."""
        return bool(np.array_equal(np.diff(self.offsets), self.lengths))

    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, offsets)`` with all slack squeezed out.

        Returns the live arrays (no copy) when the store is already
        packed — this is the serialization fast path.
        """
        if self.is_packed:
            return self.values, self.offsets
        offsets = np.zeros(len(self.lengths) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=offsets[1:])
        return np.concatenate(self.views()), offsets

    def _used_values(self) -> np.ndarray:
        """All in-use entries as one flat array (zero-copy when packed)."""
        return self.packed()[0]

    def compact(self) -> int:
        """Squeeze slack capacity out of the flat buffer, in place.

        The structural compaction pass calls this alongside the shortcut
        store squeeze so a long-lived index does not keep paying for
        label slots that :meth:`extend_label` over-allocated. Returns the
        number of buffer bytes reclaimed (0 when already packed).
        """
        before = self.values.nbytes
        if self.is_packed:
            return 0
        values, offsets = self.packed()
        self.values = values
        self.offsets = offsets
        self._views = None
        return before - self.values.nbytes

    # -- bulk properties --------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.lengths)

    @property
    def num_entries(self) -> int:
        """Total label entries (paper's |L| in Table 3)."""
        return int(self.lengths.sum())

    def memory_bytes(self) -> int:
        """Bytes of label payload in use (excludes slack and index arrays)."""
        return 8 * self.num_entries

    def capacity_bytes(self) -> int:
        """Bytes of the whole store: value buffer plus index arrays."""
        return self.values.nbytes + self.offsets.nbytes + self.lengths.nbytes

    def copy(self) -> "HierarchicalLabelling":
        return HierarchicalLabelling(
            self.values.copy(), self.offsets.copy(), self.lengths.copy(), self.tau
        )

    def equals(self, other: "HierarchicalLabelling", tolerance: float = 0.0) -> bool:
        """Exact (or tolerance-bounded) equality of every label entry.

        Because label entries are deterministic interval-subgraph
        distances, a correctly maintained labelling must *equal* the
        labelling rebuilt from scratch — the strongest maintenance check.
        Runs as flat vector reductions over the packed stores.
        """
        if len(self.lengths) != len(other.lengths):
            return False
        if not np.array_equal(self.lengths, other.lengths):
            return False
        a = self._used_values()
        b = other._used_values()
        finite_a = np.isfinite(a)
        finite_b = np.isfinite(b)
        if not np.array_equal(finite_a, finite_b):
            return False
        if tolerance == 0.0:
            return bool(np.array_equal(a[finite_a], b[finite_b]))
        return bool(
            np.allclose(a[finite_a], b[finite_b], atol=tolerance, rtol=0.0)
        )

    def diff_count(self, other: "HierarchicalLabelling") -> int:
        """Number of entries that differ from *other* (for L-delta stats)."""
        a = self._used_values()
        b = other._used_values()
        both_inf = np.isinf(a) & np.isinf(b)
        return int((~both_inf & (a != b)).sum())

    def validate_basic(self) -> None:
        """Cheap invariants: diagonal zero, non-negative entries.

        Labels must hold at least ``tau + 1`` entries (extended labels
        may hold more, inf-filled past the diagonal), and the diagonal —
        at index ``tau[v]``, not necessarily last — must be zero.
        """
        tau = np.asarray(self.tau, dtype=np.int64)
        assert (self.lengths >= tau + 1).all(), "label length mismatch"
        used = self._used_values()
        assert (used >= 0).all(), "negative label entry"
        diagonal = self.values[self.offsets[:-1] + tau]
        assert (diagonal == 0.0).all(), "non-zero diagonal entry"

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        mb = self.memory_bytes() / 1e6
        return (
            f"HierarchicalLabelling(vertices={self.num_vertices}, "
            f"entries={self.num_entries}, {mb:.2f} MB)"
        )

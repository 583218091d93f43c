"""The hierarchical labelling data structure (distance map gamma).

For each vertex ``v`` the label is a dense ``float64`` run of length
``tau(v) + 1``: entry ``i`` holds ``L_v[i]``, the distance between ``v``
and its rank-``i`` ancestor within the ⪯_H-interval subgraph of H_U
(Definition 4.11); entry ``tau(v)`` is 0 (the vertex itself). The distance
scheme Gamma (Definitions 4.9/4.10) is purely conceptual — the ancestor
identities are implied by ranks, so only distances are stored, exactly as
in the paper.

Storage is one packed CSR-style layout: a contiguous ``values`` buffer
and an ``offsets`` array, vertex ``v``'s label being
``values[offsets[v] : offsets[v + 1]]`` — exactly ``tau(v) + 1``
entries, no spare capacity. Maintenance changes entry values, never
row lengths; a change that alters H_Q builds a new store. This layout
is what lets the batch-query kernel gather label entries with pure
fancy indexing, serialization dump/mmap the store as two arrays, shard
replicas attach the same two arrays over shared memory, and bulk
invariants run as single vector reductions.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import HierarchyError

__all__ = ["HierarchicalLabelling", "row_offsets"]


def row_offsets(tau: np.ndarray) -> np.ndarray:
    """The one layout's ``int64`` offsets: row ``v`` holds ``tau[v] + 1``
    entries."""
    offsets = np.zeros(len(tau) + 1, dtype=np.int64)
    np.cumsum(np.asarray(tau, dtype=np.int64) + 1, out=offsets[1:])
    return offsets


class HierarchicalLabelling:
    """Distance map ``gamma`` over the conceptual distance scheme.

    Attributes
    ----------
    values:
        Contiguous float64 buffer holding every label entry. May be a
        read-only memory map after ``load(..., mmap_labels=True)`` or a
        view of another process's shared memory; mutation goes through
        :meth:`ensure_writable`.
    offsets:
        ``int64`` array of length ``n + 1``; vertex ``v``'s label is
        ``values[offsets[v] : offsets[v + 1]]``, ``tau[v] + 1`` entries.
        The same pair is the snapshot's ``label_values.npy`` /
        ``label_offsets.npy`` and a shard replica's segment pair.
    tau:
        Rank array shared with the hierarchies.
    """

    __slots__ = ("values", "offsets", "tau", "_record")

    def __init__(self, values: np.ndarray, offsets: np.ndarray, tau: np.ndarray):
        self.values = values
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.tau = tau
        # The C kernels' record of values / offsets, bound at the first
        # query and again whenever either array is swapped for another
        # (repro.labelling.native.engine).
        self._record = None

    @classmethod
    def initial(cls, tau: np.ndarray) -> "HierarchicalLabelling":
        """Every entry ``inf`` but the zero diagonal — the store
        Algorithm 1 starts from."""
        offsets = row_offsets(tau)
        values = np.full(int(offsets[-1]), np.inf, dtype=np.float64)
        values[offsets[1:] - 1] = 0.0
        return cls(values, offsets, tau)

    # -- pickling ---------------------------------------------------------
    def __getstate__(self):
        """Pickle without the kernels' record (this process's addresses),
        which is bound again at the first query."""
        return (self.values, self.offsets, self.tau)

    def __setstate__(self, state) -> None:
        self.values, self.offsets, self.tau = state
        self._record = None

    # -- element access ---------------------------------------------------
    def view(self, v: int) -> np.ndarray:
        """Zero-copy view of vertex *v*'s label (shares the flat buffer)."""
        return self.values[self.offsets[v] : self.offsets[v + 1]]

    def entry(self, v: int, i: int) -> float:
        """``L_v[i]`` — distance from *v* to its rank-``i`` ancestor."""
        return float(self.values[self.offsets[v] + i])

    # -- mutation support -------------------------------------------------
    def ensure_writable(self) -> None:
        """Materialise the buffer in memory if it is a read-only mmap.

        Maintenance entry points call this so a snapshot loaded with
        ``mmap_mode="r"`` can serve queries straight off disk yet still
        accept updates (copy-on-first-write).
        """
        if not self.values.flags.writeable:
            self.values = np.array(self.values, dtype=np.float64)

    # -- bulk properties --------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_entries(self) -> int:
        """Total label entries (paper's |L| in Table 3)."""
        return int(self.offsets[-1])

    def memory_bytes(self) -> int:
        """Bytes of label payload (excludes the offsets array)."""
        return 8 * self.num_entries

    def copy(self) -> "HierarchicalLabelling":
        return HierarchicalLabelling(
            self.values.copy(), self.offsets.copy(), self.tau
        )

    def _entries(self) -> np.ndarray:
        return self.values[: self.num_entries]

    def equals(self, other: "HierarchicalLabelling", tolerance: float = 0.0) -> bool:
        """Exact (or tolerance-bounded) equality of every label entry.

        Because label entries are deterministic interval-subgraph
        distances, a correctly maintained labelling must *equal* the
        labelling rebuilt from scratch — the strongest maintenance check.
        Runs as flat vector reductions over the two stores.
        """
        if not np.array_equal(self.offsets, other.offsets):
            return False
        a = self._entries()
        b = other._entries()
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
        a = self._entries()
        b = other._entries()
        both_inf = np.isinf(a) & np.isinf(b)
        return int((~both_inf & (a != b)).sum())

    def validate_basic(self) -> None:
        """Cheap invariants of the one layout: every row holds exactly
        ``tau + 1`` entries, the rows fill the value buffer exactly,
        none is negative, and the diagonal — the last entry of each
        row — is zero.

        Raises :class:`~repro.exceptions.HierarchyError`.
        """
        offsets = self.offsets
        if not np.array_equal(offsets, row_offsets(self.tau)):
            raise HierarchyError("label rows are not tau + 1 contiguous entries")
        if offsets[-1] != len(self.values):
            raise HierarchyError("label rows do not fill the value buffer")
        if (self._entries() < 0).any():
            raise HierarchyError("negative label entry")
        if (self.values[offsets[1:] - 1] != 0.0).any():
            raise HierarchyError("non-zero diagonal entry")

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        mb = self.memory_bytes() / 1e6
        return (
            f"HierarchicalLabelling(vertices={self.num_vertices}, "
            f"entries={self.num_entries}, {mb:.2f} MB)"
        )

"""Build-time configuration for DHL indexes."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import IndexBuildError

__all__ = ["DHLConfig"]


@dataclass(frozen=True)
class DHLConfig:
    """Tunable knobs of index construction.

    Attributes
    ----------
    beta:
        Balance parameter of the query hierarchy (Definition 4.1): each
        child subtree holds at most ``1 - beta`` of its parent's
        vertices. The paper selects 0.2.
    leaf_size:
        Partition parts at most this large become leaf tree nodes.
    seed:
        Seed for the randomised partitioning heuristics; fixed seed means
        reproducible indexes.
    engine:
        The two maintenance sweeps (Algorithms 2 + 3 over the
        shortcuts, 4 + 5 over the labels, each for a whole mixed batch)
        the driver in :mod:`repro.labelling.driver` runs, and the batch
        query kernel.
        ``"compiled"`` (default) runs the C kernels of
        :mod:`repro.labelling.native`, built with the host's ``cc`` at
        first use and cached per user; where they cannot be had (no
        compiler, a failed build) it downgrades to ``"reference"`` with
        a one-time warning — see :meth:`resolve_engine`.
        ``"reference"`` runs the scalar one-pop-per-entry sweeps of
        :mod:`repro.labelling.maintenance` and the numpy queries. Both
        engines produce identical labels, change counts and affected
        sets — the differential tests hold them to it. The engine
        belongs to the machine, not the index: snapshots do not record
        it.
    validate:
        When True, run the (expensive) structural invariant checks after
        construction: comparability of shortcut endpoints and the
        minimum-weight property. Intended for tests and debugging.
    insert_closure_limit:
        Structural-insertion fast-path budget: the maximum number of new
        shortcut slots one ``apply_batch`` may allocate through the
        transitive closure before the batch falls back to rebuilding the
        shortcut hierarchy on the same H_Q. The closure stays small when
        both endpoints share a leaf of H_Q (their LCA subtree is tiny)
        and grows with the LCA subtree's separator sizes, so this is the
        "LCA subtree below a size threshold" gate expressed in units of
        actual allocation work. 0 disables the fast path entirely.
    compaction_threshold:
        Dead-slot fraction of the CSR shortcut store above which the
        serving layer triggers a compaction pass on flush (a slot is
        dead when its weight — both directions for the directed index —
        is inf, i.e. the edge was structurally deleted). 1.0 disables
        automatic compaction; explicit ``index.compact()`` always works.
    """

    beta: float = 0.2
    leaf_size: int = 8
    seed: int = 0
    engine: str = "compiled"
    validate: bool = False
    insert_closure_limit: int = 4096
    compaction_threshold: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 0.5:
            raise IndexBuildError(f"beta must be in (0, 0.5], got {self.beta}")
        if self.leaf_size < 1:
            raise IndexBuildError(f"leaf_size must be >= 1, got {self.leaf_size}")
        if self.engine not in ("compiled", "reference"):
            raise IndexBuildError(
                "engine must be one of 'compiled' or 'reference', "
                f"got {self.engine!r}"
            )
        if self.insert_closure_limit < 0:
            raise IndexBuildError(
                "insert_closure_limit must be >= 0, got "
                f"{self.insert_closure_limit}"
            )
        if not 0.0 < self.compaction_threshold <= 1.0:
            raise IndexBuildError(
                "compaction_threshold must be in (0, 1], got "
                f"{self.compaction_threshold}"
            )

    def resolve_engine(self) -> str:
        """The engine that will actually run.

        ``"reference"`` resolves to itself. ``"compiled"`` resolves to
        itself when the native library loads (compiling it on the first
        call a user ever makes) and downgrades to ``"reference"``
        otherwise, emitting a single
        ``RuntimeWarning`` per process that names the reason — a host
        without a C compiler is never an error.
        :func:`repro.labelling.native.status` has the details.
        """
        from repro.labelling.native import resolved_engine

        return resolved_engine(self.engine)

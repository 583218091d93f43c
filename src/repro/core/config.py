"""Build-time configuration for DHL indexes."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import IndexBuildError

__all__ = ["DHLConfig"]


@dataclass(frozen=True)
class DHLConfig:
    """Tunable knobs of index construction.

    There is no engine knob: every algorithm runs in the C kernels of
    :mod:`repro.labelling.native`, built with the host's C compiler at
    first use (a host without one raises
    :class:`~repro.exceptions.NativeUnavailableError` on the first
    build). Snapshots written when the config still had an ``engine``
    field load; the field is dropped.

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
    validate: bool = False
    insert_closure_limit: int = 4096
    compaction_threshold: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 0.5:
            raise IndexBuildError(f"beta must be in (0, 0.5], got {self.beta}")
        if self.leaf_size < 1:
            raise IndexBuildError(f"leaf_size must be >= 1, got {self.leaf_size}")
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
        """Load the C kernel library and return ``"compiled"``.

        Kept for the benchmark harness, which records this name as its
        ``engine`` meta key; there is no other engine. Raises
        :class:`~repro.exceptions.NativeUnavailableError` where the
        library cannot be had.
        """
        from repro.labelling.native import library

        library()
        return "compiled"

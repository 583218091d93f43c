"""Search-space analytics behind the paper's Figure 6 discussion.

The paper explains DHL's query behaviour through the number of label
entries a query inspects: long-range pairs meet at high hierarchy levels
and share *few* common ancestors, short-range pairs share many. This
module measures exactly that — the per-query-set average of DHL's
common-ancestor count ``K`` and H2H's LCA bag width — turning the paper's
qualitative explanation into a measured quantity.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.h2h import H2HIndex
from repro.core.index import DHLIndex
from repro.experiments.measure import mean
from repro.experiments.report import ascii_table

__all__ = ["query_search_space", "search_space_by_query_set"]


def query_search_space(
    dhl: DHLIndex, h2h: H2HIndex | None, pairs: list[tuple[int, int]]
) -> dict[str, float]:
    """Average label entries scanned per query for each method."""
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    counts = dhl.engine.common_ancestor_counts(ends[:, 0], ends[:, 1])
    dhl_entries = mean((2 * counts).tolist())
    out = {"DHL_entries": dhl_entries}
    if h2h is not None:
        out["IncH2H_entries"] = mean(
            2 * len(h2h.pos[h2h.lca(s, t)])
            for s, t in pairs
            if h2h.anc[s, 0] == h2h.anc[t, 0]
        )
    return out


def search_space_by_query_set(
    dhl: DHLIndex,
    h2h: H2HIndex | None,
    query_sets: list[list[tuple[int, int]]],
) -> dict:
    """Per-Q-set search-space table (companion to Figure 6)."""
    rows = []
    raw = []
    for i, pairs in enumerate(query_sets, start=1):
        if not pairs:
            rows.append([f"Q{i}", 0, "-", "-"])
            raw.append({})
            continue
        entry = query_search_space(dhl, h2h, pairs)
        raw.append(entry)
        rows.append(
            [
                f"Q{i}",
                len(pairs),
                f"{entry['DHL_entries']:.1f}",
                f"{entry.get('IncH2H_entries', float('nan')):.1f}",
            ]
        )
    text = ascii_table(
        ["Set", "pairs", "DHL entries/query", "IncH2H entries/query"],
        rows,
        title="Search space per distance-stratified query set",
    )
    return {"rows": rows, "raw": raw, "text": text}

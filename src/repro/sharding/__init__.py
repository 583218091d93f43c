"""Region-sharded index machinery.

Splits a road network into k edge-disjoint regions (reusing the
multilevel bisection pipeline via :func:`repro.partition.partition_regions`),
builds one DHL index per region plus a small overlay index on the
boundary-vertex graph, and routes queries and maintenance between
them:

* :mod:`repro.sharding.overlay` — boundary overlay graph assembly and
  incremental clique-edge refresh after shard maintenance;
* :mod:`repro.sharding.engine` — the vectorised shard-routed query
  kernel (intra-shard fast path, cross-shard min-plus combine);
* :mod:`repro.sharding.stats` — per-shard maintenance accounting.

The user-facing facade is :class:`repro.core.sharded.ShardedDHLIndex`.
"""

from repro.sharding.engine import ShardedQueryEngine
from repro.sharding.overlay import build_overlay_graph, clique_refresh_changes
from repro.sharding.stats import ShardedMaintenanceStats

__all__ = [
    "ShardedQueryEngine",
    "build_overlay_graph",
    "clique_refresh_changes",
    "ShardedMaintenanceStats",
]

"""Synthetic road-network generators.

The paper evaluates on nine DIMACS USA road networks plus PTV's Western
Europe network; neither is bundled here and this environment has no network
access, so these generators produce *synthetic equivalents*: planar-ish
graphs with road-like degree distributions (|E|/|V| around 1.2-1.5
undirected), integer travel-time weights and tuneable geometry. See
DESIGN.md section 3 for the substitution rationale.

All generators return connected graphs with coordinates attached, so the
geometric partitioners and the A* baseline work out of the box.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.utils.disjoint_set import DisjointSet
from repro.utils.rng import make_rng

__all__ = [
    "grid_network",
    "delaunay_network",
    "highway_network",
    "random_connected_graph",
]

#: Multiplier converting unit-square distances to integer travel times.
_WEIGHT_SCALE = 10_000.0


def _integer_weight(length: float, factor: float) -> float:
    """Convert a geometric length into a positive integer travel time.

    Uses ceiling so that ``weight >= _WEIGHT_SCALE * length`` whenever
    ``factor >= 1`` — this keeps the scaled Euclidean distance an
    *admissible* A* heuristic (see :mod:`repro.baselines.astar`).
    """
    return float(max(1, math.ceil(length * factor * _WEIGHT_SCALE)))


def grid_network(
    rows: int,
    cols: int,
    seed: int | np.random.Generator | None = 0,
    diagonal_fraction: float = 0.1,
    weight_jitter: float = 0.5,
) -> Graph:
    """Rectangular grid network with jittered weights and a few diagonals.

    Grids are the classic worst-case-ish planar benchmark: they have
    large balanced separators relative to their size, which stresses the
    partitioner. ``diagonal_fraction`` of the cells gain one diagonal
    shortcut, mimicking irregular city blocks.
    """
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    rng = make_rng(seed)
    n = rows * cols
    coords = np.zeros((n, 2), dtype=np.float64)
    step_x = 1.0 / max(1, cols - 1) if cols > 1 else 1.0
    step_y = 1.0 / max(1, rows - 1) if rows > 1 else 1.0

    def vid(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            coords[vid(r, c)] = (c * step_x, r * step_y)

    g = Graph(n, coords)
    for r in range(rows):
        for c in range(cols):
            v = vid(r, c)
            jitter = 1.0 + weight_jitter * float(rng.random())
            if c + 1 < cols:
                g.add_edge(v, vid(r, c + 1), _integer_weight(step_x, jitter))
            jitter = 1.0 + weight_jitter * float(rng.random())
            if r + 1 < rows:
                g.add_edge(v, vid(r + 1, c), _integer_weight(step_y, jitter))
            if (
                c + 1 < cols
                and r + 1 < rows
                and rng.random() < diagonal_fraction
            ):
                diag = math.hypot(step_x, step_y)
                jitter = 1.0 + weight_jitter * float(rng.random())
                g.add_edge(v, vid(r + 1, c + 1), _integer_weight(diag, jitter))
    return g


def _sample_points(
    n: int, rng: np.random.Generator, style: str
) -> np.ndarray:
    """Sample *n* points in the unit square shaped by *style*."""
    if style == "uniform":
        return rng.random((n, 2))
    if style == "city":
        # Density decays from a downtown core: mixture of a tight Gaussian
        # core and a uniform suburban field.
        core = rng.normal(0.5, 0.12, size=(n, 2))
        field = rng.random((n, 2))
        pick = rng.random(n) < 0.6
        pts = np.where(pick[:, None], core, field)
        return np.clip(pts, 0.0, 1.0)
    if style == "bay":
        # Uniform points with a circular bay (water) removed, forcing the
        # network to wrap around an obstacle like the San Francisco Bay.
        pts = np.empty((0, 2))
        while len(pts) < n:
            cand = rng.random((2 * n, 2))
            keep = np.hypot(cand[:, 0] - 0.35, cand[:, 1] - 0.5) > 0.18
            pts = np.vstack([pts, cand[keep]])
        return pts[:n]
    if style == "continental":
        # Two dense landmasses joined by a sparse corridor (western Europe
        # style): most mass in two clusters, a thin band between them.
        k = n // 2
        a = np.column_stack([rng.normal(0.22, 0.10, k), rng.normal(0.5, 0.16, k)])
        b = np.column_stack(
            [rng.normal(0.78, 0.10, n - k - n // 20), rng.normal(0.5, 0.16, n - k - n // 20)]
        )
        bridge = np.column_stack(
            [rng.uniform(0.35, 0.65, n // 20), rng.normal(0.5, 0.05, n // 20)]
        )
        pts = np.vstack([a, b, bridge])
        return np.clip(pts, 0.0, 1.0)
    raise GraphError(f"unknown point style {style!r}")


def _delaunay_edges(points: np.ndarray) -> list[tuple[float, int, int]]:
    """Unique Delaunay edges as ``(length, u, v)`` triples."""
    # Imported here, its only user, so that importing the graph package
    # (and every replica process) does not load scipy.
    from scipy.spatial import Delaunay

    tri = Delaunay(points)
    pairs: set[tuple[int, int]] = set()
    for simplex in tri.simplices:
        a, b, c = (int(x) for x in simplex)
        pairs.add((min(a, b), max(a, b)))
        pairs.add((min(a, c), max(a, c)))
        pairs.add((min(b, c), max(b, c)))
    edges = []
    for u, v in pairs:
        length = float(np.hypot(*(points[u] - points[v])))
        edges.append((length, u, v))
    return edges


def delaunay_network(
    n: int,
    seed: int | np.random.Generator | None = 0,
    style: str = "uniform",
    edge_factor: float = 1.35,
    weight_jitter: float = 0.4,
) -> Graph:
    """Random geometric road network from a pruned Delaunay triangulation.

    Sample points, triangulate, keep a Euclidean minimum spanning tree for
    connectivity, then add the shortest remaining Delaunay edges until the
    undirected edge count reaches ``edge_factor * n``. The result matches
    real road networks' sparsity (DIMACS networks have ~1.2-1.4 undirected
    edges per vertex) while staying planar.

    Parameters
    ----------
    style:
        Point distribution: ``uniform``, ``city``, ``bay`` or
        ``continental`` (see :func:`_sample_points`).
    """
    if n < 3:
        raise GraphError("delaunay_network needs n >= 3")
    rng = make_rng(seed)
    points = _sample_points(n, rng, style)
    edges = sorted(_delaunay_edges(points))

    target_m = min(len(edges), max(n - 1, int(round(edge_factor * n))))
    ds = DisjointSet(n)
    chosen: list[tuple[float, int, int]] = []
    extras: list[tuple[float, int, int]] = []
    for length, u, v in edges:  # Kruskal pass: tree edges first
        if ds.union(u, v):
            chosen.append((length, u, v))
        else:
            extras.append((length, u, v))
    chosen.extend(extras[: max(0, target_m - len(chosen))])

    g = Graph(n, points)
    for length, u, v in chosen:
        jitter = 1.0 + weight_jitter * float(rng.random())
        g.add_edge(u, v, _integer_weight(length, jitter))
    return g


def highway_network(
    clusters: int,
    cluster_size: int,
    seed: int | np.random.Generator | None = 0,
    highway_speedup: float = 3.0,
) -> Graph:
    """Hierarchical network: dense local clusters plus fast highways.

    Cluster centres sit on a jittered grid; each centre grows a Gaussian
    town whose internal roads come from a Delaunay triangulation. Edges
    longer than the typical town radius are treated as highways and get
    their travel time divided by ``highway_speedup``, reproducing the
    highway hierarchy that makes contraction-based methods shine.
    """
    if clusters < 2 or cluster_size < 3:
        raise GraphError("need at least 2 clusters of size >= 3")
    rng = make_rng(seed)
    side = max(1, int(round(math.sqrt(clusters))))
    centres = []
    for i in range(clusters):
        cx = (i % side + 0.5) / side
        cy = (i // side + 0.5) / side
        centres.append((cx + rng.normal(0, 0.05), cy + rng.normal(0, 0.05)))
    radius = 0.25 / side
    pts = []
    for cx, cy in centres:
        local = rng.normal((cx, cy), radius, size=(cluster_size, 2))
        pts.append(local)
    points = np.clip(np.vstack(pts), 0.0, 1.0)
    n = len(points)

    edges = sorted(_delaunay_edges(points))
    ds = DisjointSet(n)
    chosen: list[tuple[float, int, int]] = []
    extras: list[tuple[float, int, int]] = []
    for length, u, v in edges:
        if ds.union(u, v):
            chosen.append((length, u, v))
        else:
            extras.append((length, u, v))
    target_m = int(round(1.3 * n))
    chosen.extend(extras[: max(0, target_m - len(chosen))])

    g = Graph(n, points)
    highway_cutoff = 2.5 * radius
    for length, u, v in chosen:
        jitter = 1.0 + 0.3 * float(rng.random())
        factor = jitter / highway_speedup if length > highway_cutoff else jitter
        g.add_edge(u, v, _integer_weight(length, factor))
    return g


def random_connected_graph(
    n: int,
    extra_edges: int = 0,
    seed: int | np.random.Generator | None = 0,
    max_weight: int = 100,
) -> Graph:
    """Random connected multigraph-free graph for tests and fuzzing.

    A random spanning tree (uniform attachment) plus ``extra_edges``
    random non-duplicate edges, all with integer weights in
    ``[1, max_weight]``. Not road-like; used as an adversarial input.
    """
    if n < 1:
        raise GraphError("n must be positive")
    rng = make_rng(seed)
    g = Graph(n)
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[i])
        v = int(order[rng.integers(0, i)])
        g.add_edge(u, v, float(rng.integers(1, max_weight + 1)))
    attempts = 0
    added = 0
    max_extra = n * (n - 1) // 2 - (n - 1)
    extra_edges = min(extra_edges, max_extra)
    while added < extra_edges and attempts < 50 * extra_edges + 100:
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(rng.integers(1, max_weight + 1)))
            added += 1
    return g

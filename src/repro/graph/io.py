"""Graph serialization: DIMACS shortest-path format, edge lists, JSON.

The 9th DIMACS Implementation Challenge format is what the paper's USA
datasets ship in (``.gr`` arcs, ``.co`` coordinates); implementing it lets
the real road networks be plugged into this reproduction unchanged when
they are available. Synthetic suites round-trip through the same readers
so all code paths are exercised by tests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from repro.exceptions import GraphFormatError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph

__all__ = [
    "read_dimacs",
    "write_dimacs",
    "read_dimacs_coordinates",
    "write_dimacs_coordinates",
    "read_edge_list",
    "write_edge_list",
    "graph_to_json",
    "graph_from_json",
    "graph_from_payload",
]


def _open_lines(source: str | Path | TextIO | Iterable[str]) -> Iterable[str]:
    """Accept a path, an open file object, or an iterable of lines."""
    if isinstance(source, (str, Path)):
        return Path(source).read_text().splitlines()
    if hasattr(source, "read"):
        return source.read().splitlines()  # type: ignore[union-attr]
    return source


def read_dimacs(source: str | Path | TextIO, undirected: bool = True) -> Graph | DiGraph:
    """Parse a DIMACS ``.gr`` file.

    DIMACS road networks list both directions of every road as separate
    arcs. With ``undirected=True`` (the paper's setting) arcs collapse into
    undirected edges keeping the minimum weight; otherwise a
    :class:`DiGraph` is returned.
    """
    n = None
    arcs: list[tuple[int, int, float]] = []
    declared_m = None
    for lineno, raw in enumerate(_open_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "sp":
                raise GraphFormatError(f"line {lineno}: malformed problem line {line!r}")
            n, declared_m = int(parts[2]), int(parts[3])
        elif parts[0] == "a":
            if len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: malformed arc line {line!r}")
            if n is None:
                raise GraphFormatError(f"line {lineno}: arc before problem line")
            u, v, w = int(parts[1]) - 1, int(parts[2]) - 1, float(parts[3])
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex out of range in {line!r}")
            if u != v:  # DIMACS files occasionally carry self-loops; drop them
                arcs.append((u, v, w))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    if declared_m is not None and declared_m < len(arcs):
        raise GraphFormatError(
            f"problem line declares {declared_m} arcs but file has {len(arcs)}"
        )
    if undirected:
        return Graph.from_edges(n, arcs)
    return DiGraph.from_arcs(n, arcs)


def write_dimacs(graph: Graph | DiGraph, path: str | Path, comment: str = "") -> None:
    """Write a graph as a DIMACS ``.gr`` file (one arc per direction)."""
    if isinstance(graph, Graph):
        arcs = [(u, v, w) for u, v, w in graph.edges()]
        arcs += [(v, u, w) for u, v, w in graph.edges()]
    else:
        arcs = list(graph.arcs())
    lines = []
    if comment:
        lines.extend(f"c {text}" for text in comment.splitlines())
    lines.append(f"p sp {graph.num_vertices} {len(arcs)}")
    for u, v, w in arcs:
        value = int(w) if float(w).is_integer() else w
        lines.append(f"a {u + 1} {v + 1} {value}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_dimacs_coordinates(source: str | Path | TextIO) -> np.ndarray:
    """Parse a DIMACS ``.co`` coordinate file into an ``(n, 2)`` array."""
    entries: dict[int, tuple[float, float]] = {}
    n = None
    for lineno, raw in enumerate(_open_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            # "p aux sp co <n>"
            n = int(parts[-1])
        elif parts[0] == "v":
            if len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: malformed vertex line {line!r}")
            entries[int(parts[1]) - 1] = (float(parts[2]), float(parts[3]))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        n = len(entries)
    coords = np.zeros((n, 2), dtype=np.float64)
    for v, (x, y) in entries.items():
        if not 0 <= v < n:
            raise GraphFormatError(f"coordinate vertex {v + 1} out of range")
        coords[v] = (x, y)
    return coords


def write_dimacs_coordinates(coords: np.ndarray, path: str | Path) -> None:
    """Write an ``(n, 2)`` coordinate array as a DIMACS ``.co`` file."""
    lines = [f"p aux sp co {len(coords)}"]
    for v, (x, y) in enumerate(coords):
        lines.append(f"v {v + 1} {int(x)} {int(y)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(source: str | Path | TextIO) -> Graph:
    """Parse a whitespace edge list ``u v w`` (0-based) into a Graph."""
    edges = []
    n = 0
    for lineno, raw in enumerate(_open_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v w', got {line!r}")
        u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        n = max(n, u + 1, v + 1)
        edges.append((u, v, w))
    return Graph.from_edges(n, edges)


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph as a ``u v w`` edge list (0-based, one edge per line)."""
    lines = [f"{u} {v} {w:g}" for u, v, w in graph.edges()]
    Path(path).write_text("\n".join(lines) + "\n")


def graph_to_json(graph: Graph) -> str:
    """Serialise a graph (including coordinates) to a JSON string."""
    return json.dumps(
        {
            "n": graph.num_vertices,
            "edges": [[u, v, w] for u, v, w in graph.edges()],
            "coords": graph.coords.tolist() if graph.coords is not None else None,
        }
    )


def graph_from_json(text: str) -> Graph:
    """Inverse of :func:`graph_to_json`."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise GraphFormatError(f"invalid graph JSON: {exc}") from exc
    return graph_from_payload(payload)


def graph_from_payload(payload) -> Graph:
    """The graph of :func:`graph_to_json`'s decoded dict."""
    try:
        coords = payload["coords"]
        return Graph.from_edges(
            payload["n"],
            [tuple(e) for e in payload["edges"]],
            np.asarray(coords, dtype=np.float64) if coords is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"invalid graph JSON: {exc}") from exc

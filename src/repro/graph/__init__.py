"""Graph substrate: data structures, IO, generators and traversals.

The library models a road network as an undirected weighted graph with
vertices ``0..n-1`` and mutable edge weights (:class:`Graph`), matching the
paper's dynamic-road-network model in which structure is stable and only
weights change. A directed variant (:class:`DiGraph`) backs the Section 8
extension.
"""

from repro.graph.graph import Graph
from repro.graph.digraph import DiGraph
from repro.graph.components import connected_components, is_connected, largest_component
from repro.graph.generators import (
    grid_network,
    delaunay_network,
    highway_network,
    random_connected_graph,
)
from repro.graph.io import (
    read_dimacs,
    write_dimacs,
    read_edge_list,
    write_edge_list,
    graph_to_json,
    graph_from_json,
)
from repro.graph.traversal import bfs_order, bfs_distances, eccentric_vertex
from repro.graph.metrics import NetworkMetrics, network_metrics, approximate_diameter

__all__ = [
    "Graph",
    "DiGraph",
    "connected_components",
    "is_connected",
    "largest_component",
    "grid_network",
    "delaunay_network",
    "highway_network",
    "random_connected_graph",
    "read_dimacs",
    "write_dimacs",
    "read_edge_list",
    "write_edge_list",
    "graph_to_json",
    "graph_from_json",
    "bfs_order",
    "bfs_distances",
    "eccentric_vertex",
    "NetworkMetrics",
    "network_metrics",
    "approximate_diameter",
]

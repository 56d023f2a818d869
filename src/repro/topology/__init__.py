"""Network topology generators and graph utilities.

Gossip environments are parameterised by *who can talk to whom*.  This
package provides the adjacency-structure generators used across the
experiments (complete graphs for uniform gossip, grids for spatial gossip,
random geometric graphs for wireless-range connectivity, Erdős–Rényi graphs
for sensitivity studies) and the graph utilities the protocols and metrics
need (connected components for the paper's "nearby group" definition).

Graphs are represented as plain ``dict[int, set[int]]`` adjacency maps; the
helpers in :mod:`repro.topology.connectivity` operate on those maps and on
optional "alive" subsets so that failed hosts drop out of the structure.
"""

from repro.topology.connectivity import (
    connected_component,
    connected_components,
    union_adjacency,
)
from repro.topology.graphs import (
    complete_graph,
    empty_graph,
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    ring_lattice,
)

__all__ = [
    "complete_graph",
    "connected_component",
    "connected_components",
    "empty_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "random_geometric_graph",
    "ring_lattice",
    "union_adjacency",
]

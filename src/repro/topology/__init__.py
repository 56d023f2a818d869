"""Network topology generators and graph utilities.

Gossip environments are parameterised by *who can talk to whom*.  This
package provides the adjacency-structure generators used across the
experiments (rings and grids for spatial gossip, random geometric graphs for
wireless-range connectivity, Erdős–Rényi graphs for sensitivity studies) and
the graph utilities the protocols and metrics need (connected components for the paper's "nearby group" definition).

Graphs are represented as plain ``dict[int, set[int]]`` adjacency maps; the
helpers in :mod:`repro.topology.connectivity` operate on those maps and on
optional "alive" subsets so that failed hosts drop out of the structure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.topology.connectivity": (
        "connected_component",
        "connected_components",
    ),
    "repro.topology.graphs": (
        "empty_graph",
        "erdos_renyi_graph",
        "grid_graph",
        "random_geometric_graph",
        "ring_lattice",
    ),
})

"""Gossip environments: how pairs of hosts are selected each round.

The paper distinguishes gossip *protocols* (what two hosts exchange) from
gossip *environments* (how hosts are paired).  This package implements the
environments used in the evaluation plus two generalisations:

* :class:`UniformEnvironment` — every live host can talk to every other
  live host (the idealised 100 000-host setting of Figs 8–10);
* :class:`NeighborhoodEnvironment` — peers restricted to a static graph
  (grids, random geometric graphs, …);
* :class:`SpatialGridEnvironment` — grid-restricted gossip augmented with
  the paper's 1/d² multi-hop random walks, which recover near-uniform
  mixing from purely local links (Section IV-A);
* :class:`TraceEnvironment` — peers restricted to whoever is currently in
  wireless range according to a contact trace, with the paper's
  10-minute-union group definition (Fig 11).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.environments.base": ("GossipEnvironment",),
    "repro.environments.neighborhood": ("NeighborhoodEnvironment",),
    "repro.environments.spatial": ("SpatialGridEnvironment",),
    "repro.environments.trace": ("TraceEnvironment",),
    "repro.environments.uniform": ("UniformEnvironment",),
})

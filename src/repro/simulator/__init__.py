"""Round-based gossip simulation substrate.

The paper evaluates its protocols with a round-based (synchronous) gossip
simulator: at every round each participating host selects one (or more)
peers according to the *gossip environment* and performs the protocol's
exchange with them.  This package provides that substrate:

* :mod:`repro.simulator.rng` — deterministic, per-purpose random streams;
* :mod:`repro.simulator.host` — per-host bookkeeping (value, state, liveness);
* :mod:`repro.simulator.protocol` — the abstract protocol interface that both
  the static baselines and the paper's dynamic protocols implement, and the
  payload-size estimate behind its byte counts;
* :mod:`repro.simulator.engine` — the :class:`Simulation` driver;
* :mod:`repro.simulator.result` — per-round records and summaries;
* :mod:`repro.simulator.kernels` — declares the NumPy kernels of the large
  (10^4–10^5 host) experiments: :mod:`~repro.simulator.push_sum_kernel`,
  :mod:`~repro.simulator.sketch_kernels` and :mod:`~repro.simulator.extrema_kernel`,
  one per protocol family, on the base :mod:`repro.simulator.vectorized`;
* :mod:`repro.simulator.sparse` — sparse-adjacency (CSR) peer sampling
  that lets the kernels run graph-restricted gossip (ring, grid,
  random-geometric, spatial-grid) instead of uniform gossip.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.simulator.engine": ("Simulation",),
    "repro.simulator.host": ("Host",),
    "repro.simulator.protocol": ("AggregationProtocol", "ExchangeProtocol"),
    "repro.simulator.result": ("RoundRecord", "SimulationResult"),
    "repro.simulator.rng": ("RandomStreams",),
    "repro.simulator.sparse": ("CSRTopology", "GridRingTopology"),
})

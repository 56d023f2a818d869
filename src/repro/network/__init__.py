"""Lossy and latent network models plus the event-driven delivery engine.

The paper's evaluation assumes synchronous rounds with instant, reliable
message delivery.  This package drops that assumption:

* :mod:`repro.network.models` — the :class:`NetworkModel` policy
  interface and its implementations: ``perfect`` (the default,
  bit-identical to the pre-network engine), ``bernoulli-loss`` and
  ``latency`` (fixed / uniform / lognormal delay distributions);
* :mod:`repro.network.delivery` — the :class:`DeliveryQueue` of
  in-flight messages (a payload pushed in round *t* arrives in round
  *t + d*, or never) and the :class:`MassLedger` that asserts Push-Sum
  mass conservation under loss every round.

Models are registered in :data:`repro.api.NETWORKS` and named by
``ScenarioSpec(network=..., network_params=...)``; new models register
with :func:`repro.api.register_network`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.network.delivery": (
        "DeliveryQueue",
        "InFlightMessage",
        "MassConservationError",
        "MassLedger",
    ),
    "repro.network.models": (
        "DELAY_DISTRIBUTIONS",
        "BernoulliLossNetwork",
        "LatencyNetwork",
        "NetworkModel",
        "PerfectNetwork",
    ),
})

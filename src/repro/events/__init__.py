"""repro.events — the continuous-time event-driven simulation engine.

The round engine (:class:`repro.Simulation`) advances the whole
population in lockstep; this package advances a *global event calendar*
instead: per-host clocks with configurable gossip rates, timestamped
in-flight messages, and protocol adapters that drive the existing
round-based protocols through timed send/receive/exchange events — which
is what unlocks latency×exchange scenarios (forbidden in the round
engine) and rate-heterogeneous populations.

Select it per scenario with ``ScenarioSpec(engine="events",
engine_params={...})`` — see DESIGN.md §11; the parameters resolve to one
validated :class:`EngineSettings` that both realisations read.  The
classes exported here
are the per-host (agent) realisation; :mod:`repro.events.vectorized`
holds the array-form clock grid and delay sampler that the kernel driver
(:class:`repro.api.kernel_run.KernelRun`, DESIGN.md §14) runs the same
calendar on in per-bucket batches.
"""

from repro.events.calendar import DELIVER, MEMBERSHIP, SAMPLE, TICK, EventCalendar
from repro.events.clocks import (
    RATE_DISTRIBUTIONS,
    TIME_EPS,
    EngineSettings,
    HostClock,
    make_clock,
)
from repro.events.engine import EventSimulation

__all__ = [
    "DELIVER",
    "EngineSettings",
    "EventCalendar",
    "EventSimulation",
    "HostClock",
    "MEMBERSHIP",
    "RATE_DISTRIBUTIONS",
    "SAMPLE",
    "TICK",
    "TIME_EPS",
    "make_clock",
]

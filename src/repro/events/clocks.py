"""The event engine's settings and per-host gossip clocks.

:class:`EngineSettings` is the one definition of the event engine's
configuration — duration, sample interval, clock rates, synchronisation,
mass-check cadence and the kernel calendar's bucket width — validated once
and read by both realisations (the agent engine and the kernel driver).

The round engine forces every host onto one global drumbeat; the event
engine gives each host its own clock.  A clock is defined by a *rate*
(gossip actions per simulated second) drawn from one of three
distributions, and by whether hosts are *synchronized*:

* ``synchronized=True`` — a host with period ``p = 1/rate`` ticks on the
  global grid ``k * p`` (``k >= 1``).  With every rate equal and the
  sample interval matching the period, this reproduces the round
  engine's lockstep schedule exactly (the equivalence configuration of
  ``tests/test_events.py``).
* ``synchronized=False`` — the first tick lands at ``join_time + offset``
  with a random phase ``offset`` drawn uniformly from ``(0, p]``, and
  subsequent ticks at ``first + k * p``.  Tick times are computed by
  multiplication from the stored origin, never by repeated addition, so
  float error does not accumulate over long runs.

All clock randomness (phase offsets, heterogeneous/lognormal rate draws)
comes from the dedicated ``"clocks"`` stream of
:class:`~repro.simulator.rng.RandomStreams`, so configuring clocks never
perturbs peer selection, protocol or network draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional

import numpy as np

__all__ = ["EngineSettings", "HostClock", "RATE_DISTRIBUTIONS", "TIME_EPS", "make_clock"]

#: Same-instant tolerance of both calendars: event times against the
#: duration, sample bins, grid snapping and bucket edges.
TIME_EPS = 1e-9


def _finite(value: Any) -> bool:
    """A finite ``int`` or ``float`` (a ``bool`` is not a number here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _positive(value: Any) -> bool:
    return _finite(value) and value > 0


#: Each rate distribution's parameters: ``key -> (default, accepts, message)``.
#: The one schema of ``rates``: validation and :meth:`EngineSettings.draw_rates`
#: both read it.
_RATE_PARAMS = {
    "uniform": {"rate": (1.0, _positive, "uniform rates need a positive 'rate'")},
    "heterogeneous": {
        "fast": (None, _positive, "heterogeneous rates need a positive 'fast' rate"),
        "slow": (None, _positive, "heterogeneous rates need a positive 'slow' rate"),
        "fast_fraction": (
            0.5,
            lambda value: _finite(value) and 0.0 <= value <= 1.0,
            "heterogeneous 'fast_fraction' must be in [0, 1]",
        ),
    },
    "lognormal": {
        "mean": (0.0, _finite, "lognormal 'mean' must be a finite number"),
        "sigma": (
            0.5,
            lambda value: _finite(value) and value >= 0,
            "lognormal 'sigma' must be non-negative",
        ),
        "min_rate": (
            None,
            lambda value: value is None or _positive(value),
            "lognormal 'min_rate' must be positive",
        ),
    },
}

#: Rate distributions understood by ``EngineSettings.rates``.
RATE_DISTRIBUTIONS = tuple(_RATE_PARAMS)


@dataclass(frozen=True)
class EngineSettings:
    """The event engine's configuration: one validated value for both calendars.

    ``ScenarioSpec(engine="events", engine_params={...})`` resolves its
    ``engine_params`` through :meth:`from_params`; the agent engine
    (:class:`~repro.events.EventSimulation`) and the kernel driver
    (:class:`~repro.api.kernel_run.KernelRun`) read only this value.
    Construction validates every field, so a degenerate setting fails here
    with a ``ValueError`` naming its key, never mid-run.

    duration:
        Simulated seconds to run.
    sample_interval:
        Simulated seconds between metric samples; sample *j* fires at
        ``j * sample_interval`` and records ``round_index = j - 1``.
    rates:
        The host-clock rate distribution (see :meth:`draw_rates`); empty or
        ``None`` means every host gossips once per second.
    synchronized:
        Whether host clocks share the global grid (see the module docstring).
    mass_check:
        ``"sample"`` (default), ``"event"`` or ``"off"`` — how often the
        mass-conservation books are checked.  A mass-conserving protocol
        keeps its books either way: ``"off"`` skips only the checks.
    batch_quantum:
        Bucket width in simulated seconds for the kernel calendar (default:
        the shortest clock period); the agent engine has no buckets.
    """

    duration: float
    sample_interval: float = 1.0
    rates: Optional[Mapping[str, Any]] = None
    synchronized: bool = True
    mass_check: str = "sample"
    batch_quantum: Optional[float] = None

    def __post_init__(self):
        interval = self.sample_interval
        if not _positive(interval):
            raise ValueError(
                f"engine_params['sample_interval'] must be a positive number of simulated "
                f"seconds, got {interval!r}"
            )
        if not (_finite(self.duration) and self.duration >= interval):
            raise ValueError(
                f"engine_params['duration'] must be a number >= the sample interval "
                f"({interval}), got {self.duration!r}"
            )
        if not isinstance(self.synchronized, bool):
            raise ValueError(
                f"engine_params['synchronized'] must be a boolean, got {self.synchronized!r}"
            )
        if self.mass_check not in ("sample", "event", "off"):
            raise ValueError(
                f"engine_params['mass_check'] must be 'sample', 'event' or 'off', "
                f"got {self.mass_check!r}"
            )
        if self.batch_quantum is not None and not _positive(self.batch_quantum):
            raise ValueError(
                f"engine_params['batch_quantum'] must be a positive number of "
                f"simulated seconds (the vectorised calendar's bucket width), "
                f"got {self.batch_quantum!r}"
            )
        rates = {} if self.rates is None else self.rates
        if not isinstance(rates, Mapping):
            raise ValueError(
                f"engine_params['rates'] must be a mapping with a 'distribution', "
                f"got {type(rates).__name__}"
            )
        rates = dict(rates) or {"distribution": "uniform", "rate": 1.0}
        distribution = rates.get("distribution", "uniform")
        if distribution not in _RATE_PARAMS:
            raise ValueError(
                f"unknown rate distribution {distribution!r}; "
                f"expected one of {RATE_DISTRIBUTIONS}"
            )
        for key, (default, accepts, message) in _RATE_PARAMS[distribution].items():
            value = rates.get(key, default)
            if not accepts(value):
                raise ValueError(f"{message}, got {value!r}")
        allowed = {"distribution", *_RATE_PARAMS[distribution]}
        unknown = set(rates) - allowed
        if unknown:
            raise ValueError(
                f"unknown keys {sorted(unknown)} for {distribution!r} rates; "
                f"expected a subset of {sorted(allowed)}"
            )
        object.__setattr__(self, "duration", float(self.duration))
        object.__setattr__(self, "sample_interval", float(interval))
        object.__setattr__(self, "rates", rates)
        if self.batch_quantum is not None:
            object.__setattr__(self, "batch_quantum", float(self.batch_quantum))

    @classmethod
    def from_params(cls, params: Mapping[str, Any], rounds: int) -> "EngineSettings":
        """The settings ``engine_params`` describe; ``duration`` defaults to ``rounds`` samples.

        That default keeps a spec switched between engines on the same
        number of recorded rounds.
        """
        allowed = {setting.name for setting in fields(cls)}
        unknown = set(params) - allowed
        if unknown:
            raise ValueError(
                f"unknown engine_params {sorted(unknown)}; expected a subset of {sorted(allowed)}"
            )
        interval = params.get("sample_interval", 1.0)
        default_duration = rounds * float(interval) if _finite(interval) else None
        return cls(**{"duration": default_duration, **params})

    @property
    def n_samples(self) -> int:
        """How many samples (recorded rounds) the run takes."""
        return int(math.floor(self.duration / self.sample_interval + TIME_EPS))

    def metadata(self) -> dict:
        """The run's ``metadata["engine"]`` (the kernel driver adds its quantum)."""
        return {
            "name": "events",
            "duration": self.duration,
            "sample_interval": self.sample_interval,
            "rates": dict(self.rates),
            "synchronized": self.synchronized,
            "mass_check": self.mass_check,
        }

    def draw_rates(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` hosts' gossip rates (actions per simulated second).

        * ``uniform`` — every host gossips at ``rate`` (default ``1.0``);
          draws nothing, so the default configuration consumes no randomness.
        * ``heterogeneous`` — ``fast`` with probability ``fast_fraction``
          (default ``0.5``), else ``slow``; one uniform draw per host.
        * ``lognormal`` — ``lognormal(mean, sigma)`` actions per second,
          floored at ``min_rate`` when given; one draw per host.

        The agent engine draws one host at a time (``count=1``, in
        registration order; joiners at join time), the kernel driver a whole
        population at once: the same distributions, not the same stream.
        """
        distribution = self.rates.get("distribution", "uniform")
        param = {
            key: self.rates.get(key, default)
            for key, (default, _accepts, _message) in _RATE_PARAMS[distribution].items()
        }
        if distribution == "uniform":
            return np.full(count, float(param["rate"]))
        if distribution == "heterogeneous":
            fast, slow = float(param["fast"]), float(param["slow"])
            return np.where(rng.random(count) < float(param["fast_fraction"]), fast, slow)
        rates = rng.lognormal(float(param["mean"]), float(param["sigma"]), count)
        if param["min_rate"] is not None:
            rates = np.maximum(rates, float(param["min_rate"]))
        return rates


@dataclass
class HostClock:
    """One host's tick schedule: ``next_time() = origin + next_index * period``.

    Synchronized clocks store ``origin = 0`` and start at the first grid
    index at-or-after the host's join time; unsynchronized clocks store
    their (random-phase) first tick as the origin and count from zero.
    """

    host_id: int
    rate: float
    period: float
    origin: float
    next_index: int

    def next_time(self) -> float:
        """The simulated time of the next scheduled tick."""
        return self.origin + self.next_index * self.period

    def advance(self) -> None:
        """Consume the current tick; :meth:`next_time` moves one period on."""
        self.next_index += 1


def make_clock(
    host_id: int,
    rate: float,
    *,
    join_time: float,
    synchronized: bool,
    rng: np.random.Generator,
) -> HostClock:
    """Build the clock for ``host_id`` joining at ``join_time``.

    Synchronized hosts tick on the global grid ``k * period`` with
    ``k >= 1``; the first tick is the smallest grid point at-or-after the
    join time (a host joining exactly on a grid point gossips at that
    very instant, mirroring how the round engine lets a joining host
    participate in the round it joins).  Unsynchronized hosts draw a
    phase offset in ``(0, period]`` so an instant-zero burst of the whole
    population cannot happen.
    """
    if rate <= 0:
        raise ValueError(f"gossip rates must be positive, got {rate!r}")
    period = 1.0 / float(rate)
    if synchronized:
        first_index = max(1, math.ceil(join_time / period - TIME_EPS))
        return HostClock(host_id, float(rate), period, 0.0, int(first_index))
    offset = period * (1.0 - float(rng.random()))
    return HostClock(host_id, float(rate), period, join_time + offset, 0)

"""Network models: how the simulated radio treats a message in flight.

The paper's evaluation — and the seed reproduction — assumes a *perfect*
network: every message sent in round *t* arrives at the end of round *t*.
Real deployments of the protocols (bandwidth- and power-constrained
wireless devices) see none of that: links drop packets, deliveries take
time, and radios have per-round budgets.  The classes here model those
conditions as a pluggable policy the simulator consults for every
non-self message:

* :class:`PerfectNetwork` — instant, reliable delivery (the default; the
  engine's behaviour is bit-identical to the pre-network-layer code).
* :class:`BernoulliLossNetwork` — every message is lost independently
  with probability ``p``.
* :class:`LatencyNetwork` — delivery is deferred by a per-message delay
  drawn from a fixed, uniform or lognormal distribution (in rounds).
* :class:`BandwidthCapNetwork` — each host may place at most
  ``bytes_per_round`` on the radio per round; over-budget messages are
  dropped.
* :class:`StackedNetwork` — composes any of the above: a message
  survives only if every layer delivers it, and the layers' delays add.

The per-message primitive is :meth:`NetworkModel.plan`: given a message's
endpoints, round and size, return the delivery delay in rounds (``0`` =
the end of the sending round, exactly the perfect-network semantics) or
``None`` when the message is lost.  :meth:`NetworkModel.plan_many` plans a
round's batch of messages in one call; by default it is the ``plan`` loop.
Models draw all randomness from the generator the engine passes in (the
dedicated ``"network"`` stream of :class:`~repro.simulator.rng.RandomStreams`),
so installing a network model never perturbs peer selection or protocol
randomness — a loss rate of exactly ``0.0`` reproduces the perfect network
bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "NetworkModel",
    "PerfectNetwork",
    "BernoulliLossNetwork",
    "LatencyNetwork",
    "BandwidthCapNetwork",
    "StackedNetwork",
    "DELAY_DISTRIBUTIONS",
]

#: Delay distributions understood by :class:`LatencyNetwork`.
DELAY_DISTRIBUTIONS = ("fixed", "uniform", "lognormal")


class NetworkModel:
    """Policy deciding the fate of every non-self message on the radio.

    Subclasses implement :meth:`plan`; the round engine plans a push
    round's messages in one :meth:`plan_many` call and each pairwise
    exchange with one :meth:`plan` call, and interprets the result:

    * ``0`` — delivered at the end of the sending round;
    * ``d > 0`` — delivered at the end of round ``t + d`` (push mode
      only: atomic exchanges cannot be deferred, which is why the spec
      layer rejects latency-capable models in ``mode="exchange"``);
    * ``None`` — silently lost, exactly like a payload addressed to a
      departed host.

    Class attributes
    ----------------
    name:
        Registry name used in results and rendered tables.
    has_latency:
        Whether :meth:`plan` may ever return a delay > 0.  Instances may
        override the class value (a fixed delay of 0 has no latency).
    has_loss:
        Whether :meth:`plan` may ever return ``None``.
    """

    name: str = "abstract"
    has_latency: bool = False
    has_loss: bool = False

    def begin_round(self, round_index: int) -> None:
        """Hook run once per round before any messages are planned.

        Budgeted models (:class:`BandwidthCapNetwork`) reset their
        per-round accounting here.  The default is a no-op.
        """

    def plan(
        self,
        source: int,
        destination: int,
        round_index: int,
        size_bytes: int,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """The delivery delay in rounds for this message, or ``None`` if lost."""
        return 0

    def plan_many(
        self,
        messages: Sequence[Tuple[int, int, int]],
        round_index: int,
        rng: np.random.Generator,
    ) -> List[Optional[int]]:
        """:meth:`plan` for each ``(source, destination, size_bytes)``, in order.

        The default is the :meth:`plan` loop, so the draws interleave and
        budgets are spent exactly as per-message calls would.  Only a model
        whose per-message decision is exactly one ``rng.random()`` draw may
        override it (with one vector draw: the same doubles, and the
        generator left in the same state).
        """
        plan = self.plan
        return [
            plan(source, destination, round_index, size_bytes, rng)
            for source, destination, size_bytes in messages
        ]

    def plan_seconds(
        self,
        source: int,
        destination: int,
        round_index: int,
        size_bytes: int,
        rng: np.random.Generator,
    ) -> Optional[float]:
        """The delivery delay in *simulated seconds*, or ``None`` if lost.

        The event engine (:mod:`repro.events`) consults this instead of
        :meth:`plan`: delays become continuous times on the global event
        calendar rather than whole-round deferrals.  The default maps the
        round-based answer one-to-one (one round of delay = one second),
        so loss-only and budget models behave identically under both
        engines; latency models override it to yield unrounded delays.
        ``round_index`` is the engine's current sample bin.
        """
        delay = self.plan(source, destination, round_index, size_bytes, rng)
        return None if delay is None else float(delay)

    def describe(self) -> dict:
        """The model's salient parameters (for metadata and reports)."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in self.describe().items() if k != "name")
        return f"{type(self).__name__}({params})"


class PerfectNetwork(NetworkModel):
    """Instant, reliable delivery — the paper's (implicit) network.

    ``plan`` never draws from the generator, so a simulation carrying a
    perfect model is bit-identical to one carrying no model at all.
    """

    name = "perfect"


class BernoulliLossNetwork(NetworkModel):
    """Independent per-message loss with probability ``p``.

    The memoryless loss model of the gossip literature: every non-self
    message survives with probability ``1 - p`` regardless of endpoints,
    history or size.  ``p = 0`` draws the same number of variates as any
    other ``p`` (one per message), so results at ``p = 0`` are
    bit-identical to the perfect network — the draws come from the
    isolated ``"network"`` stream.
    """

    name = "bernoulli-loss"
    has_loss = True

    def __init__(self, p: float):
        if not 0.0 <= float(p) <= 1.0:
            raise ValueError(f"loss probability p must be in [0, 1], got {p!r}")
        self.p = float(p)

    def plan(self, source, destination, round_index, size_bytes, rng) -> Optional[int]:
        if rng.random() < self.p:
            return None
        return 0

    def plan_many(self, messages, round_index, rng) -> List[Optional[int]]:
        # rng.random(k) yields the doubles of k rng.random() calls.
        return [None if lost else 0 for lost in (rng.random(len(messages)) < self.p).tolist()]

    def describe(self) -> dict:
        return {"name": self.name, "p": self.p}


class LatencyNetwork(NetworkModel):
    """Per-message delivery delay drawn from a distribution (in rounds).

    Parameters
    ----------
    distribution:
        ``"fixed"`` (every message takes ``delay`` rounds), ``"uniform"``
        (integer delay uniform on ``[low, high]``) or ``"lognormal"``
        (``round(lognormal(mean, sigma))`` — a heavy-tailed model of
        store-and-forward links).
    delay, low, high, mean, sigma:
        Distribution parameters (only the relevant ones are read).
    max_delay:
        Hard cap applied to every draw, bounding queue memory.
    """

    name = "latency"

    def __init__(
        self,
        *,
        distribution: str = "fixed",
        delay: int = 1,
        low: int = 0,
        high: int = 3,
        mean: float = 0.0,
        sigma: float = 0.5,
        max_delay: int = 64,
    ):
        if distribution not in DELAY_DISTRIBUTIONS:
            raise ValueError(
                f"unknown delay distribution {distribution!r}; "
                f"expected one of {DELAY_DISTRIBUTIONS}"
            )
        if isinstance(delay, bool) or not isinstance(delay, int) or delay < 0:
            raise ValueError(f"fixed delay must be a non-negative integer, got {delay!r}")
        if low < 0 or high < low:
            raise ValueError(f"uniform delay needs 0 <= low <= high, got [{low}, {high}]")
        if sigma < 0:
            raise ValueError(f"lognormal sigma must be non-negative, got {sigma}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be non-negative, got {max_delay}")
        self.distribution = distribution
        self.delay = int(delay)
        self.low = int(low)
        self.high = int(high)
        self.mean = float(mean)
        self.sigma = float(sigma)
        self.max_delay = int(max_delay)
        if distribution == "fixed":
            worst = self.delay
        elif distribution == "uniform":
            worst = self.high
        else:
            worst = self.max_delay
        self.has_latency = min(worst, self.max_delay) > 0

    def plan(self, source, destination, round_index, size_bytes, rng) -> Optional[int]:
        if self.distribution == "fixed":
            drawn = self.delay
        elif self.distribution == "uniform":
            drawn = int(rng.integers(self.low, self.high + 1))
        else:
            drawn = int(round(rng.lognormal(self.mean, self.sigma)))
        return min(drawn, self.max_delay)

    def plan_seconds(self, source, destination, round_index, size_bytes, rng) -> Optional[float]:
        # Same draws, continuous answer: the uniform distribution keeps its
        # integer draw (identical stream consumption under either engine),
        # while the lognormal keeps its unrounded tail — the event calendar
        # has no round grid to snap to.
        if self.distribution == "fixed":
            drawn = float(self.delay)
        elif self.distribution == "uniform":
            drawn = float(rng.integers(self.low, self.high + 1))
        else:
            drawn = float(rng.lognormal(self.mean, self.sigma))
        return min(drawn, float(self.max_delay))

    def describe(self) -> dict:
        described = {"name": self.name, "distribution": self.distribution,
                     "max_delay": self.max_delay}
        if self.distribution == "fixed":
            described["delay"] = self.delay
        elif self.distribution == "uniform":
            described.update(low=self.low, high=self.high)
        else:
            described.update(mean=self.mean, sigma=self.sigma)
        return described


class BandwidthCapNetwork(NetworkModel):
    """Per-host, per-round radio budget; over-budget messages are dropped.

    Each round every host may place at most ``bytes_per_round`` bytes on
    the radio; a message that would exceed the sender's remaining budget
    is lost (the radio refuses it).  Budgets reset every round via
    :meth:`begin_round`.  Deterministic: no randomness is consumed.
    """

    name = "bandwidth-cap"
    has_loss = True

    def __init__(self, bytes_per_round: int):
        if isinstance(bytes_per_round, bool) or not isinstance(bytes_per_round, int) \
                or bytes_per_round < 1:
            raise ValueError(
                f"bytes_per_round must be a positive integer, got {bytes_per_round!r}"
            )
        self.bytes_per_round = int(bytes_per_round)
        self._spent: Dict[int, int] = {}

    def begin_round(self, round_index: int) -> None:
        self._spent.clear()

    def plan(self, source, destination, round_index, size_bytes, rng) -> Optional[int]:
        spent = self._spent.get(source, 0)
        if spent + int(size_bytes) > self.bytes_per_round:
            return None
        self._spent[source] = spent + int(size_bytes)
        return 0

    def describe(self) -> dict:
        return {"name": self.name, "bytes_per_round": self.bytes_per_round}


class StackedNetwork(NetworkModel):
    """Several network models composed into one link policy.

    A message survives only if *every* layer delivers it, and the layers'
    delays add — e.g. a lossy link with store-and-forward latency is
    ``StackedNetwork([BernoulliLossNetwork(0.1), LatencyNetwork(...)])``.
    Layers are consulted in order; a loss short-circuits the rest (later
    layers draw no randomness for that message, keeping equal-seed runs of
    equal stacks bit-reproducible).
    """

    name = "stacked"

    def __init__(self, layers: Sequence[NetworkModel]):
        layers = list(layers)
        if not layers:
            raise ValueError("a stacked network needs at least one layer")
        for layer in layers:
            if not isinstance(layer, NetworkModel):
                raise ValueError(
                    f"stacked layers must be NetworkModel instances, got {type(layer).__name__}"
                )
        self.layers: List[NetworkModel] = layers
        self.has_latency = any(layer.has_latency for layer in layers)
        self.has_loss = any(layer.has_loss for layer in layers)

    def begin_round(self, round_index: int) -> None:
        for layer in self.layers:
            layer.begin_round(round_index)

    def plan(self, source, destination, round_index, size_bytes, rng) -> Optional[int]:
        total_delay = 0
        for layer in self.layers:
            delay = layer.plan(source, destination, round_index, size_bytes, rng)
            if delay is None:
                return None
            total_delay += delay
        return total_delay

    def plan_seconds(self, source, destination, round_index, size_bytes, rng) -> Optional[float]:
        total_delay = 0.0
        for layer in self.layers:
            delay = layer.plan_seconds(source, destination, round_index, size_bytes, rng)
            if delay is None:
                return None
            total_delay += delay
        return total_delay

    def describe(self) -> dict:
        return {"name": self.name, "layers": [layer.describe() for layer in self.layers]}

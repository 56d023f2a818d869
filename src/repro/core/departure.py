"""Graceful departure (sign-off) support.

The paper's failure model is the *silent* departure: a host vanishes and
its contribution is stuck in the computation (that is the problem the
dynamic protocols solve).  Section II-C notes the alternative — "where it
is infeasible for the host to gracefully depart the network (i.e., by
performing a sign-off protocol), an error is introduced" — implying the
sign-off path as the graceful best case.  This module schedules that
path, both to serve as the no-error baseline in failure experiments and
because a real deployment would use it whenever a device *does* get the
chance to say goodbye.  The sign-off itself is each protocol's own
``sign_off`` hook (:meth:`repro.baselines.PushSum.sign_off`,
:meth:`repro.core.CountSketchReset.sign_off`,
:meth:`repro.core.InvertAverage.sign_off`):

* a Push-Sum–family host hands its entire mass to a live peer before
  leaving, so conservation of mass is preserved exactly;
* a Count-Sketch-Reset host stops sourcing its positions (disowns them),
  so they begin ageing immediately and decay as soon as no other live host
  sources them — the fastest forgetting the sketch structure permits (the
  host cannot know whether another source exists, exactly as the paper
  observes);
* an Invert-Average host does both.

:class:`GracefulDepartureEvent` mirrors
:class:`repro.failures.FailureEvent` but performs the sign-off before
marking the hosts failed.  Protocols opt in by implementing a
``sign_off(state, peer_state, rng)`` method; hosts whose protocol lacks the
hook simply leave silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only; the event needs no protocol
    from repro.failures.models import FailureModel

__all__ = ["GracefulDepartureEvent"]


@dataclass
class GracefulDepartureEvent:
    """Depart the hosts selected by ``model`` after performing a sign-off.

    The sign-off target for mass hand-over is a uniformly random live host
    that is *not* departing in the same event (if every host departs, the
    mass has nowhere to go and is dropped, exactly as in reality).

    Parameters
    ----------
    round:
        Round at whose start the departure happens.
    model:
        Failure model choosing which hosts leave (reused from
        :mod:`repro.failures.models`).
    """

    round: int
    model: FailureModel
    seed_salt: str = "graceful-departure"

    def apply(self, simulation, round_index: int) -> None:
        rng = simulation.streams.get(f"{self.seed_salt}:{round_index}")
        alive_ids = simulation.alive_ids()
        values = {host_id: simulation.hosts[host_id].value for host_id in alive_ids}
        departing = self.model.select(alive_ids, values, rng)
        departing_set = set(departing)
        survivors = [host_id for host_id in alive_ids if host_id not in departing_set]
        for host_id in departing:
            self._sign_off(simulation, host_id, survivors, rng)
            simulation.fail_host(host_id, round_index)

    @staticmethod
    def _sign_off(simulation, host_id: int, survivors, rng: np.random.Generator) -> None:
        protocol = simulation.protocol
        state = simulation.hosts[host_id].state
        peer_state = None
        if survivors:
            peer_id = survivors[int(rng.integers(0, len(survivors)))]
            peer_state = simulation.hosts[peer_id].state
        sign_off = getattr(protocol, "sign_off", None)
        if sign_off is not None:
            sign_off(state, peer_state, rng)

    def describe(self) -> dict:
        return {"event": "graceful-departure", "round": self.round, **self.model.describe()}

"""Per-round records and end-of-run summaries produced by the engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics.convergence import plateau_error
from repro.obs.probe import NULL_PROBE

__all__ = ["RoundRecord", "SimulationResult"]

#: The ``round_end`` fields of a mass view, in its order (DESIGN.md §13).
MASS_FIELDS = ("mass_at_hosts", "mass_in_flight", "mass_injected", "mass_lost")


@dataclass
class RoundRecord:
    """Everything the engine measured at the end of one gossip round.

    Attributes
    ----------
    round_index:
        Zero-based round number.
    truth:
        The correct value of the aggregate over the hosts alive at the end of
        the round (for group-relative runs this is the *population-weighted*
        mean of the per-group truths and is reported for reference only —
        ``stddev_error`` is always computed against each host's own truth).
    n_alive:
        Number of live hosts.
    mean_estimate:
        Mean of the live hosts' estimates.
    stddev_error:
        The paper's error metric: the root-mean-square deviation of the live
        hosts' estimates from the correct value ("standard deviation from the
        correct value").
    max_abs_error / mean_abs_error:
        Additional error summaries used by some analyses.
    bytes_sent:
        Radio bytes placed on the network since the previous record (the
        round, on the round engine).
    messages_delivered / messages_lost / messages_in_flight:
        Delivery outcomes on the simulated network since the previous
        record (``repro.network``): non-self messages delivered, messages
        lost (link loss, sends to departed hosts) and
        the in-flight backlog at the record.  Every engine derives them
        from its cumulative ``delivery_counters()`` (DESIGN.md §13), the
        perfect network included.
    estimates:
        Per-host estimates, retained only when the engine was created with
        ``store_estimates=True`` (small runs / debugging).
    group_sizes:
        Mean group size when the run is group-relative (trace environments),
        otherwise ``None``.  This is the "Avg Group Size" series of Fig 11.
    time:
        Simulated time (seconds) at which the record was sampled.  Set by
        the event engine (:mod:`repro.events`), where "round" *r* is the
        sample taken at ``(r + 1) * sample_interval``; ``None`` for the
        round engine, whose rounds have no wall-clock meaning.
    """

    round_index: int
    truth: float
    n_alive: int
    mean_estimate: float
    stddev_error: float
    max_abs_error: float
    mean_abs_error: float
    bytes_sent: int = 0
    estimates: Optional[Dict[int, float]] = None
    group_sizes: Optional[float] = None
    messages_delivered: int = 0
    messages_lost: int = 0
    messages_in_flight: int = 0
    time: Optional[float] = None


@dataclass
class SimulationResult:
    """The full trajectory of one simulation run.

    The result is a thin, list-backed container designed to be cheap to
    produce inside benchmark loops while still convenient to analyse: all the
    per-round series are exposed as plain lists (``errors()``, ``truths()``,
    ...), and a couple of summary helpers answer the questions the paper's
    figures ask (convergence round, plateau error).
    """

    protocol_name: str
    aggregate: str
    seed: int
    rounds: List[RoundRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------- recording
    def append(self, record: RoundRecord, probe=NULL_PROBE, mass=None) -> None:
        """Append one round's record and report it to ``probe``.

        The one ``round_end`` emitter for all three drivers, so a trace
        reads the same whoever ran the scenario (``time`` is present exactly
        when the record has one).  ``mass`` is the engine's mass view
        ``(at_hosts, in_flight, injected, lost)`` when the run keeps a ledger;
        the event then carries it as the four ``mass_*`` fields.
        """
        self.rounds.append(record)
        if probe.enabled:
            timed = {} if record.time is None else {"time": record.time}
            books = {} if mass is None else dict(zip(MASS_FIELDS, map(float, mass)))
            probe.event(
                "round_end",
                round=record.round_index,
                **timed,
                n_alive=record.n_alive,
                max_abs_error=record.max_abs_error,
                messages_delivered=record.messages_delivered,
                messages_lost=record.messages_lost,
                bytes_sent=record.bytes_sent,
                **books,
            )

    # ---------------------------------------------------------------- series
    def round_indices(self) -> List[int]:
        """Round numbers in order."""
        return [record.round_index for record in self.rounds]

    def times(self) -> List[Optional[float]]:
        """Per-record simulated sample times (``None`` entries for round-engine runs)."""
        return [record.time for record in self.rounds]

    def errors(self) -> List[float]:
        """Per-round standard deviation from the correct value."""
        return [record.stddev_error for record in self.rounds]

    def truths(self) -> List[float]:
        """Per-round correct aggregate values."""
        return [record.truth for record in self.rounds]

    def mean_estimates(self) -> List[float]:
        """Per-round mean host estimate."""
        return [record.mean_estimate for record in self.rounds]

    def alive_counts(self) -> List[int]:
        """Per-round number of live hosts."""
        return [record.n_alive for record in self.rounds]

    def bytes_per_round(self) -> List[int]:
        """Per-round bytes placed on the simulated radio."""
        return [record.bytes_sent for record in self.rounds]

    def group_size_series(self) -> List[Optional[float]]:
        """Per-round mean group size (``None`` entries for non-trace runs)."""
        return [record.group_sizes for record in self.rounds]

    def delivered_per_round(self) -> List[int]:
        """Per-round messages the simulated network delivered."""
        return [record.messages_delivered for record in self.rounds]

    def lost_per_round(self) -> List[int]:
        """Per-round messages the simulated network lost."""
        return [record.messages_lost for record in self.rounds]

    def in_flight_per_round(self) -> List[int]:
        """Per-round in-flight backlog at the end of each round."""
        return [record.messages_in_flight for record in self.rounds]

    def total_lost(self) -> int:
        """Messages lost over the whole run."""
        return sum(record.messages_lost for record in self.rounds)

    # -------------------------------------------------------------- summaries
    def final_record(self) -> RoundRecord:
        """The last recorded round."""
        if not self.rounds:
            raise ValueError("simulation produced no rounds")
        return self.rounds[-1]

    def final_error(self) -> float:
        """Standard deviation from truth at the end of the run."""
        return self.final_record().stddev_error

    def mean_estimate(self) -> float:
        """Mean host estimate at the end of the run."""
        return self.final_record().mean_estimate

    def final_truth(self) -> float:
        """Correct aggregate at the end of the run."""
        return self.final_record().truth

    def convergence_round(
        self,
        threshold: float,
        *,
        relative: bool = False,
        start: int = 0,
        sustained: int = 1,
    ) -> Optional[int]:
        """First round (>= ``start``) whose error stays below ``threshold``.

        Parameters
        ----------
        threshold:
            Error bound.  When ``relative`` is true the bound is interpreted
            as a fraction of the round's truth (e.g. ``0.05`` = 5 %).
        sustained:
            Number of consecutive rounds that must satisfy the bound; guards
            against declaring convergence on a transient dip.

        Returns ``None`` when the run never satisfies the bound.
        """
        run_length = 0
        for record in self.rounds:
            if record.round_index < start:
                continue
            bound = threshold * abs(record.truth) if relative else threshold
            if record.stddev_error <= bound:
                run_length += 1
                if run_length >= sustained:
                    return record.round_index - sustained + 1
            else:
                run_length = 0
        return None

    def plateau_error(self, tail: int = 5) -> float:
        """Mean error over the last ``tail`` rounds (the figure's plateau)."""
        return plateau_error(self.errors(), tail)

    def error_at(self, round_index: int) -> float:
        """Error recorded at ``round_index`` (exact match required)."""
        for record in self.rounds:
            if record.round_index == round_index:
                return record.stddev_error
        raise KeyError(f"round {round_index} was not recorded")

    def total_bytes(self) -> int:
        """Total radio bytes over the whole run."""
        return sum(record.bytes_sent for record in self.rounds)

    def as_dict(self) -> dict:
        """A JSON-friendly representation (the CLI's ``--json`` output)."""
        return {
            "protocol": self.protocol_name,
            "aggregate": self.aggregate,
            "seed": self.seed,
            "metadata": dict(self.metadata),
            "rounds": [
                {
                    "round": record.round_index,
                    "truth": record.truth,
                    "n_alive": record.n_alive,
                    "mean_estimate": record.mean_estimate,
                    "stddev_error": record.stddev_error,
                    "bytes_sent": record.bytes_sent,
                    "messages_delivered": record.messages_delivered,
                    "messages_lost": record.messages_lost,
                    "messages_in_flight": record.messages_in_flight,
                    # The time axis only exists for event-engine runs; omit
                    # it otherwise so round-engine CLI output is unchanged.
                    **({"time": record.time} if record.time is not None else {}),
                }
                for record in self.rounds
            ],
        }

    # -------------------------------------------------------- full round-trip
    def to_payload(self) -> dict:
        """A lossless JSON-friendly representation of the whole trajectory.

        Unlike :meth:`as_dict` (the CLI's trimmed view), the payload keeps
        every :class:`RoundRecord` field — including ``max_abs_error``,
        ``mean_abs_error``, stored per-host ``estimates`` and
        ``group_sizes`` — so :meth:`from_payload` rebuilds a result equal
        to the original bit for bit (floats round-trip exactly through
        ``repr``-fidelity JSON).  This is the blob format of
        :class:`repro.store.ResultStore`.
        """
        return {
            "protocol_name": self.protocol_name,
            "aggregate": self.aggregate,
            "seed": self.seed,
            "metadata": dict(self.metadata),
            "rounds": [
                {
                    "round_index": record.round_index,
                    "truth": record.truth,
                    "n_alive": record.n_alive,
                    "mean_estimate": record.mean_estimate,
                    "stddev_error": record.stddev_error,
                    "max_abs_error": record.max_abs_error,
                    "mean_abs_error": record.mean_abs_error,
                    "bytes_sent": record.bytes_sent,
                    "estimates": None
                    if record.estimates is None
                    else {str(host): value for host, value in record.estimates.items()},
                    "group_sizes": record.group_sizes,
                    "messages_delivered": record.messages_delivered,
                    "messages_lost": record.messages_lost,
                    "messages_in_flight": record.messages_in_flight,
                    "time": record.time,
                }
                for record in self.rounds
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_payload` output (exact inverse)."""
        if not isinstance(payload, dict):
            raise TypeError(f"expected a payload dict, got {type(payload).__name__}")
        rounds = []
        for entry in payload["rounds"]:
            estimates = entry.get("estimates")
            rounds.append(
                RoundRecord(
                    round_index=int(entry["round_index"]),
                    truth=entry["truth"],
                    n_alive=int(entry["n_alive"]),
                    mean_estimate=entry["mean_estimate"],
                    stddev_error=entry["stddev_error"],
                    max_abs_error=entry["max_abs_error"],
                    mean_abs_error=entry["mean_abs_error"],
                    bytes_sent=int(entry["bytes_sent"]),
                    estimates=None
                    if estimates is None
                    else {int(host): value for host, value in estimates.items()},
                    group_sizes=entry.get("group_sizes"),
                    messages_delivered=int(entry.get("messages_delivered", 0)),
                    messages_lost=int(entry.get("messages_lost", 0)),
                    messages_in_flight=int(entry.get("messages_in_flight", 0)),
                    time=entry.get("time"),
                )
            )
        return cls(
            protocol_name=payload["protocol_name"],
            aggregate=payload["aggregate"],
            seed=int(payload["seed"]),
            rounds=rounds,
            metadata=dict(payload.get("metadata") or {}),
        )

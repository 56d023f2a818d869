"""One driver for every kernel run: a bucketed calendar, rounds its degenerate case.

:class:`KernelRun` executes a :class:`~repro.api.spec.ScenarioSpec` on a
NumPy kernel (:mod:`repro.simulator.vectorized`) for both engines.  It
owns what a run needs beyond the kernel — the result skeleton, the
membership schedule, sampling into
:class:`~repro.simulator.result.RoundRecord`, the run's probe (handed to
the kernel at construction, never written onto the shared topology) —
and advances in *buckets*:

1. Simulated time is cut into buckets of width ``q`` (the *batch
   quantum*, :func:`repro.events.vectorized.bucket_grid`).  Within a bucket
   ``((b-1)q, bq]`` every event executes at the bucket end ``bq``, ordered
   like the agent calendar's same-timestamp priorities: deliveries matured
   before the boundary (:meth:`~KernelRun.drain`), then
   :meth:`~KernelRun.membership`, then the deliveries maturing on the
   boundary, then :meth:`~KernelRun.ticks`, then :meth:`~KernelRun.sample`.
2. All TICK events landing in one bucket drain as *one* subset-masked
   kernel call (``step_subset``, reversion applied per ticking host), all
   DELIVER events maturing in one bucket as one scatter-add
   (``apply_deliveries``) or one batch of pairwise merges (``merge_pairs``).
3. The mass ledger balances per *bucket* (or per sample), not per event.

``engine="rounds"`` is the same loop configured as the degenerate
calendar: one bucket per sample, every host ticking in every bucket over
an instant network.  Nothing can be in flight and no clock can disagree,
so that configuration builds no clock grid, no random streams and no
ledger, and its tick phase is plain ``kernel.step()`` — which is also what
the calendar executes whenever the whole live population ticks in one
bucket over an instant network.  Hence ``engine="events"`` at the
synchronized anchor (unit rates, unit sample interval, instant network)
consumes the kernel RNG identically and is bit-identical to
``engine="rounds"`` (DESIGN.md §14); heterogeneous-rate runs agree with
the agent event engine in distribution, not bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.events.vectorized import TIME_EPS, ClockGrid, bucket_grid, sample_delays
from repro.failures.models import CorrelatedFailure, ExplicitFailure, UncorrelatedFailure
from repro.failures.schedule import JoinEvent, ValueChangeEvent
from repro.network import MassLedger
from repro.obs.probe import NULL_PROBE
from repro.simulator.kernels import KERNELS
from repro.simulator.result import RoundRecord, SimulationResult
from repro.simulator.rng import RandomStreams
from repro.simulator.sparse import TraceCSRTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.spec import ScenarioSpec

__all__ = ["KernelRun", "group_relative_errors"]


def group_relative_errors(kernel, estimates: np.ndarray):
    """``(truth, deltas, group_sizes)``: per-host error against the host's *group*.

    The Fig 11 rule.  Groups are the connected components of the
    live-induced topology
    (:meth:`~repro.simulator.sparse._Topology.component_labels`, cached
    per alive mask, so steady-state rounds pay only array gathers).
    Mirrors the agent engine's accounting: each live host is scored
    against its own component's ``kernel.aggregate``, the recorded truth
    is the host-mean of those group truths, and ``group_sizes`` is the
    mean component size.
    """
    alive_idx = np.nonzero(kernel.alive)[0]
    if alive_idx.size == 0:
        return float("nan"), np.array([], dtype=float), 0.0
    labels, sizes = kernel.topology.component_labels(kernel.alive, kernel.probe)
    live_labels = labels[alive_idx]
    kind = kernel.aggregate
    if kind == "count":
        group_truth = sizes.astype(float)
    else:
        values = np.asarray(kernel._host_values(), dtype=float)[alive_idx]
        if kind == "average":
            group_sums = np.bincount(live_labels, weights=values, minlength=sizes.size)
            group_truth = group_sums / np.maximum(sizes, 1)
        else:  # max / min (no kernel aggregates sums today)
            fill = -np.inf if kind == "max" else np.inf
            group_truth = np.full(sizes.size, fill, dtype=float)
            extremum = np.maximum if kind == "max" else np.minimum
            extremum.at(group_truth, live_labels, values)
    truth_per_host = group_truth[live_labels]
    deltas = estimates - truth_per_host
    group_sizes = float(sizes.mean()) if sizes.size else 0.0
    return float(truth_per_host.mean()), deltas, group_sizes


class KernelRun:
    """One run of ``spec`` on the kernel ``backend`` builds for it.

    ``backend`` is the :class:`~repro.api.backends.VectorizedBackend`
    (the kernel and topology factory; its ``build_kernel`` screens the
    spec, so an unsupported scenario raises here, before anything is
    built).  The span vocabulary is picked once, from the spec's engine:
    ``build``/``execute``/``round`` under ``engine="rounds"``,
    ``build``/``execute``/``drain``/``ticks`` (tagged ``engine="events"``)
    under ``engine="events"``.
    """

    def __init__(self, backend, spec: "ScenarioSpec", probe=NULL_PROBE):
        self.spec = spec
        self.probe = probe
        calendar = spec.engine == "events"
        self._span_attrs = {"backend": backend.name}
        if calendar:
            self._span_attrs["engine"] = "events"
            settings = spec.engine_settings()
        self.clocks: Optional[ClockGrid] = None
        self.latency = None  # the network model, when its messages take time
        with probe.span("build", **self._span_attrs):
            self.kernel = kernel = backend.build_kernel(spec, probe=probe)
            self.topology = kernel.topology
            # A memo hit on the topology the kernel was just built over.
            _topology, environment_name = backend.build_topology(spec)
            if calendar:
                streams = RandomStreams(spec.seed)
                self.clocks = ClockGrid(
                    settings["rates"], settings["synchronized"], streams.get("clocks"), kernel.n
                )
                network = None if spec.network == "perfect" else spec.build_network()
                if getattr(network, "has_latency", False):
                    self.latency = network
                    self._network_rng = streams.get("network")
        self._time_varying = isinstance(self.topology, TraceCSRTopology)

        # ------------------------------------------------------- bucket grid
        self.mass_check = "off"
        if calendar:
            self.duration = settings["duration"]
            self.sample_interval = settings["sample_interval"]
            self.mass_check = settings["mass_check"]
            base = settings["batch_quantum"]
            if base is None:  # just fine enough to resolve the shortest clock period
                base = float(self.clocks.periods.min())
            self.ratio, self.quantum, self.n_samples, self.total_buckets = bucket_grid(
                self.duration, self.sample_interval, base
            )
        else:
            self.ratio = 1
            self.n_samples = self.total_buckets = spec.rounds
        # The agent engines' own schedule objects (churn already unrolled into
        # one failure, then one join, per round), so both backends apply the
        # same membership events round by round.  Round ``r``'s events fire at
        # the sample instant that closes it — ``(r + 1) * sample_interval``,
        # exactly like the agent calendar — which is always a bucket boundary.
        self._membership: Dict[int, List[object]] = {}
        for event in spec.build_events():
            if event.round < self.n_samples:
                self._membership.setdefault((event.round + 1) * self.ratio, []).append(event)

        #: What a correlated failure orders the hosts of a *counting* kernel
        #: by: those kernels carry no values, so the driver rebuilds the
        #: workload the agent engine would sort on (value kernels use their
        #: own, which value-change events keep current).
        self.workload: Optional[np.ndarray] = None
        if not KERNELS[spec.protocol].value_carrying and any(
            entry["event"] in ("failure", "churn") and entry["model"] == "correlated"
            for entry in spec.events
        ):
            self.workload = np.asarray(spec.build_values(), dtype=float)

        self.result = SimulationResult(
            protocol_name=spec.protocol,
            aggregate=kernel.aggregate,
            seed=spec.seed,
            metadata={
                "mode": spec.mode,
                "environment": environment_name,
                "n_initial": spec.n_hosts,
                "protocol_params": dict(spec.protocol_params),
                "backend": backend.name,
                "kernel": type(kernel).__name__,
            },
        )
        if calendar:
            # The resolved settings, with the quantum actually used.
            self.result.metadata["engine"] = {
                "name": "events", **settings, "batch_quantum": self.quantum
            }
        if spec.network != "perfect":
            self.result.metadata["network"] = {"name": spec.network, **dict(spec.network_params)}
        self._counters = (0, 0, 0)  # delivered, lost, bytes at the last sample

        # ------------------------------------------------------- in flight
        #: (bucket, at_edge) -> in-flight batches ``(kind, *arrays)``; "push"
        #: batches carry mass, "exchange" batches are deferred atomic merges
        #: (mass stays at the hosts).  Only a latency network defers.
        self.pending: Dict[Tuple[int, bool], List[tuple]] = {}
        self.in_flight_mass = 0.0
        self.in_flight_count = 0
        self.ledger: Optional[MassLedger] = None
        if self.mass_check != "off":
            self.ledger = MassLedger()
            self.ledger.open(self._live_mass())
            self._booked_injected = kernel.mass_injected
            self._booked_lost = kernel.mass_lost

    # ---------------------------------------------------------------- the loop
    def run(self) -> SimulationResult:
        """Execute every bucket; returns the populated result."""
        # (A local, not an attribute: a bound method stored on ``self`` would
        # be a reference cycle keeping the kernel's arrays alive past the run.)
        run_bucket = self._round if self.clocks is None else self._calendar_bucket
        with self.probe.span("execute", **self._span_attrs):
            for bucket in range(1, self.total_buckets + 1):
                run_bucket(bucket)
        self.result.metadata["delivery_series"] = {
            key: [float(getattr(record, key)) for record in self.result.rounds]
            for key in ("messages_delivered", "messages_lost", "bytes_sent")
        }
        return self.result

    def _round(self, bucket: int) -> None:
        """The lockstep bucket: membership, one whole-population step, a sample."""
        t = bucket - 1
        with self.probe.span("round", round=t):
            if self._time_varying:
                self.topology.set_round(t)
            self.membership(bucket)
            self.kernel.step()
            record = self.sample(t)
        self._publish(record)

    def _calendar_bucket(self, bucket: int) -> None:
        """The general bucket: drain, membership, ticks, ledger, maybe a sample."""
        with self.probe.span("drain", bucket=bucket):
            self.drain(bucket, at_edge=False)
            self.membership(bucket)
            self.drain(bucket, at_edge=True)
        with self.probe.span("ticks", bucket=bucket):
            self.ticks(bucket)
        if self.mass_check == "event":
            self.check_mass((bucket - 1) // self.ratio)
        sample_index, between_samples = divmod(bucket, self.ratio)
        if between_samples or sample_index > self.n_samples:
            return
        if self.mass_check == "sample":
            self.check_mass(sample_index - 1)
        self._publish(self.sample(sample_index - 1, time=sample_index * self.sample_interval))

    # -------------------------------------------------------------- deliveries
    def defer(self, kind: str, bucket_now: int, mature: np.ndarray, *arrays: np.ndarray) -> None:
        """Queue a delivery batch by maturity bucket — never the current one.

        Within its bucket a message lands either strictly before the
        boundary or (within ``TIME_EPS``) on it; the two drain on opposite
        sides of the membership phase, so the batch is partitioned here,
        order kept, under the key ``(bucket, at_edge)``.
        """
        buckets = np.maximum(
            bucket_now + 1, np.ceil(mature / self.quantum - TIME_EPS).astype(np.int64)
        )
        at_edge = mature >= buckets * self.quantum - TIME_EPS
        for dest in np.unique(buckets):
            for edge in (False, True):
                sel = (buckets == dest) & (at_edge == edge)
                if sel.any():
                    self.pending.setdefault((int(dest), edge), []).append(
                        (kind, *(a[sel] for a in arrays))
                    )

    def drain(self, bucket: int, at_edge: bool) -> None:
        """Deliver one side of the bucket's matured batches, in queue order."""
        for kind, *arrays in self.pending.pop((bucket, at_edge), ()):
            if kind == "push":
                self.deliver_push(*arrays)
            else:
                self.deliver_exchange(*arrays)

    def deliver_push(self, targets: np.ndarray, weight: np.ndarray, total: np.ndarray) -> None:
        kernel = self.kernel
        self.in_flight_mass -= float(weight.sum())
        self.in_flight_count -= int(targets.size)
        alive = kernel.alive[targets]
        dead = int(targets.size - int(alive.sum()))
        if dead:
            # The target crashed while the half was in flight: its mass
            # leaves the system, exactly like a lost message.
            kernel.mass_lost += float(weight[~alive].sum())
            kernel.messages_lost += dead
        if alive.any():
            kernel.apply_deliveries(targets[alive], weight[alive], total[alive])
            kernel.messages_delivered += int(alive.sum())

    def deliver_exchange(self, left: np.ndarray, right: np.ndarray) -> None:
        kernel = self.kernel
        self.in_flight_count -= 2 * int(left.size)
        ok = kernel.alive[left] & kernel.alive[right]
        kernel.messages_lost += 2 * int(left.size - int(ok.sum()))
        if ok.any():
            a, b = left[ok], right[ok]
            kernel.merge_pairs(a, b)
            kernel.messages_delivered += 2 * int(a.size)

    # -------------------------------------------------------------- membership
    def membership(self, bucket: int) -> None:
        """Apply the membership events scheduled at this bucket's boundary."""
        kernel, ledger, probe = self.kernel, self.ledger, self.probe
        for event in self._membership.get(bucket, ()):
            before = self._live_mass() if ledger is not None else 0.0
            old_n = kernel.n
            self.apply_event(event)
            if self.clocks is not None and kernel.n > old_n:
                self.clocks.grow(kernel.n - old_n, join_time=bucket * self.quantum)
            if ledger is not None:
                ledger.record_injected(self._live_mass() - before)
            if probe.enabled and not isinstance(event, ValueChangeEvent):
                probe.event(
                    "membership",
                    action="join" if isinstance(event, JoinEvent) else "fail",
                    round=bucket // self.ratio - 1,
                )

    def apply_event(self, event) -> None:
        """Apply one scheduled event to the kernel (never to a ``Simulation``)."""
        kernel = self.kernel
        if isinstance(event, ValueChangeEvent):
            # Ids outside the population are skipped, like the agent event.
            kernel.change_values(
                {host: value for host, value in event.new_values.items() if 0 <= host < kernel.n}
            )
        elif isinstance(event, JoinEvent):
            # New hosts draw the agent JoinEvent's default workload
            # (uniform 0..100 per host); the kernel grows its state arrays
            # and the counting kernels' failure-ordering workload grows too.
            fresh = kernel.rng.uniform(0.0, 100.0, size=event.count)
            kernel.join(fresh)
            if self.workload is not None:
                self.workload = np.concatenate([self.workload, fresh])
        elif isinstance(event.model, UncorrelatedFailure):
            kernel.fail_random_fraction(event.model.fraction)
        elif isinstance(event.model, CorrelatedFailure):
            kernel.fail_extreme_fraction(
                event.model.fraction, highest=event.model.highest, values=self.workload
            )
        elif isinstance(event.model, ExplicitFailure):
            valid = [i for i in event.model.host_ids if 0 <= int(i) < kernel.n]
            if valid:
                kernel.fail(valid)
        else:  # pragma: no cover - vectorized_rejections screens everything else
            raise ValueError(f"failure model {event.model!r} is not vectorised")

    # ------------------------------------------------------------------- ticks
    def ticks(self, bucket: int) -> None:
        """Fire every clock due by the bucket end, one batched step per pass.

        A host whose period is shorter than the quantum ticks again on the
        next pass, so the loop runs until no live clock is due.
        """
        kernel, clocks = self.kernel, self.clocks
        cap = min(bucket * self.quantum, self.duration) + TIME_EPS
        while True:
            next_times = clocks.next_times()
            tick_idx = np.nonzero(kernel.alive & (next_times <= cap))[0]
            if tick_idx.size == 0:
                return
            if self.latency is not None:
                self._tick_with_latency(bucket, tick_idx, next_times[tick_idx])
            elif tick_idx.size == int(kernel.alive.sum()):
                # Whole live population ticking over an instant network:
                # exactly one lockstep round — the bit-identity fast path.
                kernel.step()
            else:
                kernel.step_subset(tick_idx)
            clocks.advance(tick_idx)

    def _tick_with_latency(
        self, bucket: int, tick_idx: np.ndarray, tick_times: np.ndarray
    ) -> None:
        """One batched tick whose messages take time: deliver now or defer."""
        kernel = self.kernel
        alive_idx = np.nonzero(kernel.alive)[0]
        if alive_idx.size >= 2:
            peers = kernel.draw_peers(tick_idx, alive_idx)
            if kernel.mode == "pushpull":
                # The exchange completes after the request and reply legs both
                # arrive, as one atomic merge (masses stay home until then).
                kernel.bytes_sent += 32 * int(tick_idx.size)
                legs = sample_delays(self.latency, self._network_rng, 2 * tick_idx.size)
                delay = legs[: tick_idx.size] + legs[tick_idx.size :]
                now = delay <= TIME_EPS
                later = ~now
                if now.any():
                    kernel.merge_pairs(tick_idx[now], peers[now])
                    kernel.messages_delivered += 2 * int(now.sum())
                if later.any():
                    self.in_flight_count += 2 * int(later.sum())
                    self.defer("exchange", bucket, tick_times[later] + delay[later],
                               tick_idx[later], peers[later])
            else:  # push
                kernel.bytes_sent += 16 * int(np.count_nonzero(peers != tick_idx))
                out_weight, out_total = kernel.emit_push(tick_idx)
                delay = sample_delays(self.latency, self._network_rng, tick_idx.size)
                now = delay <= TIME_EPS
                later = ~now
                if now.any():
                    kernel.apply_deliveries(peers[now], out_weight[now], out_total[now])
                    kernel.messages_delivered += int(now.sum())
                if later.any():
                    self.in_flight_mass += float(out_weight[later].sum())
                    self.in_flight_count += int(later.sum())
                    self.defer("push", bucket, tick_times[later] + delay[later],
                               peers[later], out_weight[later], out_total[later])
        if kernel.reversion > 0.0:
            kernel.revert_subset(tick_idx)
        kernel._refresh_last_estimates(tick_idx)

    # ------------------------------------------------------------------ ledger
    def _live_mass(self) -> float:
        return float(self.kernel.weight[self.kernel.alive].sum())

    def check_mass(self, round_index: int) -> None:
        """Book the kernel's own mass movements (reverts, lossy pushes), then balance."""
        kernel, ledger = self.kernel, self.ledger
        ledger.record_injected(kernel.mass_injected - self._booked_injected)
        ledger.record_lost(kernel.mass_lost - self._booked_lost)
        self._booked_injected, self._booked_lost = kernel.mass_injected, kernel.mass_lost
        ledger.check(self._live_mass() + self.in_flight_mass, round_index=round_index)

    # ---------------------------------------------------------------- sampling
    def sample(self, t: int, time: Optional[float] = None) -> RoundRecord:
        """Sample ``t``: the live estimates' error statistics and the delivery deltas."""
        kernel, spec = self.kernel, self.spec
        estimates = kernel.estimates()
        n_alive = int(kernel.alive.sum())
        group_sizes: Optional[float] = None
        if spec.group_relative:
            truth, deltas, group_sizes = group_relative_errors(kernel, estimates)
        else:
            truth = kernel.truth()
            deltas = estimates - truth if estimates.size else estimates
        if deltas.size:
            stddev_error = float(np.sqrt(np.mean(deltas**2)))
            max_abs_error = float(np.max(np.abs(deltas)))
            mean_abs_error = float(np.mean(np.abs(deltas)))
        else:
            stddev_error = max_abs_error = mean_abs_error = float("nan")
        mean_estimate = float(np.mean(estimates)) if estimates.size else float("nan")
        stored: Optional[Dict[int, float]] = None
        if spec.store_estimates:
            alive_idx = np.nonzero(kernel.alive)[0]
            stored = {int(host): float(value) for host, value in zip(alive_idx, estimates)}
        # Every kernel exposes cumulative delivery counters; the deltas since
        # the last sample are the RoundRecord fields (agent parity).
        counters = (
            int(kernel.messages_delivered), int(kernel.messages_lost), int(kernel.bytes_sent)
        )
        delivered, lost, bytes_sent = (
            now - before for now, before in zip(counters, self._counters)
        )
        self._counters = counters
        return RoundRecord(
            round_index=t,
            truth=truth,
            n_alive=n_alive,
            mean_estimate=mean_estimate,
            stddev_error=stddev_error,
            max_abs_error=max_abs_error,
            mean_abs_error=mean_abs_error,
            bytes_sent=bytes_sent,
            estimates=stored,
            group_sizes=group_sizes,
            messages_delivered=delivered,
            messages_lost=lost,
            messages_in_flight=self.in_flight_count,
            time=time,
        )

    def _publish(self, record: RoundRecord) -> None:
        """Append ``record`` to the result and report it to the probe."""
        self.result.append(record)
        probe = self.probe
        if probe.enabled:
            probe.event(
                "round_end",
                round=record.round_index,
                n_alive=record.n_alive,
                max_abs_error=record.max_abs_error,
                messages_delivered=record.messages_delivered,
                messages_lost=record.messages_lost,
                bytes_sent=record.bytes_sent,
            )
            probe.gauge("n_alive", record.n_alive)

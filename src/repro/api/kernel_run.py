"""One driver for every kernel run: a bucketed calendar, rounds its degenerate case.

:class:`KernelRun` executes a :class:`~repro.api.spec.ScenarioSpec` on a
NumPy kernel (:mod:`repro.simulator.kernels`) for both engines.  It only
*schedules* — the kernel acts, :mod:`repro.metrics.accuracy` scores — and
owns what scheduling needs: the result skeleton, the membership schedule,
the bucket grid, the queue of deferred deliveries, the ledger cadence and
the run's probe (handed to the kernel, never written onto the shared
topology).  Simulated time is cut into buckets of width ``q`` (the *batch
quantum*, :func:`repro.events.vectorized.bucket_grid`); within a bucket
``((b-1)q, bq]`` every event executes at the bucket end, ordered like the
agent calendar's same-timestamp priorities: deliveries matured before the
boundary (:meth:`~KernelRun.drain`), :meth:`~KernelRun.membership`, the
deliveries maturing on the boundary, :meth:`~KernelRun.ticks`, then
:meth:`~KernelRun.sample`.  All TICK events of a bucket are *one* call,
``kernel.step_subset(ticking, delays)``; what it could not land at once
comes back as opaque batches, queued by maturity bucket and handed untouched
to ``kernel.deliver`` (DESIGN.md §7 "The calendar protocol") — what a message
is, what it weighs and what a dead endpoint costs is the kernel's business.
The mass ledger balances per bucket (or per sample), never per event,
on the kernel's read-only ``mass_view()`` — the kernel's own books, joins
and departures included, so the driver books nothing itself.  A massless
kernel's view is ``None``, and its run keeps no ledger.

``engine="rounds"`` is the same loop configured as the degenerate
calendar: one bucket per sample, every host ticking in every bucket.  Over
an instant network nothing can be in flight and no clock can disagree, so
that configuration builds no clock grid and no random streams, closes
the mass ledger once, after its last bucket (``mass_check="run"``, not a
setting), and its tick phase is plain ``kernel.step()`` — which is also what
the calendar executes whenever the whole live population ticks in one
bucket over an instant network.  Over a latency network a rounds spec runs
the calendar itself, at the defaults of ``spec.engine_settings()``
(synchronized unit clocks, a unit sample interval, every delay drawn in
whole rounds as the agent round engine draws it), so what is in flight is
deferred and drained; its records carry no ``time`` and its metadata no
``engine``, like any rounds run.  Hence ``engine="events"`` at the
synchronized anchor (unit rates, unit sample interval, instant network)
consumes the kernel RNG identically and is bit-identical to
``engine="rounds"`` (DESIGN.md §7 "Lockstep is the degenerate calendar");
heterogeneous-rate runs agree with the agent event engine in distribution,
not bit for bit.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.departure import GracefulDepartureEvent
from repro.events.clocks import TIME_EPS
from repro.events.vectorized import ClockGrid, bucket_grid, sample_delays
from repro.failures.models import CorrelatedFailure, ExplicitFailure, UncorrelatedFailure
from repro.failures.schedule import JoinEvent, ValueChangeEvent
from repro.metrics.accuracy import error_statistics
from repro.network.delivery import MassLedger, MassView
from repro.obs.probe import NULL_PROBE
from repro.simulator.kernels import KERNELS
from repro.simulator.result import RoundRecord, SimulationResult
from repro.simulator.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.spec import ScenarioSpec

__all__ = ["KernelRun"]


class KernelRun:
    """One run of ``spec`` on the kernel ``backend`` builds for it.

    ``backend`` is the :class:`~repro.api.backends.VectorizedBackend`
    (the kernel and topology factory; its ``build_kernel`` screens the
    spec, so an unsupported scenario raises here, before anything is
    built).  The span vocabulary is picked once: ``build``/``execute``/``round``
    for lockstep rounds, ``build``/``execute``/``drain``/``ticks`` on the
    calendar (tagged ``engine="events"`` under that engine).
    """

    def __init__(self, backend, spec: "ScenarioSpec", probe=NULL_PROBE):
        self.spec = spec
        self.probe = probe
        self._span_attrs = {"backend": backend.name}
        if spec.engine == "events":
            self._span_attrs["engine"] = "events"
        self.clocks: Optional[ClockGrid] = None
        #: ``delays(k)`` draws ``k`` network delays, when the network's messages take time.
        self.delays: Optional[Callable[[int], np.ndarray]] = None
        with probe.span("build", **self._span_attrs):
            self.kernel = kernel = backend.build_kernel(spec, probe=probe)
            # A memo hit on the topology the kernel was just built over.
            _topology, environment_name = backend.build_topology(spec)
            calendar = spec.on_calendar
            if calendar:  # a rounds spec takes the defaults: unit clocks, unit samples
                settings = spec.engine_settings()
                streams = RandomStreams(spec.seed)
                self.clocks = ClockGrid(settings, streams.get("clocks"), kernel.n)
                network = spec.build_network()
                if network.has_latency:  # on rounds, in whole rounds like the agent's
                    self.delays = partial(sample_delays, network, streams.get("network"),
                                          whole_rounds=spec.engine == "rounds")

        # ------------------------------------------------------- bucket grid
        # Lockstep closes the books once, at run end; a calendar takes its setting.
        self.mass_check = settings.mass_check if calendar else "run"
        if calendar:
            self.duration = settings.duration
            self.sample_interval = settings.sample_interval
            self.n_samples = settings.n_samples
            base = settings.batch_quantum
            if base is None:  # just fine enough to resolve the shortest clock period
                base = float(self.clocks.periods.min())
            self.ratio, self.quantum, self.total_buckets = bucket_grid(settings, base)
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

        #: What a correlated departure orders the hosts of a *counting*
        #: kernel by: those kernels carry no values, so the driver rebuilds
        #: the workload the agent engine would sort on (value kernels use
        #: their own, which value-change events keep current).
        self.workload: Optional[np.ndarray] = None
        if not KERNELS[spec.protocol].value_carrying and any(
            entry.get("model") == "correlated" for entry in spec.events
        ):
            self.workload = spec.build_values()

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
        if spec.engine == "events":
            # The resolved settings, with the quantum actually used.
            self.result.metadata["engine"] = {**settings.metadata(), "batch_quantum": self.quantum}
        if spec.network != "perfect":
            self.result.metadata["network"] = {"name": spec.network, **dict(spec.network_params)}
        self._counters = [0, 0, 0]  # delivered, lost, bytes at the last sample

        # ------------------------------------------------------- in flight
        #: (bucket, at_edge) -> the kernel's ``(kind, *arrays)`` batches maturing there.
        self.pending: Dict[Tuple[int, bool], List[tuple]] = {}
        self.ledger = MassLedger()
        opening = kernel.mass_view()
        if opening is not None:  # a massless kernel keeps no books, like its agent protocol
            self.ledger.open(opening)

    # ---------------------------------------------------------------- the loop
    def run(self) -> SimulationResult:
        """Execute every bucket; returns the populated result."""
        # (A local, not an attribute: a bound method stored on ``self`` would
        # be a reference cycle keeping the kernel's arrays alive past the run.)
        run_bucket = self._round if self.clocks is None else self._calendar_bucket
        with self.probe.span("execute", **self._span_attrs):
            for bucket in range(1, self.total_buckets + 1):
                run_bucket(bucket)
            if self.mass_check == "run":
                self.check_mass(self.n_samples - 1)
        return self.result

    def _round(self, bucket: int) -> None:
        """The lockstep bucket: membership, one whole-population step, a sample."""
        t = bucket - 1
        with self.probe.span("round", round=t):
            self.membership(bucket)
            self.kernel.step()
            record = self.sample(t)
        self._append(record)

    def _calendar_bucket(self, bucket: int) -> None:
        """The general bucket: drain, membership, ticks, ledger, maybe a sample."""
        with self.probe.span("drain", bucket=bucket):
            self.drain(bucket, at_edge=False)
            self.membership(bucket)
            self.drain(bucket, at_edge=True)
        with self.probe.span("ticks", bucket=bucket):
            self.ticks(bucket)
        view = None
        if self.mass_check == "event":
            view = self.check_mass((bucket - 1) // self.ratio)
        sample_index, between_samples = divmod(bucket, self.ratio)
        if between_samples or sample_index > self.n_samples:
            return
        if self.mass_check == "sample":
            view = self.check_mass(sample_index - 1)
        time = sample_index * self.sample_interval if self.spec.engine == "events" else None
        self._append(self.sample(sample_index - 1, time=time), view)

    def _append(self, record: RoundRecord, view: Optional[MassView] = None) -> None:
        """Append ``record``; a traced run that keeps books carries them, the view
        this bucket checked or else a fresh read."""
        if view is None and self.probe.enabled:
            view = self.kernel.mass_view()
        self.result.append(record, self.probe, view)

    # -------------------------------------------------------------- deliveries
    def defer(self, kind: str, bucket_now: int, mature: np.ndarray, *arrays: np.ndarray) -> None:
        """Queue a delivery batch by maturity bucket — never the current one.

        Within its bucket a message lands either strictly before the
        boundary or (within ``TIME_EPS``) on it; the two drain on opposite
        sides of the membership phase, so the batch is partitioned here,
        order kept, under the key ``(bucket, at_edge)``: one stable sort on
        that key (stability *is* the queue order inside a group), then one
        gather per group and array — each queued group owns its arrays, so
        it is freed when it drains, not when the batch's last group does.
        """
        if mature.size == 0:
            return
        first = bucket_now + 1
        buckets = np.maximum(first, np.ceil(mature / self.quantum - TIME_EPS).astype(np.int64))
        at_edge = mature >= buckets * self.quantum - TIME_EPS
        key = 2 * (buckets - first) + at_edge
        # The narrowest dtype that holds every key: 8/16-bit keys take
        # NumPy's radix sort, a far-off maturity widens instead of wrapping.
        key = key.astype(np.min_scalar_type(key.max()))
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        for group in np.split(order, (ranked[1:] != ranked[:-1]).nonzero()[0] + 1):
            offset, edge = divmod(int(key[group[0]]), 2)
            self.pending.setdefault((first + offset, bool(edge)), []).append(
                (kind, *(a[group] for a in arrays))
            )

    def drain(self, bucket: int, at_edge: bool) -> None:
        """Deliver one side of the bucket's matured batches, in queue order."""
        for batch in self.pending.pop((bucket, at_edge), ()):
            self.kernel.deliver(*batch)

    # -------------------------------------------------------------- membership
    def membership(self, bucket: int) -> None:
        """Apply the membership events scheduled at this bucket's boundary."""
        kernel, probe = self.kernel, self.probe
        for event in self._membership.get(bucket, ()):
            old_n = kernel.n
            self.apply_event(event)
            if self.clocks is not None and kernel.n > old_n:
                self.clocks.grow(kernel.n - old_n, join_time=bucket * self.quantum)
            if probe.enabled and not isinstance(event, ValueChangeEvent):
                action = "join" if isinstance(event, JoinEvent) else "fail"
                probe.event("membership", action=action, round=bucket // self.ratio - 1)

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
        elif isinstance(event, GracefulDepartureEvent):
            # The agent event's choice of leavers (drawn from the kernel's
            # stream); the kernel performs the sign-off.
            model = event.model
            if isinstance(model, CorrelatedFailure):
                leaving = kernel.extreme_hosts(
                    model.fraction, highest=model.highest, values=self.workload
                )
            else:
                leaving = model.select(kernel.live_index().tolist(), {}, kernel.rng)
            kernel.depart_gracefully(leaving)
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
        next pass, so the loop runs until no live clock is due.  The clocks
        are scanned once per bucket; a later pass re-checks only the hosts
        that just ticked (no other clock moved, and nobody joins or leaves
        within the phase).  ``next_times`` stays current for every host due
        in the pass at hand, which is all the deliveries read.
        """
        kernel, clocks = self.kernel, self.clocks
        cap = min(bucket * self.quantum, self.duration) + TIME_EPS
        next_times = clocks.next_times()
        tick_idx = (kernel.alive & (next_times <= cap)).nonzero()[0]
        while tick_idx.size:
            if self.delays is None and tick_idx.size == kernel.live_index().size:
                # Whole live population ticking over an instant network:
                # exactly one lockstep round — the bit-identity fast path.
                kernel.step()
            else:
                # What could not land at once matures ``delay`` after its sender's tick.
                for kind, senders, delay, *arrays in kernel.step_subset(tick_idx, self.delays):
                    self.defer(kind, bucket, next_times[senders] + delay, *arrays)
            ticked = clocks.advance(tick_idx)
            due = ticked <= cap
            tick_idx = tick_idx[due]
            next_times[tick_idx] = ticked[due]

    # ------------------------------------------------------------------ ledger
    def check_mass(self, round_index: int) -> Optional[MassView]:
        """Balance the kernel's books, if it keeps any; returns the view checked."""
        view = self.kernel.mass_view()
        if view is not None:
            self.ledger.check(view, round_index=round_index)
        return view

    # ---------------------------------------------------------------- sampling
    def sample(self, t: int, time: Optional[float] = None) -> RoundRecord:
        """Sample ``t``: the live estimates' error statistics and the delivery deltas."""
        kernel, spec = self.kernel, self.spec
        estimates = kernel.estimates()
        group_sizes: Optional[float] = None
        if spec.group_relative:
            # The Fig 11 rule; the recorded scalar is the host-mean of the group truths.
            truths, group_sizes = kernel.group_truths(t)
            truth = float(truths.mean()) if truths.size else float("nan")
        else:
            truths = truth = kernel.truth()
        stored: Optional[Dict[int, float]] = None
        if spec.store_estimates:
            hosts = kernel.live_index()
            stored = {int(host): float(value) for host, value in zip(hosts, estimates)}
        # Every kernel exposes cumulative delivery counters; the deltas since
        # the last sample are the RoundRecord fields (agent parity).
        *counters, in_flight = kernel.delivery_counters()
        delivered, lost, bytes_sent = (now - was for now, was in zip(counters, self._counters))
        self._counters = counters
        return RoundRecord(
            round_index=t,
            truth=truth,
            n_alive=kernel.live_index().size,
            **error_statistics(estimates, truths)._asdict(),
            bytes_sent=bytes_sent,
            estimates=stored,
            group_sizes=group_sizes,
            messages_delivered=delivered,
            messages_lost=lost,
            messages_in_flight=in_flight,
            time=time,
        )

"""Tests for the bucketed vectorised event calendar (repro.api.kernel_run.KernelRun).

Two guarantee tiers (DESIGN.md §14):

* at the synchronization anchor — unit-rate synchronized clocks over an
  instant network — the bucketed calendar degenerates to whole-population
  kernel steps with identical RNG consumption, so it must match the round
  engine's vectorised backend *bit for bit*;
* away from the anchor (heterogeneous rates, latency, loss, membership, a
  ring, partial ticks across a failure) the agent event engine and the
  bucketed calendar are distinct realisations of the same stochastic
  process, so they must agree *in distribution* across seeds, not
  per-record — for every calendar kernel.

The driver's phases and the kernel's calendar protocol
(``step_subset(ticking, delays)`` / ``deliver`` / ``mass_view``) are
exercised one small case each, and a toy kernel that is not Push-Sum runs
through the same driver.
"""

import dataclasses
import statistics

import numpy as np
import pytest

from repro.api import BACKENDS, ScenarioSpec, run_scenario
from repro.api.kernel_run import KernelRun
from repro.api.plan import vectorized_rejections
from repro.events import TIME_EPS
from repro.network import MassConservationError
from repro.obs.probe import NULL_PROBE
from repro.simulator.vectorized import _VectorizedKernel

SEEDS = tuple(range(8))


def events_spec(**overrides):
    base = dict(
        protocol="push-sum-revert",
        protocol_params={"reversion": 0.05},
        n_hosts=64,
        rounds=12,
        seed=7,
        engine="events",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def driver(**overrides):
    """The kernel driver for an events spec, built but not run."""
    return KernelRun(BACKENDS.get("vectorized"), events_spec(**overrides))


def record_dicts(result, drop=("time",)):
    rows = []
    for record in result.rounds:
        row = dataclasses.asdict(record)
        for key in drop:
            row.pop(key)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# The synchronization anchor: bit-identity with the round engine
# ---------------------------------------------------------------------------
class TestSyncAnchorBitIdentity:
    """Synchronized unit-rate clocks + instant network == the round engine."""

    def assert_bit_identical(self, **overrides):
        events = run_scenario(events_spec(backend="vectorized", n_hosts=128,
                                          rounds=10, **overrides))
        rounds = run_scenario(events_spec(engine="rounds", engine_params={},
                                          backend="vectorized", n_hosts=128,
                                          rounds=10, **overrides))
        assert events.metadata["backend"] == rounds.metadata["backend"] == "vectorized"
        assert record_dicts(events) == record_dicts(rounds)
        assert events.times() == [float(j) for j in range(1, 11)]
        assert rounds.times() == [None] * 10

    def test_perfect_network_exchange(self):
        self.assert_bit_identical(mode="exchange")

    def test_perfect_network_push(self):
        self.assert_bit_identical(mode="push")

    def test_mid_run_uncorrelated_failure(self):
        self.assert_bit_identical(
            mode="exchange",
            events=({"event": "failure", "round": 5,
                     "model": "uncorrelated", "fraction": 0.25},),
        )

    def test_bernoulli_loss(self):
        self.assert_bit_identical(
            mode="exchange", network="bernoulli-loss", network_params={"p": 0.2},
        )

    def test_mid_run_join(self):
        self.assert_bit_identical(
            mode="exchange", events=({"event": "join", "round": 4, "count": 16},),
        )

    def test_lockstep_is_the_same_grid_with_the_calendar_machinery_off(self):
        # One bucket per sample on both; the lockstep configuration builds
        # no clocks, no delay sampler and never queues anything.  Both open
        # the mass ledger: the anchor checks it per sample, lockstep once.
        lockstep = driver(engine="rounds", engine_params={})
        anchor = driver()
        for run in (lockstep, anchor):
            assert (run.ratio, run.total_buckets, run.n_samples) == (1, 12, 12)
            assert run.delays is None and run.pending == {}
            assert run.ledger is not None and run.ledger.initial == 64.0
        assert lockstep.clocks is None and lockstep.mass_check == "run"
        assert anchor.clocks.periods.size == 64 and anchor.mass_check == "sample"

    @pytest.mark.parametrize("engine, whole", [("rounds", True), ("events", False)])
    def test_a_rounds_run_draws_its_delays_in_whole_rounds(self, engine, whole):
        # The agent round engine rounds a lognormal delay to the nearest round
        # (``LatencyNetwork.plan``); the event engine keeps it continuous.
        run = driver(engine=engine, engine_params={}, mode="push", network="latency",
                     network_params={"distribution": "lognormal", "sigma": 1.0})
        delays = run.delays(4000)
        assert bool((np.rint(delays) == delays).all()) is whole
        assert 0.0 <= delays.min() and delays.max() <= 64.0

    @pytest.mark.parametrize("network_params, on_calendar", [
        ({"distribution": "fixed", "delay": 0}, False),
        ({"distribution": "uniform", "low": 0, "high": 0}, False),
        ({"distribution": "fixed", "delay": 1}, True),
    ])
    def test_only_a_network_that_delays_messages_puts_rounds_on_the_calendar(
        self, network_params, on_calendar
    ):
        spec = events_spec(engine="rounds", engine_params={}, mode="push", network="latency",
                           network_params=network_params)
        assert spec.on_calendar is on_calendar
        assert (driver(engine="rounds", engine_params={}, mode="push", network="latency",
                       network_params=network_params).clocks is not None) is on_calendar
        # What the calendar cannot run is rejected by the same rule.
        adaptive = spec.replace(protocol_params={"reversion": 0.05, "adaptive": True})
        full_transfer = spec.replace(protocol="push-sum-revert-full-transfer")
        for unfit in (adaptive, full_transfer):
            assert bool(vectorized_rejections(unfit)) is on_calendar, unfit.protocol

    def test_lockstep_closes_the_ledger_once_at_run_end(self, monkeypatch):
        # The failure's weight leaves the live books through membership();
        # the revert's injections reach them at the one closing check.
        lockstep = driver(
            engine="rounds", engine_params={}, mode="push",
            events=({"event": "failure", "round": 5, "model": "uncorrelated", "fraction": 0.25},),
        )
        checks = []
        real_check = lockstep.check_mass
        monkeypatch.setattr(lockstep, "check_mass", lambda t: checks.append(t) or real_check(t))
        lockstep.run()
        assert checks == [11]
        ledger, (at_hosts, in_flight, injected, lost) = lockstep.ledger, lockstep.kernel.mass_view()
        assert injected > 0.0 and ledger.injected < injected  # net of the failed hosts' weight
        assert ledger.expected == pytest.approx(at_hosts + in_flight, rel=1e-12)

    def test_lockstep_churn_sums_the_live_weight_once_per_event(self, monkeypatch):
        # A failure and a join per round: membership() takes one O(n) sum
        # before the bucket's first event and one after each event (the
        # "after" is the next event's "before"), and the books still close.
        lockstep = driver(
            engine="rounds", engine_params={}, mode="push",
            events=({"event": "churn", "start": 2, "stop": 9, "model": "uncorrelated",
                     "fraction": 0.05, "arrivals_per_round": 3},),
        )
        buckets = lockstep._membership
        assert buckets and all(len(events) == 2 for events in buckets.values())
        calls = []
        real_view = lockstep.kernel.mass_view
        monkeypatch.setattr(lockstep.kernel, "mass_view", lambda: calls.append(1) or real_view())
        lockstep.run()  # raises MassConservationError if a membership event went unbooked
        assert len(calls) == 3 * len(buckets) + 1  # + the closing check_mass
        ledger, (at_hosts, in_flight, _injected, _lost) = lockstep.ledger, real_view()
        assert ledger.expected == pytest.approx(at_hosts + in_flight, rel=1e-12)

    @pytest.mark.parametrize("engine", ["rounds", "events"])
    def test_everyone_departing_gracefully_closes_the_ledger(self, engine):
        # With no survivor the leavers' mass leaves with them: booked once, by
        # membership(), not a second time as lost messages.
        result = run_scenario(events_spec(
            engine=engine, backend="vectorized", mode="push",
            events=({"event": "graceful-departure", "round": 2,
                     "model": "uncorrelated", "fraction": 1.0},),
        ))
        assert [record.n_alive for record in result.rounds][2:] == [0] * 10

    def test_lockstep_ledger_catches_a_leak(self):
        lockstep = driver(engine="rounds", engine_params={})
        lockstep.kernel.weight[3] += 1.0  # mass from nowhere, booked by nobody
        with pytest.raises(MassConservationError, match="round 11"):
            lockstep.run()

    def test_same_seed_is_bit_deterministic_off_the_anchor(self):
        kwargs = dict(
            backend="vectorized", mode="exchange",
            network="latency",
            network_params={"distribution": "uniform", "low": 0, "high": 2},
            engine_params={"rates": {"distribution": "heterogeneous",
                                     "fast": 2.0, "slow": 0.25},
                           "synchronized": False},
        )
        first = run_scenario(events_spec(**kwargs))
        second = run_scenario(events_spec(**kwargs))
        assert record_dicts(first, drop=()) == record_dicts(second, drop=())


# ---------------------------------------------------------------------------
# Away from the anchor: agreement with the agent event engine in distribution
# ---------------------------------------------------------------------------
HETEROGENEOUS_CLOCKS = {"rates": {"distribution": "heterogeneous", "fast": 2.0, "slow": 0.25},
                        "synchronized": False}
SCENARIOS = {
    "uniform-rates": {},
    "heterogeneous-rates": {"engine_params": HETEROGENEOUS_CLOCKS},
    "lognormal-rates": {
        "engine_params": {"rates": {"distribution": "lognormal", "sigma": 0.5},
                          "synchronized": False},
    },
    "latency-exchange": {
        "mode": "exchange",
        "network": "latency",
        "network_params": {"distribution": "uniform", "low": 0, "high": 2},
    },
    "loss": {
        "network": "bernoulli-loss", "network_params": {"p": 0.2},
    },
    "departures": {
        "events": ({"event": "failure", "round": 6,
                    "model": "uncorrelated", "fraction": 0.25},),
    },
    "ring": {
        "environment": "ring", "environment_params": {"k": 4},
        "engine_params": HETEROGENEOUS_CLOCKS,
    },
    # Partial ticks across a failure: where a kernel's begin hook would part
    # from the agent engine's per-host order (DESIGN.md §14).
    "unsynchronized-departures": {
        "engine_params": HETEROGENEOUS_CLOCKS,
        "events": ({"event": "failure", "round": 6,
                    "model": "uncorrelated", "fraction": 0.25},),
    },
}
#: Every calendar kernel, with what it needs beyond :func:`events_spec`'s defaults.
CALENDAR_PROTOCOLS = {
    "push-sum-revert": {},
    "sketch-count": dict(protocol="sketch-count", protocol_params={"bins": 8, "bits": 12},
                         workload="constant"),
}
#: Push-Sum-Revert runs every scenario over all seeds; Sketch-Count (massless, no
#: Bernoulli loss) one scenario per calendar path — deferral, membership, partial
#: ticks on a graph and across a failure — over half of them.
AGREEMENT_CELLS = [
    (protocol, name) for protocol in CALENDAR_PROTOCOLS for name in sorted(SCENARIOS)
    if protocol == "push-sum-revert"
    or name in ("latency-exchange", "departures", "ring", "unsynchronized-departures")
]


class TestDistributionAgreement:
    @pytest.mark.parametrize("protocol, name", AGREEMENT_CELLS,
                             ids=[f"{protocol}/{name}" for protocol, name in AGREEMENT_CELLS])
    def test_agent_and_vectorized_agree_across_seeds(self, protocol, name):
        overrides = dict(CALENDAR_PROTOCOLS[protocol], **SCENARIOS[name])
        agent_first, agent_final = [], []
        vector_first, vector_final = [], []
        for seed in SEEDS if protocol == "push-sum-revert" else SEEDS[::2]:
            agent = run_scenario(events_spec(backend="agent", seed=seed, **overrides))
            vector = run_scenario(events_spec(backend="vectorized", seed=seed,
                                              **overrides))
            assert agent.metadata["backend"] == "agent"
            assert vector.metadata["backend"] == "vectorized"
            assert len(agent.rounds) == len(vector.rounds) == 12
            # Same workload stream on both backends: identical populations
            # (up to summation order in the truth reduction).
            if "events" not in overrides:
                assert agent.truths() == pytest.approx(vector.truths())
            assert agent.alive_counts()[-1] == vector.alive_counts()[-1]
            agent_first.append(agent.errors()[0])
            agent_final.append(agent.final_error())
            vector_first.append(vector.errors()[0])
            vector_final.append(vector.final_error())
        agent_mean = statistics.mean(agent_final)
        vector_mean = statistics.mean(vector_final)
        assert agent_mean > 0 and vector_mean > 0
        # Both realisations must converge substantially...
        assert agent_mean < 0.5 * statistics.mean(agent_first)
        assert vector_mean < 0.5 * statistics.mean(vector_first)
        # ...and land within an order of magnitude of each other.  The
        # band is wide by design: the kernel serializes conflicting
        # exchanges (first-claim) where the agent calendar runs them all,
        # a per-round rate difference that compounds exponentially over
        # the 12 sampled intervals.
        ratio = vector_mean / agent_mean
        assert 0.1 < ratio < 10.0, (protocol, name, agent_final, vector_final)


# ---------------------------------------------------------------------------
# Membership, quantum control and mass conservation
# ---------------------------------------------------------------------------
class TestBucketedCalendarMechanics:
    def test_joins_grow_the_population(self):
        result = run_scenario(events_spec(
            backend="vectorized", n_hosts=32,
            events=({"event": "join", "round": 4, "count": 16},),
        ))
        counts = result.alive_counts()
        assert counts[2] == 32 and counts[-1] == 48

    def test_batch_quantum_is_configurable_and_recorded(self):
        result = run_scenario(events_spec(
            backend="vectorized", engine_params={"batch_quantum": 0.5},
        ))
        assert result.metadata["engine"]["batch_quantum"] == 0.5
        assert len(result.rounds) == 12

    def test_bad_batch_quantum_is_rejected_eagerly(self):
        for bad in (0, -1.0, True, "fast"):
            with pytest.raises(ValueError, match="batch_quantum"):
                events_spec(engine_params={"batch_quantum": bad})

    def test_quantum_choice_does_not_change_the_samples_at_the_anchor(self):
        # At the sync anchor every tick lands on the unit grid, so any
        # quantum that divides the sample interval buckets the same ticks
        # together and the records cannot move.
        reference = run_scenario(events_spec(backend="vectorized"))
        halved = run_scenario(events_spec(
            backend="vectorized", engine_params={"batch_quantum": 0.5},
        ))
        assert record_dicts(reference) == record_dicts(halved)

    @pytest.mark.parametrize("mode, per_tick, lag", [("push", 1, 1), ("exchange", 2, 2)])
    @pytest.mark.parametrize("synchronized", [True, False])
    def test_a_quantum_coarser_than_every_clock_period(self, mode, per_tick, lag, synchronized):
        # Periods 0.25 and 0.5 under a unit quantum: every host ticks two or four
        # times in one bucket, one pass each, and each later pass re-checks only
        # the hosts that just ticked.  Every tick sends one push half (1 message)
        # or opens one exchange (2 messages, both legs delayed: a lag of 2).
        run = driver(
            mode=mode, n_hosts=48, **FIXED_DELAY,
            engine_params={"rates": {"distribution": "heterogeneous", "fast": 4.0, "slow": 2.0},
                           "synchronized": synchronized, "batch_quantum": 1.0,
                           "mass_check": "event"},
        )
        clocks = run.clocks
        assert run.quantum == 1.0 > clocks.periods.max()
        first = clocks.periods if synchronized else clocks.origins  # each clock's first tick
        ticks = np.floor((run.duration - first) / clocks.periods + TIME_EPS) + 1
        result = run.run()  # the mass ledger balances after every bucket, or this raises
        kernel = run.kernel
        delivered = [record.messages_delivered for record in result.rounds]
        assert kernel.messages_lost == 0
        assert sum(delivered) + kernel.messages_in_flight == per_tick * ticks.sum()
        if synchronized:  # the same ticks every bucket, landing ``lag`` samples later
            per_bucket = per_tick * int(np.sum(1.0 / clocks.periods))
            assert delivered == [0] * lag + [per_bucket] * (12 - lag)
        at_hosts, in_flight, injected, lost = kernel.mass_view()
        assert at_hosts + in_flight == pytest.approx(48.0 + injected - lost)

    def test_mass_violation_is_caught_per_bucket(self, monkeypatch):
        # A kernel that silently halves every delivered parcel must trip
        # the per-bucket ledger check, not sail through to the final
        # sample with a drifted truth.
        from repro.simulator.push_sum_kernel import VectorizedPushSumRevert

        original = VectorizedPushSumRevert._land

        def leaky(self, state, targets, payload):
            weight, total = payload
            return original(self, state, targets, (weight * 0.5, total))

        monkeypatch.setattr(VectorizedPushSumRevert, "_land", leaky)
        spec = events_spec(
            backend="vectorized", mode="push",
            network="latency",
            network_params={"distribution": "fixed", "delay": 1},
            engine_params={"mass_check": "event"},
        )
        with pytest.raises(MassConservationError):
            run_scenario(spec)

    def test_mass_checks_pass_on_honest_runs(self):
        for params in ({"mass_check": "event"}, {"mass_check": "sample"}):
            result = run_scenario(events_spec(
                backend="vectorized", mode="push",
                network="latency",
                network_params={"distribution": "fixed", "delay": 1},
                engine_params=params,
            ))
            assert len(result.rounds) == 12


# ---------------------------------------------------------------------------
# The driver's bucket phases, one small case each
# ---------------------------------------------------------------------------
FIXED_DELAY = dict(network="latency", network_params={"distribution": "fixed", "delay": 1})


class TestDriverPhases:
    def test_a_batch_straddling_the_bucket_edge_is_partitioned_in_order(self):
        run = driver(mode="push", **FIXED_DELAY)
        assert run.quantum == 1.0
        mature = np.array([0.5, 1.0, 0.7, 1.0])  # before, on, before, on the t=1 boundary
        run.defer("push", 0, mature, np.array([10, 11, 12, 13]), np.ones(4), np.ones(4))
        assert sorted(run.pending) == [(1, False), (1, True)]
        (_kind, interior, _weight, _total), = run.pending[1, False]
        (_kind, at_edge, _weight, _total), = run.pending[1, True]
        assert interior.tolist() == [10, 12] and at_edge.tolist() == [11, 13]

    def test_defer_never_schedules_into_the_current_bucket(self):
        run = driver(mode="push", **FIXED_DELAY)
        mature = np.array([2.9, 3.0, 3.2, 5.0])  # the first two are already due
        run.defer("push", 3, mature, np.arange(4), np.ones(4), np.ones(4))
        assert sorted(run.pending) == [(4, False), (5, True)]
        (kind, targets, _weight, _total), = run.pending[4, False]
        assert kind == "push" and targets.tolist() == [0, 1, 2]

    def test_defer_of_an_empty_batch_is_a_no_op(self):
        run = driver(mode="push", **FIXED_DELAY)
        empty = np.array([], dtype=float)
        run.defer("push", 2, empty, np.array([], dtype=np.int64), empty, empty)
        assert run.pending == {}

    def test_a_far_off_maturity_widens_the_sort_key_instead_of_wrapping(self):
        # 8- and 16-bit sort keys would wrap bucket 130 / 40 000 back onto an
        # early slot; each message must still land in its own bucket, in order.
        run = driver(mode="push", **FIXED_DELAY)
        mature = np.array([40_000.0, 1.0, 129.5, 1.0, 40_000.0, 130.0])
        run.defer("token", 0, mature, np.arange(6))
        assert {slot: [targets.tolist() for _kind, targets in batches]
                for slot, batches in run.pending.items()} == {
            (1, True): [[1, 3]], (130, False): [[2]], (130, True): [[5]],
            (40_000, True): [[0, 4]],
        }

    def test_a_dead_ticker_breaks_the_contract_but_stays_deterministic(self):
        # step_subset wants unique *live* hosts.  A dead one reads rank -1 (the
        # live rank is filled, never left uninitialised): same partners, same
        # masses, every time.
        def tick_with_a_dead_host():
            kernel = driver(mode="exchange").kernel
            kernel.fail([2, 5])
            assert kernel.live_rank()[[2, 5]].tolist() == [-1, -1]
            kernel.step_subset(np.array([1, 2, 3]))
            return kernel

        first, second = tick_with_a_dead_host(), tick_with_a_dead_host()
        assert np.array_equal(first.weight, second.weight)
        assert np.array_equal(first.total, second.total)
        assert first.messages_delivered == second.messages_delivered == 6

    def test_an_exchange_bucket_matures_on_bucket_edges_and_drains_to_empty(self):
        # Every live host ticks at t = 0 on a network of whole-second legs of
        # 0..2: what the tick deferred matures on the edges of buckets 1..4.
        run = driver(
            mode="exchange", n_hosts=400, network="latency",
            network_params={"distribution": "uniform", "low": 0, "high": 2},
        )
        kernel = run.kernel
        kernel.fail_random_fraction(0.25)  # so a host's live rank is not its id
        for kind, _senders, delay, *arrays in kernel.step_subset(kernel.live_index(), run.delays):
            run.defer(kind, 0, delay, *arrays)
        slots = sorted(run.pending)
        assert slots == [(1, True), (2, True), (3, True), (4, True)]
        for slot in slots:
            run.drain(*slot)
        assert not run.pending and kernel.messages_in_flight == 0
        assert kernel.messages_delivered > 400

    def test_a_latency_tick_lands_the_instant_messages_and_returns_the_rest(self):
        # step_subset with a delay sampler: zero-delay halves land within the
        # tick, the rest come back as one batch the driver can only queue.
        kernel = driver(mode="push", **FIXED_DELAY).kernel
        ticking = np.arange(6)
        batches = kernel.step_subset(ticking, lambda k: np.tile([0.0, 2.0], k // 2))
        ((kind, senders, delay, targets, weight, _total),) = batches
        assert kind == "push" and senders.tolist() == [1, 3, 5] and delay.tolist() == [2.0] * 3
        assert targets.size == 3
        delivered, lost, _bytes, in_flight = kernel.delivery_counters()
        assert (delivered, lost, in_flight) == (3, 0, 3)
        at_hosts, flying, _injected, _lost = kernel.mass_view()
        assert flying == pytest.approx(float(weight.sum()))
        assert at_hosts + flying == pytest.approx(64.0 + kernel.mass_injected)

    def test_a_sketch_push_tick_counts_what_a_round_counts(self):
        # Every live host ticking once draws the round's push targets, so both
        # paths merge the same rows and count the same messages: a self-push
        # is none, on the calendar as in the round.
        def sketch_kernel():
            kernel = driver(protocol="sketch-count", protocol_params={"bins": 8, "bits": 12},
                            workload="constant", mode="push").kernel
            kernel.fail([3, 40])
            return kernel

        by_round, by_tick = sketch_kernel(), sketch_kernel()
        by_round.step()
        assert by_tick.step_subset(by_tick.live_index()) == []
        assert np.array_equal(by_round.matrix, by_tick.matrix)
        assert by_tick.delivery_counters() == by_round.delivery_counters()
        assert by_tick.messages_delivered < 62  # some host drew itself

    def test_push_half_to_a_host_that_died_in_flight_is_lost_and_the_ledger_closes(self):
        run = driver(
            mode="push", engine_params={"mass_check": "event"}, **FIXED_DELAY,
            events=({"event": "failure", "round": 0, "model": "explicit", "host_ids": [5]},),
        )
        kernel = run.kernel
        weight, total = kernel._payload(kernel._state(), np.array([0, 1]))  # halves leave
        kernel.in_flight_mass += float(weight.sum())
        kernel.messages_in_flight += 2
        run.defer("push", 0, np.array([1.0, 1.0]), np.array([5, 6]), weight, total)
        run.drain(1, at_edge=False)  # nothing matured before the boundary
        assert kernel.messages_delivered == 0 and kernel.messages_in_flight == 2
        run.membership(1)  # host 5 crashes at the boundary, before the edge deliveries
        run.drain(1, at_edge=True)
        assert run.pending == {}
        assert (kernel.messages_lost, kernel.messages_delivered) == (1, 1)
        assert kernel.mass_lost == pytest.approx(float(weight[0]))
        assert kernel.messages_in_flight == 0 and kernel.in_flight_mass == pytest.approx(0.0)
        run.check_mass(0)  # books the loss; raises if the ledger does not balance

    def test_exchange_with_a_dead_endpoint_counts_two_lost_and_merges_nothing(self):
        kernel = driver(mode="exchange", **FIXED_DELAY).kernel
        kernel.total[3] = 1000.0  # a merge would visibly move this
        kernel.messages_in_flight += 2
        kernel.fail([7])
        state = kernel.weight.copy(), kernel.total.copy()
        kernel.deliver("exchange", np.array([3]), np.array([7]))
        assert (kernel.messages_lost, kernel.messages_delivered) == (2, 0)
        assert kernel.messages_in_flight == 0
        assert np.array_equal(kernel.weight, state[0]) and np.array_equal(kernel.total, state[1])

    def test_join_mid_calendar_grows_the_clock_grid_on_the_synchronized_grid(self):
        run = driver(
            n_hosts=32,
            engine_params={"rates": {"distribution": "heterogeneous",
                                     "fast": 2.0, "slow": 0.5}},
            events=({"event": "join", "round": 2, "count": 8},),
        )
        assert (run.ratio, run.quantum) == (2, 0.5)
        (bucket,) = run._membership  # round 2 closes at t = 3.0 = bucket 6
        assert bucket == 6
        run.membership(bucket)
        clocks = run.clocks
        assert run.kernel.n == clocks.periods.size == 40
        joined = slice(32, 40)
        assert set(clocks.periods[joined]) <= {0.5, 2.0}
        # Synchronized joiners snap to the shared t=0 grid: first tick is
        # the first multiple of their own period at or after the join.
        assert not clocks.origins[joined].any()
        first = clocks.next_times()[joined]
        assert np.array_equal(first, np.where(clocks.periods[joined] == 2.0, 4.0, 3.0))


# ---------------------------------------------------------------------------
# The calendar protocol is the whole contract: a kernel that is not Push-Sum
# ---------------------------------------------------------------------------
class TokenPassing(_VectorizedKernel):
    """Every tick a host holding tokens hands one to a random live host.

    No ``weight``/``total``: the conserved mass is the integer token count.
    It implements the calendar protocol (``step_subset(ticking, delays)``,
    ``deliver``, ``mass_view``) and nothing else the driver could lean on.
    """

    aggregate = "average"

    def __init__(self, values, *, loss=0.0, topology=None, seed=0, probe=NULL_PROBE):
        self._init_population(len(values), topology, seed, probe, loss)
        self.tokens = np.full(self.n, 3, dtype=np.int64)
        self.flying = 0

    def step_subset(self, ticking, delays=None):
        senders = ticking[self.tokens[ticking] > 0]
        targets = self.rng.choice(np.nonzero(self.alive)[0], size=senders.size)
        self.tokens[senders] -= 1
        self.flying += senders.size
        self.messages_in_flight += senders.size
        return [("token", senders, delays(senders.size), targets)]

    def deliver(self, kind, targets):
        assert kind == "token"
        self.flying -= targets.size
        self.messages_in_flight -= targets.size
        landed = targets[self.alive[targets]]
        np.add.at(self.tokens, landed, 1)
        self.messages_delivered += landed.size
        self.messages_lost += targets.size - landed.size

    def mass_view(self):
        return float(self.tokens[self.alive].sum()), float(self.flying), 0.0, float(
            self.messages_lost
        )

    def estimates(self):
        return self.tokens[self.alive].astype(float)

    def truth(self):
        return float(self.tokens[self.alive].mean())


def test_a_kernel_that_is_not_push_sum_runs_on_the_calendar(monkeypatch):
    # "Implement the protocol and flip the flag": the driver reaches for
    # nothing but the calendar protocol, so a token-passing kernel runs over
    # a latency network with the mass ledger balanced every bucket.
    from repro.simulator.kernels import KERNELS, KernelDeclaration

    monkeypatch.setitem(KERNELS, "push-sum-revert", KernelDeclaration(
        kernel=TokenPassing, modes={"push": {}}, params=frozenset(),
        value_carrying=True, calendar=True,
    ))
    run = driver(
        mode="push", protocol_params={}, engine_params={"mass_check": "event"}, **FIXED_DELAY,
        events=({"event": "failure", "round": 5, "model": "uncorrelated", "fraction": 0.25},),
    )
    assert isinstance(run.kernel, TokenPassing)
    result = run.run()
    assert len(result.rounds) == 12 and result.alive_counts()[-1] == 48
    assert all(record.messages_in_flight == 64 for record in result.rounds[:3])
    kernel = run.kernel
    # Tokens only move: at hosts (dead ones keep theirs) + in flight + lost.
    assert kernel.tokens.sum() + kernel.flying + kernel.messages_lost == 3 * 64
    assert kernel.messages_lost > 0 and run.ledger.lost == kernel.messages_lost

"""Tests for the continuous-time event-driven engine (repro.events)."""

import json

import pytest

from repro.api import ScenarioSpec, run_scenario
from repro.cli import main as cli_main
from repro.core import PushSumRevert
from repro.environments import NeighborhoodEnvironment, UniformEnvironment
from repro.events import (
    DELIVER,
    MEMBERSHIP,
    SAMPLE,
    TICK,
    EngineSettings,
    EventCalendar,
    EventSimulation,
    make_clock,
)
from repro.failures import ExplicitFailure, FailureEvent, JoinEvent, ValueChangeEvent
from repro.network import (
    BernoulliLossNetwork,
    LatencyNetwork,
    MassConservationError,
    StackedNetwork,
)
from repro.simulator import Simulation
from repro.workloads import uniform_values

RECORD_FIELDS = (
    "round_index",
    "truth",
    "n_alive",
    "mean_estimate",
    "stddev_error",
    "max_abs_error",
    "mean_abs_error",
    "bytes_sent",
    "estimates",
    "group_sizes",
    "messages_delivered",
    "messages_lost",
    "messages_in_flight",
)


def membership_events():
    """A failure, a join and a value change — the full membership menu."""
    return [
        FailureEvent(round=8, model=ExplicitFailure([0, 3, 5])),
        JoinEvent(round=12, count=4),
        ValueChangeEvent(round=16, new_values={7: 250.0, 9: -40.0}),
    ]


def event_simulation(n_hosts=48, seed=11, **overrides):
    """A small event-engine run over the standard uniform scenario."""
    values = uniform_values(n_hosts, seed=seed)
    settings = dict(duration=20.0, mass_check="event")
    for key in ("duration", "sample_interval", "rates", "synchronized", "mass_check"):
        if key in overrides:
            settings[key] = overrides.pop(key)
    return EventSimulation(
        PushSumRevert(0.05), UniformEnvironment(n_hosts), values, seed=seed,
        settings=EngineSettings(**settings), **overrides
    )


# ---------------------------------------------------------------------------
# Calendar ordering
# ---------------------------------------------------------------------------
class TestEventCalendar:
    def test_orders_by_time_then_priority(self):
        calendar = EventCalendar()
        calendar.schedule(2.0, TICK, ("tick", 1))
        calendar.schedule(1.0, TICK, ("tick", 2))
        calendar.schedule(1.0, SAMPLE, ("sample", 1))
        calendar.schedule(1.0, DELIVER, ("deliver",))
        calendar.schedule(1.0, MEMBERSHIP, ("membership", None))
        kinds = [calendar.pop()[3][0] for _ in range(len(calendar))]
        assert kinds == ["membership", "deliver", "tick", "sample", "tick"]

    def test_equal_time_equal_priority_pops_in_schedule_order(self):
        # The monotone sequence number breaks ties deterministically and
        # keeps payloads (which may be uncomparable dicts) out of the heap
        # comparison entirely.
        calendar = EventCalendar()
        for index in range(10):
            calendar.schedule(1.0, TICK, ("tick", {"payload": index}))
        popped = [calendar.pop()[3][1]["payload"] for _ in range(10)]
        assert popped == list(range(10))

    def test_len_and_bool(self):
        calendar = EventCalendar()
        assert not calendar and len(calendar) == 0
        calendar.schedule(1.0, TICK, ("tick", 0))
        assert calendar and len(calendar) == 1


# ---------------------------------------------------------------------------
# Host clocks
# ---------------------------------------------------------------------------
class TestClocks:
    def test_synchronized_clocks_tick_on_the_global_grid(self, rng):
        clock = make_clock(0, 0.5, join_time=0.0, synchronized=True, rng=rng)
        times = [clock.next_time()]
        for _ in range(3):
            clock.advance()
            times.append(clock.next_time())
        assert times == [2.0, 4.0, 6.0, 8.0]

    def test_synchronized_joiner_starts_on_the_next_grid_point(self, rng):
        late = make_clock(1, 1.0, join_time=2.5, synchronized=True, rng=rng)
        assert late.next_time() == 3.0
        on_grid = make_clock(2, 1.0, join_time=3.0, synchronized=True, rng=rng)
        assert on_grid.next_time() == 3.0  # round-engine join semantics

    def test_unsynchronized_phase_is_random_but_within_one_period(self, rng):
        clock = make_clock(0, 2.0, join_time=1.0, synchronized=False, rng=rng)
        first = clock.next_time()
        assert 1.0 < first <= 1.5
        clock.advance()
        assert clock.next_time() == pytest.approx(first + 0.5)

    def test_rate_distributions(self, rng):
        def draw(rates, count=64):
            return EngineSettings(duration=1.0, rates=rates).draw_rates(rng, count)

        assert draw({"distribution": "uniform", "rate": 2.5}, count=1).tolist() == [2.5]
        assert set(draw({"distribution": "heterogeneous", "fast": 2.0, "slow": 0.5})) == {
            2.0, 0.5
        }
        floored = {"distribution": "lognormal", "mean": 0.0, "sigma": 2.0, "min_rate": 1.0}
        assert (draw(floored) >= 1.0).all()

    def test_nonpositive_rate_is_rejected(self, rng):
        with pytest.raises(ValueError, match="rate"):
            make_clock(0, 0.0, join_time=0.0, synchronized=True, rng=rng)


# ---------------------------------------------------------------------------
# Equivalence with the round engine
# ---------------------------------------------------------------------------
class TestRoundEngineEquivalence:
    def test_unit_delay_synchronized_push_matches_the_round_engine(self):
        # Unit fixed delay + synchronized 1 Hz clocks + 1 s samples is the
        # round engine reconstructed on the calendar: a message sent in
        # tick t arrives before the ticks of t+1, membership events fire
        # between rounds, and every record must match bit for bit —
        # including failure, join and value-change handling.
        n_hosts, rounds, seed = 48, 25, 11
        values = uniform_values(n_hosts, seed=seed)

        round_engine = Simulation(
            PushSumRevert(0.05),
            UniformEnvironment(n_hosts),
            values,
            seed=seed,
            mode="push",
            events=membership_events(),
            network=LatencyNetwork(distribution="fixed", delay=1),
        )
        reference = round_engine.run(rounds)

        event_engine = EventSimulation(
            PushSumRevert(0.05),
            UniformEnvironment(n_hosts),
            values,
            seed=seed,
            mode="push",
            events=membership_events(),
            network=LatencyNetwork(distribution="fixed", delay=1),
            settings=EngineSettings(duration=float(rounds), mass_check="event"),
        )
        candidate = event_engine.run()

        assert len(candidate.rounds) == len(reference.rounds) == rounds
        for ours, theirs in zip(candidate.rounds, reference.rounds):
            for field in RECORD_FIELDS:
                assert getattr(ours, field) == getattr(theirs, field), field
            assert ours.time == float(ours.round_index + 1)
            assert theirs.time is None

    def test_equal_seeds_are_bit_deterministic(self):
        kwargs = dict(
            mode="exchange",
            network=LatencyNetwork(distribution="uniform", low=0, high=2),
            rates={"distribution": "heterogeneous", "fast": 2.0, "slow": 0.25},
            synchronized=False,
        )
        first = event_simulation(**kwargs).run()
        second = event_simulation(**kwargs).run()
        assert first.to_payload() == second.to_payload()
        different = event_simulation(seed=12, **kwargs).run()
        assert different.to_payload() != first.to_payload()


# ---------------------------------------------------------------------------
# Mass conservation
# ---------------------------------------------------------------------------
class TestMassConservation:
    def test_latency_exchange_conserves_mass_at_every_event(self):
        # The combination the round engine rejects outright: exchanges
        # over a delaying network, checked after every single event.
        simulation = event_simulation(
            mode="exchange",
            events=membership_events(),
            network=LatencyNetwork(distribution="uniform", low=0, high=2),
            mass_check="event",
        )
        result = simulation.run()
        assert len(result.rounds) == 20
        assert result.final_error() < 20.0

    def test_latency_push_conserves_mass_with_lognormal_rates(self):
        simulation = event_simulation(
            mode="push",
            network=LatencyNetwork(distribution="lognormal", mean=0.3, sigma=0.6),
            rates={"distribution": "lognormal", "mean": 0.0, "sigma": 0.5},
            synchronized=False,
            mass_check="event",
        )
        simulation.run()

    def test_a_leaking_protocol_is_caught(self):
        class LeakyPushSumRevert(PushSumRevert):
            def integrate(self, state, payloads, rng):
                super().integrate(state, payloads, rng)
                state.weight *= 0.9  # silently drop mass outside any hook

        values = uniform_values(16, seed=3)
        simulation = EventSimulation(
            LeakyPushSumRevert(0.05),
            UniformEnvironment(16),
            values,
            seed=3,
            mode="push",
            settings=EngineSettings(duration=5.0, mass_check="event"),
        )
        with pytest.raises(MassConservationError):
            simulation.run()

    def test_mass_check_off_skips_the_books(self):
        simulation = event_simulation(mass_check="off")
        assert simulation._track_mass is False
        simulation.run()


# ---------------------------------------------------------------------------
# Engine API guards
# ---------------------------------------------------------------------------
class TestEngineGuards:
    def test_run_rejects_a_round_count(self):
        with pytest.raises(ValueError, match="duration"):
            event_simulation().run(10)

    def test_run_is_single_shot(self):
        simulation = event_simulation()
        simulation.run()
        with pytest.raises(RuntimeError, match="once"):
            simulation.run()

    def test_step_is_not_part_of_the_contract(self):
        with pytest.raises(NotImplementedError):
            event_simulation().step()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="sample_interval"):
            event_simulation(sample_interval=0.0)
        with pytest.raises(ValueError, match="duration"):
            event_simulation(duration=0.5, sample_interval=1.0)
        with pytest.raises(ValueError, match="mass_check"):
            event_simulation(mass_check="sometimes")

    def test_result_carries_the_time_axis_and_engine_metadata(self):
        result = event_simulation(duration=6.0, sample_interval=2.0).run()
        assert result.times() == [2.0, 4.0, 6.0]
        assert result.round_indices() == [0, 1, 2]
        assert result.metadata["engine"]["name"] == "events"
        assert result.metadata["engine"]["sample_interval"] == 2.0

    def test_payload_round_trip_keeps_time_and_tolerates_legacy_blobs(self):
        result = event_simulation(duration=4.0).run()
        from repro.simulator import SimulationResult

        rebuilt = SimulationResult.from_payload(result.to_payload())
        assert rebuilt.times() == result.times() == [1.0, 2.0, 3.0, 4.0]
        legacy = result.to_payload()
        for entry in legacy["rounds"]:
            del entry["time"]  # blobs written before the event engine
        assert SimulationResult.from_payload(legacy).times() == [None] * 4


# ---------------------------------------------------------------------------
# Spec validation and dispatch
# ---------------------------------------------------------------------------
def events_spec(**overrides):
    base = dict(
        protocol="push-sum-revert",
        protocol_params={"reversion": 0.05},
        n_hosts=32,
        rounds=8,
        seed=5,
        engine="events",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            events_spec(engine="ticks")

    def test_engine_params_are_rejected_under_the_round_engine(self):
        with pytest.raises(ValueError, match="events"):
            events_spec(engine="rounds", engine_params={"duration": 10.0})

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"cadence": 2.0}, "unknown engine_params"),
            ({"sample_interval": 0}, "sample_interval"),
            ({"sample_interval": True}, "sample_interval"),
            ({"duration": 0.5}, "duration"),
            ({"synchronized": "yes"}, "synchronized"),
            ({"mass_check": "sometimes"}, "mass_check"),
            ({"rates": "fast"}, "rates"),
            ({"rates": {"distribution": "bimodal"}}, "unknown rate distribution"),
            ({"rates": {"rate": 0.0}}, "positive 'rate'"),
            ({"rates": {"distribution": "heterogeneous", "fast": 1.0}}, "slow"),
            (
                {
                    "rates": {
                        "distribution": "heterogeneous",
                        "fast": 1.0,
                        "slow": 1.0,
                        "fast_fraction": 1.5,
                    }
                },
                "fast_fraction",
            ),
            ({"rates": {"distribution": "lognormal", "sigma": -1.0}}, "sigma"),
            ({"rates": {"distribution": "lognormal", "min_rate": 0}}, "min_rate"),
            ({"rates": {"distribution": "uniform", "fast": 2.0}}, "unknown keys"),
            # Non-numeric and non-finite values fail here, naming their key,
            # rather than mid-run (or, batch_quantum on the agent, never).
            ({"rates": {"distribution": "lognormal", "mean": "x"}}, "'mean'"),
            ({"rates": {"distribution": "lognormal", "sigma": float("nan")}}, "'sigma'"),
            ({"rates": {"rate": float("nan")}}, "'rate'"),
            ({"rates": {"distribution": "heterogeneous", "fast": float("inf"), "slow": 1.0}},
             "'fast'"),
            ({"duration": float("nan")}, "'duration'"),
            ({"duration": float("inf")}, "'duration'"),
            ({"sample_interval": float("inf")}, "'sample_interval'"),
            ({"batch_quantum": float("nan")}, "'batch_quantum'"),
        ],
    )
    def test_bad_engine_params_fail_eagerly(self, params, match):
        with pytest.raises(ValueError, match=match):
            events_spec(engine_params=params)

    def test_latency_exchange_is_legal_only_on_the_event_engine(self):
        with pytest.raises(ValueError, match="event engine"):
            events_spec(
                engine="rounds",
                mode="exchange",
                network="latency",
                network_params={"distribution": "fixed", "delay": 2},
            )
        spec = events_spec(
            mode="exchange",
            network="latency",
            network_params={"distribution": "fixed", "delay": 2},
        )
        assert spec.engine == "events"

    def test_engine_settings_resolve_defaults(self):
        settings = events_spec(engine_params={"sample_interval": 2.0}).engine_settings()
        assert settings == EngineSettings(duration=16.0, sample_interval=2.0)  # rounds samples
        assert (settings.synchronized, settings.mass_check) == (True, "sample")
        assert settings.n_samples == 8

    def test_engine_fields_address_distinct_cache_keys(self):
        rounds_key = events_spec(engine="rounds").key()
        events_key = events_spec().key()
        tuned_key = events_spec(engine_params={"duration": 30.0}).key()
        assert len({rounds_key, events_key, tuned_key}) == 3

    def test_spec_round_trips_through_json(self):
        spec = events_spec(
            engine_params={
                "duration": 12.0,
                "rates": {"distribution": "heterogeneous", "fast": 2.0, "slow": 0.5},
            }
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_vectorized_backend_rejects_unvectorised_events_and_auto_falls_back(self):
        # A protocol without a calendar kernel (a composite) under
        # engine="events" still needs the agent engine, with a structured
        # (axis, feature, reason) rejection explaining why.
        from repro.api.plan import PlanRejectionError, resolve_plan

        agent_only = dict(protocol="invert-average")
        with pytest.raises(PlanRejectionError, match="event calendar") as excinfo:
            events_spec(backend="vectorized", **agent_only)
        rejection = excinfo.value.rejections[0]
        assert rejection.axis == "protocol"
        assert rejection.feature == "invert-average"
        assert excinfo.value.nearest.backend == "agent"
        assert events_spec(backend="auto", **agent_only).resolved_backend() == "agent"
        # ...whereas push-sum-revert auto-resolves to the vectorised calendar.
        plan = resolve_plan(events_spec(backend="auto"))
        assert (plan.engine, plan.backend) == ("events", "vectorized")
        assert not plan.rejections

    def test_run_scenario_dispatches_to_the_event_engine(self):
        result = run_scenario(events_spec(backend="auto"))
        assert result.metadata["backend"] == "vectorized"
        assert result.metadata["engine"]["name"] == "events"
        assert result.times() == [float(j) for j in range(1, 9)]
        agent = run_scenario(events_spec(backend="agent"))
        assert agent.metadata["backend"] == "agent"
        assert agent.metadata["engine"]["name"] == "events"
        assert agent.times() == result.times()


# ---------------------------------------------------------------------------
# Membership: clock restarts and exchange accounting
# ---------------------------------------------------------------------------
class _ReviveEvent:
    """Scheduled membership event bringing explicit hosts back to life.

    Mirrors what a churn model's revival path does: the hosts are mutated
    directly, so only the engine's post-membership clock restart can get
    them gossiping again.
    """

    def __init__(self, round, host_ids):
        self.round = round
        self.host_ids = list(host_ids)

    def apply(self, simulation, round_index):
        for host_id in self.host_ids:
            simulation.hosts[host_id].revive(round_index)


class TestMembershipClocks:
    def test_revived_hosts_resume_ticking(self):
        # Regression: a host that dies has its pending tick fire without
        # rescheduling, so before the post-membership clock restart a
        # revived host never gossiped again — it sat in the alive set
        # soaking up payloads with a frozen estimate forever.
        sim = event_simulation(
            events=[
                FailureEvent(round=4, model=ExplicitFailure([0, 1])),
                _ReviveEvent(10, [0, 1]),
            ]
        )
        result = sim.run()
        record = result.final_record()
        assert record.n_alive == 48
        truth = record.truth
        for host_id in (0, 1):
            # The tick chain restarted: the clock kept advancing past the
            # end of the run instead of freezing at the time of death...
            assert sim._clocks[host_id].next_time() > sim.duration
            # ...and the host re-converged with everyone else.
            estimate = sim.protocol.estimate(sim.hosts[host_id].state)
            assert abs(estimate - truth) < 10.0

    def test_revival_keeps_the_mass_books_balanced(self):
        # mass_check="event" in event_simulation(): the departure's mass
        # removal and the revival's re-injection must both be booked, or
        # the per-event conservation check raises mid-run.
        sim = event_simulation(
            events=[
                FailureEvent(round=3, model=ExplicitFailure([5])),
                _ReviveEvent(9, [5]),
            ]
        )
        result = sim.run()
        assert result.alive_counts()[-1] == 48

    def test_late_revival_does_not_schedule_past_the_horizon(self):
        # A host revived on the last sample has no room left on its grid;
        # the restart must not schedule a tick beyond the duration.
        sim = event_simulation(
            events=[
                FailureEvent(round=4, model=ExplicitFailure([2])),
                _ReviveEvent(18, [2]),
            ]
        )
        sim.run()
        for _ in range(len(sim.calendar)):
            time, _, _, _ = sim.calendar.pop()
            assert time > sim.duration


class TestExchangeAccounting:
    def test_dead_responder_request_loses_both_legs(self):
        # The fixed branch (DESIGN.md §11): a request arriving at a
        # departed host kills the whole exchange, and every attempted
        # exchange accounts exactly two messages.  Before the fix this
        # counted a single lost message, so exchange totals diverged from
        # the round engine's lost-exchange accounting.
        sim = event_simulation(
            n_hosts=8,
            mode="exchange",
            network=LatencyNetwork(distribution="fixed", delay=1),
            mass_check="off",
        )
        sim.fail_host(1)
        before = sim.messages_lost
        sim._adapter.handle(("xreq", 0, 1, 16), 1.0)
        assert sim.messages_lost - before == 2
        assert sim.messages_delivered == 0

    def test_departures_under_latency_lose_exchanges_in_pairs(self):
        # Integration: explicit departures at round 8 strand requests that
        # are already in flight, so the dead-responder branch must fire —
        # and every loss it books is a pair, keeping delivered + lost even
        # per attempted exchange.
        lost_counts = []
        sim = event_simulation(
            mode="exchange",
            network=LatencyNetwork(distribution="fixed", delay=1),
            events=[FailureEvent(round=8, model=ExplicitFailure(list(range(24))))],
            mass_check="off",
        )
        original = sim._adapter.handle

        def recording_handle(event, time):
            before = sim.messages_lost
            original(event, time)
            if sim.messages_lost != before:
                lost_counts.append(sim.messages_lost - before)

        sim._adapter.handle = recording_handle
        sim.run()
        # The only loss sources in a pure-latency exchange run are the
        # dead-responder request (2) and the dead-initiator reply (1).
        assert set(lost_counts) <= {1, 2}
        assert 2 in lost_counts

    def test_exchange_totals_are_even_on_both_engines(self):
        # Cross-engine counter agreement under loss + departures: with no
        # leg left in flight at the horizon, both engines account every
        # attempted exchange as exactly two messages — delivered, lost,
        # or one of each — so the totals are even on both sides.
        n_hosts, rounds, seed = 48, 20, 11
        values = uniform_values(n_hosts, seed=seed)
        events = [FailureEvent(round=8, model=ExplicitFailure([0, 3, 5]))]

        round_engine = Simulation(
            PushSumRevert(0.05),
            UniformEnvironment(n_hosts),
            values,
            seed=seed,
            mode="exchange",
            events=events,
            network=BernoulliLossNetwork(0.2),
        )
        round_result = round_engine.run(rounds)

        event_engine = EventSimulation(
            PushSumRevert(0.05),
            UniformEnvironment(n_hosts),
            values,
            seed=seed,
            mode="exchange",
            events=[FailureEvent(round=8, model=ExplicitFailure([0, 3, 5]))],
            network=BernoulliLossNetwork(0.2),
            settings=EngineSettings(duration=float(rounds), mass_check="event"),
        )
        event_result = event_engine.run()

        for result in (round_result, event_result):
            delivered = sum(result.delivered_per_round())
            lost = sum(result.lost_per_round())
            assert delivered > 0
            assert lost > 0
            assert (delivered + lost) % 2 == 0


class TestDeliveryCounters:
    """Records carry the change of the engine's cumulative counters (DESIGN.md §11)."""

    @pytest.mark.parametrize("mode, legs", [("push", 1), ("exchange", 2)])
    def test_records_add_up_to_the_tick_grid(self, mode, legs):
        # Synchronized 10 Hz clocks sampled every 0.3 s: every third tick
        # (k * 0.1 == 0.30000000000000004, ...) falls just after a sample
        # instant and must land in the next record, not in none.
        n_hosts, rounds, rate, interval = 100, 12, 10.0, 0.3
        result = run_scenario(
            events_spec(
                backend="agent",
                n_hosts=n_hosts,
                rounds=rounds,
                mode=mode,
                engine_params={
                    "rates": {"distribution": "uniform", "rate": rate},
                    "synchronized": True,
                    "sample_interval": interval,
                },
            )
        )
        last_sample = rounds * interval
        # Ticks sit on the grid k / rate; one at a sample's instant runs first.
        grid = (k * (1.0 / rate) for k in range(1, int(rate * last_sample) + 2))
        ticks = sum(1 for tick in grid if tick <= last_sample)
        payload_bytes = 16  # Push-Sum's (sum, weight): two float64s
        assert ticks == 35
        assert sum(result.bytes_per_round()) == ticks * n_hosts * legs * payload_bytes

    @pytest.mark.parametrize("mode", ["push", "exchange"])
    def test_round_records_sum_to_the_counters(self, mode):
        sim = Simulation(
            PushSumRevert(0.05),
            UniformEnvironment(32),
            uniform_values(32, seed=3),
            seed=3,
            mode=mode,
            network=BernoulliLossNetwork(0.2),
        )
        result = sim.run(10)
        delivered, lost, bytes_sent, in_flight = sim.delivery_counters()
        assert all(isinstance(count, int) for count in sim.delivery_counters())
        assert sum(result.delivered_per_round()) == delivered > 0
        assert sum(result.lost_per_round()) == lost > 0
        assert sum(result.bytes_per_round()) == bytes_sent > 0
        assert result.rounds[-1].messages_in_flight == in_flight


class TestRoundsEngineCounters:
    """What each send books on ``Simulation``'s cumulative counters."""

    N_HOSTS = 16
    PAYLOAD_BYTES = 16  # Push-Sum's (sum, weight): two float64s

    def _sim(self, mode="push", network=None, environment=None):
        n = self.N_HOSTS
        return Simulation(
            PushSumRevert(0.05),
            environment if environment is not None else UniformEnvironment(n),
            uniform_values(n, seed=5),
            seed=5,
            mode=mode,
            network=network,
        )

    def test_counters_start_at_zero(self):
        assert self._sim(network=BernoulliLossNetwork(0.2)).delivery_counters() == (0, 0, 0, 0)

    def test_push_books_one_payload_per_host_and_nothing_for_the_kept_share(self):
        # PSR keeps half its mass and pushes half to one peer; only the
        # peer message touches the radio.
        records = self._sim().run(4).rounds
        assert [record.bytes_sent for record in records] == [
            self.N_HOSTS * self.PAYLOAD_BYTES
        ] * 4

    def test_exchange_counts_both_directions(self):
        records = self._sim("exchange", BernoulliLossNetwork(0.0)).run(4).rounds
        n = self.N_HOSTS
        assert [record.messages_delivered for record in records] == [2 * n] * 4
        assert [record.bytes_sent for record in records] == [2 * n * self.PAYLOAD_BYTES] * 4
        assert [record.messages_lost for record in records] == [0] * 4

    def test_lost_exchange_books_two_losses_and_the_initiators_bytes(self):
        records = self._sim("exchange", BernoulliLossNetwork(1.0)).run(3).rounds
        n = self.N_HOSTS
        assert [record.messages_lost for record in records] == [2 * n] * 3
        assert [record.messages_delivered for record in records] == [0] * 3
        assert [record.bytes_sent for record in records] == [n * self.PAYLOAD_BYTES] * 3

    def test_lost_push_still_costs_its_bytes(self):
        records = self._sim("push", BernoulliLossNetwork(1.0)).run(3).rounds
        n = self.N_HOSTS
        assert [record.messages_lost for record in records] == [n] * 3
        assert [record.messages_delivered for record in records] == [0] * 3
        assert [record.bytes_sent for record in records] == [n * self.PAYLOAD_BYTES] * 3

    @pytest.mark.parametrize("mode", ["push", "exchange"])
    def test_isolated_hosts_book_nothing(self, mode):
        # With no neighbour every message is a self-message: no bytes, and
        # the network model can neither deliver nor lose it.
        environment = NeighborhoodEnvironment({host: set() for host in range(self.N_HOSTS)})
        sim = self._sim(mode, BernoulliLossNetwork(0.5), environment)
        sim.run(3)
        assert sim.delivery_counters() == (0, 0, 0, 0)

    def test_each_record_is_the_change_since_the_previous_one(self):
        network = StackedNetwork(
            [BernoulliLossNetwork(0.2), LatencyNetwork(distribution="uniform", low=0, high=2)]
        )
        sim = self._sim("push", network)
        before = sim.delivery_counters()
        for _ in range(8):
            record = sim.step()
            after = sim.delivery_counters()
            assert all(now >= was for now, was in zip(after[:3], before[:3]))
            assert (
                record.messages_delivered,
                record.messages_lost,
                record.bytes_sent,
                record.messages_in_flight,
            ) == (after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3])
            before = after
        assert before[0] > 0 and before[1] > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_run_with_engine_flags(self, capsys):
        exit_code = cli_main(
            [
                "run",
                "--protocol", "push-sum-revert",
                "--hosts", "32",
                "--rounds", "6",
                "--engine", "events",
                "--engine-params",
                json.dumps({"rates": {"distribution": "heterogeneous",
                                      "fast": 2.0, "slow": 0.5}}),
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["result"]["metadata"]["engine"]["name"] == "events"
        assert [entry["time"] for entry in payload["result"]["rounds"]] == [
            float(j) for j in range(1, 7)
        ]

    def test_list_includes_the_engines(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "engine" in out
        assert "events" in out

    def test_heterogeneous_rates_example_spec_runs(self, capsys):
        exit_code = cli_main(
            ["run", "--config", "examples/specs/heterogeneous_rates.json",
             "--hosts", "32", "--rounds", "5"]
        )
        assert exit_code == 0

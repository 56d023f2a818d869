"""Tests for the network layer (`repro.network`, DESIGN.md §8).

Covers the ISSUE-3 acceptance surface: determinism of every model,
bit-identity of the zero-loss path with the perfect network, the
mass-conservation invariant under loss/latency for the Push-Sum family,
agent-versus-vectorised agreement for Bernoulli loss and every eager
validation error path.  The committed loss-sweep table is checked by
``benchmarks/test_bench_extensions.py``.
"""

import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import NETWORKS, ScenarioSpec, run_scenario
from repro.baselines import PushSum
from repro.cli import main as cli_main
from repro.core import PushSumRevert
from repro.environments import UniformEnvironment
from repro.network import (
    BernoulliLossNetwork,
    DeliveryQueue,
    InFlightMessage,
    LatencyNetwork,
    MassConservationError,
    MassLedger,
    PerfectNetwork,
)
from repro.simulator import Simulation
from repro.simulator.protocol import AggregationProtocol
from repro.simulator.push_sum_kernel import VectorizedPushSumRevert
from repro.workloads import uniform_values

N_HOSTS = 48

#: One spec-kwargs fragment per registered network model (push mode).
NETWORK_CONFIGS = [
    ("perfect", {}),
    ("bernoulli-loss", {"p": 0.25}),
    ("latency", {"distribution": "fixed", "delay": 2}),
    ("latency", {"distribution": "uniform", "low": 0, "high": 3}),
    ("latency", {"distribution": "lognormal", "mean": 0.3, "sigma": 0.6, "max_delay": 8}),
]
CONFIG_IDS = [
    f"{name}:{params.get('distribution', '')}" if name == "latency" else name
    for name, params in NETWORK_CONFIGS
]


def _spec(network, network_params, *, mode="push", backend="agent", **overrides):
    kwargs = dict(
        protocol="push-sum-revert",
        protocol_params={"reversion": 0.05},
        n_hosts=N_HOSTS,
        rounds=25,
        mode=mode,
        seed=3,
        network=network,
        network_params=network_params,
        backend=backend,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestRegistry:
    def test_models_are_registered(self):
        for name in ("perfect", "bernoulli-loss", "latency"):
            assert name in NETWORKS

    def test_network_round_trips_through_json(self):
        spec = _spec("bernoulli-loss", {"p": 0.2})
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.network == "bernoulli-loss"
        assert restored.network_params == {"p": 0.2}

    def test_build_network_returns_fresh_instances(self):
        spec = _spec("bernoulli-loss", {"p": 0.2})
        first, second = spec.build_network(), spec.build_network()
        assert first is not second
        assert isinstance(first, BernoulliLossNetwork)

    @pytest.mark.parametrize("name", ["bandwidth-cap", "stacked"])
    def test_removed_models_are_unknown(self, name):
        with pytest.raises(KeyError, match=f"unknown network '{name}'"):
            _spec(name, {})

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_models_see_endpoints_round_and_stream_only(self, name):
        # No message size, no per-round budget hook, no loss flag.
        model = NETWORKS.get(name)
        for method in ("plan", "plan_seconds"):
            assert list(inspect.signature(getattr(model, method)).parameters) == [
                "self", "source", "destination", "round_index", "rng"]
        assert not hasattr(model, "begin_round") and not hasattr(model, "has_loss")


class TestDeterminism:
    """Equal seed ⇒ bit-identical results for every network model."""

    @pytest.mark.parametrize("name, params", NETWORK_CONFIGS, ids=CONFIG_IDS)
    def test_agent_runs_are_bit_identical(self, name, params):
        first = run_scenario(_spec(name, params))
        second = run_scenario(_spec(name, params))
        assert first.errors() == second.errors()
        assert first.truths() == second.truths()
        assert first.lost_per_round() == second.lost_per_round()
        assert first.in_flight_per_round() == second.in_flight_per_round()

    def test_vectorized_lossy_runs_are_bit_identical(self):
        spec = _spec("bernoulli-loss", {"p": 0.3}, backend="vectorized")
        assert run_scenario(spec).errors() == run_scenario(spec).errors()


class TestPerfectEquivalence:
    """Zero loss and the perfect model reproduce the legacy engine bit for bit."""

    @pytest.mark.parametrize("engine", ["rounds", "events"])
    @pytest.mark.parametrize("mode", ["push", "exchange"])
    def test_zero_loss_matches_perfect_on_agent(self, mode, engine):
        perfect = run_scenario(_spec("perfect", {}, mode=mode, engine=engine))
        zero_loss = run_scenario(_spec("bernoulli-loss", {"p": 0.0}, mode=mode, engine=engine))
        assert zero_loss.errors() == perfect.errors()
        assert zero_loss.truths() == perfect.truths()
        assert zero_loss.total_lost() == 0
        # One delivery-counter contract: the perfect network counts as p = 0 does.
        assert perfect.delivered_per_round() == zero_loss.delivered_per_round()
        assert perfect.lost_per_round() == zero_loss.lost_per_round()
        assert perfect.bytes_per_round() == zero_loss.bytes_per_round()
        assert sum(perfect.delivered_per_round()) > 0

    def test_zero_loss_matches_perfect_on_vectorized(self):
        perfect = run_scenario(_spec("perfect", {}, backend="vectorized"))
        zero_loss = run_scenario(
            _spec("bernoulli-loss", {"p": 0.0}, backend="vectorized")
        )
        assert zero_loss.errors() == perfect.errors()

    def test_perfect_model_instance_matches_no_model(self):
        values = uniform_values(N_HOSTS, seed=3)

        def run(network):
            return Simulation(
                PushSumRevert(0.05), UniformEnvironment(N_HOSTS), values,
                seed=3, mode="push", network=network,
            ).run(25)

        assert run(PerfectNetwork()).errors() == run(None).errors()

    def test_zero_fixed_delay_matches_perfect(self):
        perfect = run_scenario(_spec("perfect", {}))
        zero_delay = run_scenario(_spec("latency", {"distribution": "fixed", "delay": 0}))
        assert zero_delay.errors() == perfect.errors()


class TestMassConservation:
    """Mass at hosts + in flight + lost − injected == initial, every round."""

    def _simulation(self, protocol, network, *, mode="push", events=None, seed=7):
        return Simulation(
            protocol,
            UniformEnvironment(N_HOSTS),
            uniform_values(N_HOSTS, seed=seed),
            seed=seed,
            mode=mode,
            events=events,
            network=network,
        )

    def test_pure_push_sum_bleeds_exactly_the_lost_mass(self):
        sim = self._simulation(PushSum(), BernoulliLossNetwork(0.3))
        sim.run(30)
        # λ=0: no reversion, so the only mass movement out of the system is
        # loss.  The books must balance to float precision.
        at_hosts, in_flight, injected, lost = sim.mass_view()
        assert lost > 0.0
        assert injected == pytest.approx(0.0, abs=1e-9)
        assert at_hosts == sim._total_state_mass()  # current between rounds
        assert at_hosts + in_flight == pytest.approx(N_HOSTS - lost, abs=1e-6)

    def test_reversion_injects_mass_and_books_balance(self):
        sim = self._simulation(PushSumRevert(0.1), BernoulliLossNetwork(0.2))
        sim.run(30)  # the engine asserts the ledger internally every round
        assert sim.mass_injected != 0.0
        assert sim.mass_lost > 0.0

    def test_latency_and_failures_keep_the_books(self, lossy_latent_network):
        from repro.failures import CorrelatedFailure, FailureEvent

        sim = self._simulation(
            PushSum(),
            lossy_latent_network(0.15, high=4),
            events=[FailureEvent(round=10, model=CorrelatedFailure(0.5, highest=True))],
        )
        result = sim.run(30)
        # In-flight mass existed at some point, and the stranded mass at the
        # departed hosts still counts towards the host-side total.
        assert max(result.in_flight_per_round()) > 0
        remaining = sim._total_state_mass() + sim._in_flight.in_flight_mass
        assert remaining == pytest.approx(N_HOSTS - sim.mass_lost, abs=1e-6)

    def test_exchange_loss_never_destroys_mass(self):
        sim = self._simulation(PushSum(), BernoulliLossNetwork(0.5), mode="exchange")
        result = sim.run(25)
        assert result.total_lost() > 0  # exchanges were dropped...
        assert sim.mass_lost == 0.0  # ...but atomically: no mass at risk
        assert sim._total_state_mass() == pytest.approx(N_HOSTS, abs=1e-6)

    def test_vectorized_kernel_accounts_lost_mass(self):
        kernel = VectorizedPushSumRevert(
            uniform_values(256, seed=1), 0.0, mode="push", loss=0.3, seed=1
        )
        kernel.step_many(20)
        assert kernel.mass_lost > 0.0
        assert kernel.weight.sum() + kernel.mass_lost == pytest.approx(256.0, abs=1e-6)

    def test_vectorized_pushpull_loss_conserves_mass(self):
        kernel = VectorizedPushSumRevert(
            uniform_values(256, seed=1), 0.0, mode="pushpull", loss=0.4, seed=1
        )
        kernel.step_many(20)
        assert kernel.mass_lost == 0.0
        assert kernel.weight.sum() == pytest.approx(256.0, abs=1e-6)

    # The round engine recounts the population only where mass could have
    # appeared (DESIGN.md §8); the thinned recounts must still catch leaks.
    def test_a_dropped_parcel_is_caught_at_its_round(self):
        class LeakyPushSum(PushSum):
            def integrate(self, state, payloads, rng):
                if sim.round_index == 3 and state is sim.hosts[5].state:
                    payloads = payloads[1:]
                super().integrate(state, payloads, rng)

        sim = self._simulation(LeakyPushSum(), BernoulliLossNetwork(0.2))
        sim.run(3)
        with pytest.raises(MassConservationError, match="round 3"):
            sim.step()

    def test_a_duplicated_delivery_is_caught_at_its_round(self, monkeypatch):
        sim = self._simulation(PushSum(), LatencyNetwork(distribution="fixed", delay=1))
        due = sim._in_flight.due

        def due_with_a_duplicate(t):
            matured = due(t)
            return matured + matured[:1] if t == 4 else matured

        monkeypatch.setattr(sim._in_flight, "due", due_with_a_duplicate)
        sim.run(4)
        with pytest.raises(MassConservationError, match="round 4"):
            sim.step()

    def test_an_unannounced_mutation_between_rounds_is_caught(self):
        sim = self._simulation(PushSum(), BernoulliLossNetwork(0.2))
        sim.run(3)
        sim.hosts[5].state.weight += 1.0  # the carried checkpoint must not absorb it
        with pytest.raises(MassConservationError, match="round 3"):
            sim.step()

    @pytest.mark.parametrize("case", ["epoch-restart", "join", "graceful-departure"])
    def test_conditional_recounts_book_every_deliberate_injection(self, case):
        from repro.baselines import EpochPushSum
        from repro.core import GracefulDepartureEvent
        from repro.failures import JoinEvent, UncorrelatedFailure

        protocol, events = PushSum(), None
        if case == "epoch-restart":
            protocol = EpochPushSum(epoch_length=5)  # re-mints in begin_round
        elif case == "join":
            events = [JoinEvent(round=10, count=12)]  # mints in _apply_events
        else:
            events = [GracefulDepartureEvent(round=10, model=UncorrelatedFailure(0.4))]
        sim = self._simulation(protocol, BernoulliLossNetwork(0.2), events=events)
        sim.run(30)  # the engine checks the ledger every round
        assert sim.mass_lost > 0.0
        if case == "epoch-restart":
            assert sim.mass_injected != 0.0
        elif case == "join":
            assert sim.mass_injected == pytest.approx(12.0, abs=1e-9)
        else:  # sign-off moves mass host → host: nothing minted, nothing dropped
            assert sim.mass_injected == pytest.approx(0.0, abs=1e-9)
            assert sim.result.rounds[-1].n_alive < N_HOSTS

    def test_recounts_per_round(self):
        from repro.baselines import EpochPushSum
        from repro.failures import JoinEvent

        def recounts_per_round(base, events=None):
            class Spy(base):
                calls = 0

                def state_mass(self, state):
                    Spy.calls += 1
                    return super().state_mass(state)

            sim = self._simulation(Spy(), BernoulliLossNetwork(0.2), events=events)
            counts = []
            for _ in range(4):
                Spy.calls = 0
                sim.step()
                counts.append(Spy.calls / len(sim.hosts))
            return counts

        # A quiet round with an inherited begin_round: the check and the
        # post-finalize recount, nothing else.
        assert recounts_per_round(PushSumRevert) == [2, 2, 2, 2]
        assert recounts_per_round(PushSumRevert, [JoinEvent(round=2, count=3)]) == [2, 2, 3, 2]
        assert recounts_per_round(EpochPushSum) == [3, 3, 3, 3]

    def test_ledger_raises_on_imbalance(self):
        ledger = MassLedger()
        ledger.open((100.0, 0.0, 0.0, 0.0))
        ledger.check((80.0, 10.0, 0.0, 10.0), round_index=0)  # balanced
        ledger.check((97.0, 0.0, 7.0, 10.0), round_index=1)  # balanced
        with pytest.raises(MassConservationError, match="round 3") as raised:
            ledger.check((85.0, 10.0, 0.0, 10.0), round_index=3)
        message = str(raised.value)
        assert "initial 100.0" in message and "injected 0.0" in message
        assert "lost 10.0" in message

    def test_a_ledger_opened_mid_run_closes_on_later_views(self):
        ledger = MassLedger()
        ledger.open((60.0, 5.0, 3.0, 8.0))  # initial 70: the books so far
        assert ledger.initial == 70.0
        ledger.check((58.0, 9.0, 4.0, 7.0), round_index=0)
        with pytest.raises(MassConservationError):
            ledger.check((60.0, 5.0, 3.0, 9.0), round_index=1)



class TestOneSetOfBooks:
    """Every engine × backend pair keeps one set of mass books, ``mass_view()``, and a
    traced ``round_end`` carries it: at hosts (stranded mass included) + in flight −
    injected + lost stays the initial mass through loss, a failure, a join and an
    everyone-leaves graceful departure."""

    PAIRS = [("rounds", "agent"), ("rounds", "vectorized"),
             ("events", "agent"), ("events", "vectorized")]

    @staticmethod
    def spec(engine, backend):
        return ScenarioSpec(
            protocol="push-sum-revert", protocol_params={"reversion": 0.1},
            n_hosts=N_HOSTS, rounds=12, seed=5, mode="push", engine=engine, backend=backend,
            network="bernoulli-loss", network_params={"p": 0.2},
            events=(
                {"event": "failure", "round": 3, "model": "uncorrelated", "fraction": 0.25},
                {"event": "join", "round": 5, "count": 6},
                {"event": "graceful-departure", "round": 9, "model": "uncorrelated",
                 "fraction": 1.0},
            ),
        )

    @pytest.mark.parametrize("engine, backend", PAIRS)
    def test_every_traced_round_end_closes_the_books(self, engine, backend):
        from repro.obs import TraceRecorder
        from repro.simulator.result import MASS_FIELDS

        trace = TraceRecorder()
        result = run_scenario(self.spec(engine, backend), probe=trace)
        assert result.metadata["backend"] == backend
        rounds = [r for r in trace.records if r["kind"] == "event" and r["name"] == "round_end"]
        assert len(rounds) == 12 and [r["n_alive"] for r in rounds][9:] == [0, 0, 0]
        for record in rounds:
            at_hosts, in_flight, injected, lost = (record[key] for key in MASS_FIELDS)
            assert at_hosts + in_flight - injected + lost == pytest.approx(N_HOSTS, abs=1e-9)
        last = rounds[-1]
        # Something was lost; the joiners' unit weights are injected, and the
        # last leavers' mass went out with them as a negative injection.
        assert last["mass_lost"] > 0.0
        assert rounds[5]["mass_injected"] - rounds[4]["mass_injected"] > 5.0
        assert rounds[9]["mass_injected"] < rounds[8]["mass_injected"]
        # What stays is the weight stranded at the failed hosts.
        assert 0.0 < last["mass_at_hosts"] < N_HOSTS
        assert not any(r["name"] == "mass_check" for r in trace.records if r["kind"] == "event")

    @pytest.mark.parametrize("engine, backend", PAIRS)
    def test_a_planted_leak_still_raises(self, engine, backend, monkeypatch):
        if backend == "agent":
            integrate = PushSum.integrate

            def leaky(self, state, payloads, rng):
                integrate(self, state, payloads, rng)
                state.weight *= 0.5

            monkeypatch.setattr(PushSum, "integrate", leaky)
        else:
            land = VectorizedPushSumRevert._land

            def leaky(self, state, targets, payload):
                weight, total = payload
                return land(self, state, targets, (weight * 0.5, total))

            monkeypatch.setattr(VectorizedPushSumRevert, "_land", leaky)
        with pytest.raises(MassConservationError):
            run_scenario(self.spec(engine, backend))


#: Every registered model, with the parameter sets whose batch plan is checked.
PLAN_MANY_CONFIGS = [
    ("perfect", {}),
    ("bernoulli-loss", {"p": 0.0}),
    ("bernoulli-loss", {"p": 0.2}),
    ("bernoulli-loss", {"p": 1.0}),
    ("latency", {"distribution": "fixed", "delay": 2}),
    ("latency", {"distribution": "uniform", "low": 0, "high": 3}),
    ("latency", {"distribution": "lognormal", "mean": 0.3, "sigma": 0.6, "max_delay": 8}),
    ("latency", {"distribution": "uniform", "low": 2, "high": 2}),
    ("latency", {"distribution": "lognormal", "mean": 0.7, "sigma": 0.0, "max_delay": 1}),
]
PLAN_MANY_IDS = [f"{name}:{sorted(params.items())}" for name, params in PLAN_MANY_CONFIGS]

#: One round's radio sends: ``(source, destination)``.
RADIO_BATCHES = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=40)


class TestPlanMany:
    """``plan_many`` is the sequential ``plan`` loop: same decisions, same stream."""

    def test_every_registered_model_is_covered(self):
        assert {name for name, _ in PLAN_MANY_CONFIGS} == set(NETWORKS)

    @staticmethod
    def _check(name, params, batches, seed):
        batched, looped = NETWORKS.create(name, **params), NETWORKS.create(name, **params)
        batched_rng, looped_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # Several batches in one round: the stream carries across calls.
        for messages in batches:
            expected = [looped.plan(src, dst, 0, looped_rng) for src, dst in messages]
            assert batched.plan_many(messages, 0, batched_rng) == expected
        assert batched_rng.random() == looped_rng.random()

    @pytest.mark.parametrize("name, params", PLAN_MANY_CONFIGS, ids=PLAN_MANY_IDS)
    def test_an_empty_batch_draws_nothing(self, name, params):
        self._check(name, params, [[]], seed=0)

    @pytest.mark.parametrize("name, params", PLAN_MANY_CONFIGS, ids=PLAN_MANY_IDS)
    @settings(max_examples=30, deadline=None)
    @given(batches=st.lists(RADIO_BATCHES, min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
    def test_batches_match_the_plan_loop(self, name, params, batches, seed):
        self._check(name, params, batches, seed)


class _OrderRecorder(AggregationProtocol):
    """Mass-splitting gossip whose payloads name their send.

    A payload is ``(sender, round, seq, weight)``: ``seq`` 0 is the
    self-message, ``1..`` the peers in order.  Every send ``(target,
    payload)`` and every inbox the engine integrates is logged, in call order.
    """

    name = "order-recorder"
    aggregate = "average"
    fanout = 2

    def __init__(self):
        self.round = 0
        self.sent = []
        self.inboxes = []

    def create_state(self, host_id, value, rng):
        # Distinct weights, so that every booked mass names one payload.
        return {"id": host_id, "weight": 1.0 + host_id / 1024}

    def begin_round(self, state, round_index, rng):
        self.round = round_index

    def make_payloads(self, state, peers, rng):
        share = state["weight"] / (len(peers) + 1)
        payloads = [(None, (state["id"], self.round, 0, share))]
        payloads += [(peer, (state["id"], self.round, seq, share))
                     for seq, peer in enumerate(peers, start=1)]
        self.sent += payloads
        return payloads

    def integrate(self, state, payloads, rng):
        self.inboxes.append((state["id"], self.round, list(payloads)))
        state["weight"] = sum(payload[3] for payload in payloads)

    def estimate(self, state):
        return state["weight"]

    def payload_size(self, payload):
        return 16

    def payload_mass(self, payload):
        return payload[3]

    def state_mass(self, state):
        return state["weight"]


class TestPushRoundSendOrder:
    """The batched push round lands, loses and defers sends in send order."""

    @pytest.fixture(scope="class")
    def recorded(self, lossy_latent_network):
        plans = []

        class RecordedNetwork(lossy_latent_network):
            def plan_many(self, messages, round_index, rng):
                decisions = super().plan_many(messages, round_index, rng)
                plans.append((round_index, list(messages), list(decisions)))
                return decisions

        protocol = _OrderRecorder()
        network = RecordedNetwork(0.3, high=2)
        sim = Simulation(protocol, UniformEnvironment(16), [1.0] * 16, seed=5, network=network)
        booked = []
        record_lost = sim._record_lost_message

        def spy(mass):
            booked.append(mass)
            record_lost(mass)

        sim._record_lost_message = spy
        sim.run(12)
        in_flight = {
            message.payload[:3] for due in sim._in_flight._pending.values() for message in due
        }
        return protocol, plans, booked, in_flight

    def test_inboxes_hold_matured_messages_then_arrivals_by_sender(self, recorded):
        protocol = recorded[0]

        def send_order(payload):
            return payload[1], payload[0], payload[2]  # round, sender, seq

        saw_matured = False
        for host, t, inbox in protocol.inboxes:
            matured = [payload for payload in inbox if payload[1] < t]
            arrivals = inbox[len(matured):]
            saw_matured |= bool(matured)
            # Matured first, in the delivery queue's order: by send.
            assert inbox[: len(matured)] == matured
            assert matured == sorted(matured, key=send_order)
            # Then this round's arrivals by sender id, the self-message at its own id.
            assert all(payload[1] == t for payload in arrivals)
            assert arrivals == sorted(arrivals, key=send_order)
            assert (host, t, 0) in [payload[:3] for payload in arrivals]
        assert saw_matured

    def test_each_radio_send_meets_its_own_decision(self, recorded):
        protocol, plans, _, in_flight = recorded
        landed = {
            payload[:3]: (host, t) for host, t, inbox in protocol.inboxes for payload in inbox
        }
        for t, messages, decisions in plans:
            sends = [
                (target, payload) for target, payload in protocol.sent
                if payload[1] == t and target is not None
            ]
            # One call per round, over the radio sends in send order.
            assert messages == [(payload[0], target) for target, payload in sends]
            for (target, payload), delay in zip(sends, decisions):
                if delay is None:
                    assert payload[:3] not in landed and payload[:3] not in in_flight
                elif payload[:3] not in in_flight:
                    assert landed[payload[:3]] == (target, t + delay)
        assert [t for t, _, _ in plans] == list(range(12))

    def test_lost_mass_is_booked_in_send_order(self, recorded):
        protocol, _, booked, in_flight = recorded
        landed = {payload[:3] for _, _, inbox in protocol.inboxes for payload in inbox}
        lost = [
            payload[3]
            for _, payload in protocol.sent
            if payload[:3] not in landed and payload[:3] not in in_flight
        ]
        assert lost and booked == lost


class TestDeliveryQueue:
    def test_messages_mature_in_sending_order(self):
        queue = DeliveryQueue()
        for i in range(3):
            queue.schedule(InFlightMessage(i, i + 1, f"payload-{i}", 0, 2, mass=1.0))
        queue.schedule(InFlightMessage(9, 9, "other-round", 0, 3))
        assert len(queue) == 4
        assert queue.in_flight_mass == pytest.approx(3.0)
        matured = queue.due(2)
        assert [item.payload for item in matured] == ["payload-0", "payload-1", "payload-2"]
        assert len(queue) == 1
        assert queue.due(2) == []

    def test_rejects_non_future_delivery(self):
        queue = DeliveryQueue()
        with pytest.raises(ValueError, match="strictly after"):
            queue.schedule(InFlightMessage(0, 1, "x", 5, 5))


class TestDeliveryAccounting:
    def test_latency_counters_add_up(self):
        result = run_scenario(_spec("latency", {"distribution": "uniform", "low": 0, "high": 3}))
        delivered = sum(result.delivered_per_round())
        lost = result.total_lost()
        backlog = result.in_flight_per_round()[-1]
        # Uniform gossip: every live host pushes one non-self message per
        # round; every one of them is delivered, lost, or still in flight.
        sent = sum(record.n_alive for record in result.rounds)
        assert delivered + lost + backlog == sent
        assert max(result.in_flight_per_round()) > 0

    def test_lost_exchanges_still_cost_radio_bytes(self):
        # The initiator's transmitted half is spent whether or not the link
        # delivers — consistent with push mode, where lost payloads stay on
        # the bandwidth meter too.
        result = run_scenario(_spec("bernoulli-loss", {"p": 1.0}, mode="exchange"))
        assert result.total_lost() > 0
        assert sum(result.delivered_per_round()) == 0
        assert result.total_bytes() > 0

    def test_lossy_metadata_records_the_model(self):
        result = run_scenario(_spec("bernoulli-loss", {"p": 0.25}))
        assert result.metadata["network"] == {"name": "bernoulli-loss", "p": 0.25}


class TestAgentVectorizedEquivalence:
    """Bernoulli loss: the two engines agree in distribution."""

    @pytest.mark.parametrize("mode", ["exchange", "push"])
    def test_seed_averaged_estimates_agree(self, mode):
        kwargs = dict(
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            n_hosts=64,
            rounds=30,
            mode=mode,
            network="bernoulli-loss",
            network_params={"p": 0.3},
        )
        summaries = {}
        for backend in ("agent", "vectorized"):
            estimates, truths = [], []
            for seed in range(8):
                result = run_scenario(ScenarioSpec(seed=seed, backend=backend, **kwargs))
                assert result.metadata["backend"] == backend
                estimates.append(result.mean_estimate())
                truths.append(result.final_truth())
            summaries[backend] = (float(np.mean(estimates)), float(np.mean(truths)))
        agent_mean, truth = summaries["agent"]
        vector_mean, _ = summaries["vectorized"]
        scale = max(abs(truth), 1.0)
        assert abs(agent_mean - truth) <= 0.15 * scale
        assert abs(vector_mean - truth) <= 0.15 * scale
        assert abs(vector_mean - agent_mean) <= 0.2 * scale

    def test_auto_picks_the_lossy_kernel(self):
        spec = _spec("bernoulli-loss", {"p": 0.2}, backend="auto")
        assert spec.resolved_backend() == "vectorized"
        assert run_scenario(spec).metadata["backend"] == "vectorized"

    def test_auto_falls_back_for_unvectorised_models(self, user_network):
        spec = _spec("lossy-latent", {"p": 0.1, "high": 2}, backend="auto")
        assert spec.resolved_backend() == "agent"


class TestSweepIntegration:
    def test_loss_rate_is_a_sweep_axis(self):
        from repro.api import Sweep, SweepRunner

        base = _spec("bernoulli-loss", {"p": 0.0}, backend="auto", rounds=8)
        sweep = Sweep.over(base, **{"network_params.p": [0.0, 0.2, 0.4]})
        result = SweepRunner(parallel=False).run(sweep)
        assert len(result.results) == 3
        losses = [run.total_lost() for run in result.results]
        assert losses[0] == 0
        assert losses[1] > 0 and losses[2] > losses[1]


class TestEagerValidation:
    """Every bad network request fails at spec construction, actionably."""

    def test_unknown_network_lists_known_models(self):
        with pytest.raises(KeyError, match="unknown network 'wifi'.*bernoulli-loss"):
            _spec("wifi", {})

    def test_missing_loss_probability(self):
        with pytest.raises(ValueError, match="invalid parameters for network 'bernoulli-loss'"):
            _spec("bernoulli-loss", {})

    def test_out_of_range_loss_probability(self):
        with pytest.raises(ValueError, match="p must be in \\[0, 1\\]"):
            _spec("bernoulli-loss", {"p": 1.5})

    def test_unknown_network_parameter(self):
        with pytest.raises(ValueError, match="invalid parameters for network"):
            _spec("bernoulli-loss", {"probability": 0.2})

    def test_unknown_delay_distribution(self):
        with pytest.raises(ValueError, match="unknown delay distribution 'pareto'"):
            _spec("latency", {"distribution": "pareto"})

    @pytest.mark.parametrize("delay", [-1, 1.5, 2.0, True, "1", None])
    def test_negative_fixed_delay(self, delay):
        with pytest.raises(ValueError, match="fixed delay must be a non-negative integer"):
            _spec("latency", {"distribution": "fixed", "delay": delay})

    @pytest.mark.parametrize("low, high, match", [
        (5, 2, "low <= high"),
        (-1, 2, "uniform low must be a non-negative integer"),
        # Truncated, these would read [0, 0]: a latency model with no latency.
        (0.5, 0.7, "uniform low must be a non-negative integer"),
        (0, 2.5, "uniform high must be a non-negative integer"),
        (np.float64(1.0), 2, "uniform low must be a non-negative integer"),
        (True, 2, "uniform low must be a non-negative integer"),
        (0, -1, "uniform high must be a non-negative integer"),
        (0, "3", "uniform high must be a non-negative integer"),
    ], ids=["low-above-high", "negative-low", "float-bounds", "float-high", "numpy-float-low",
            "bool-low", "negative-high", "string-high"])
    def test_bad_uniform_delay_bounds(self, low, high, match):
        with pytest.raises(ValueError, match=match):
            _spec("latency", {"distribution": "uniform", "low": low, "high": high})

    @pytest.mark.parametrize("params, match", [
        ({"mean": float("nan")}, "lognormal mean must be a finite number"),
        ({"mean": float("inf")}, "lognormal mean must be a finite number"),
        ({"sigma": float("nan")}, "lognormal sigma must be a finite number"),
        ({"sigma": -0.5}, "lognormal sigma must be non-negative"),
        ({"max_delay": 2.5}, "max_delay must be a non-negative integer"),
        ({"max_delay": -1}, "max_delay must be a non-negative integer"),
        ({"mean": float("-inf")}, "lognormal mean must be a finite number"),
        ({"sigma": float("inf")}, "lognormal sigma must be a finite number"),
        ({"mean": "0.3"}, "lognormal mean must be a finite number"),
        ({"mean": True}, "lognormal mean must be a finite number"),
        ({"max_delay": True}, "max_delay must be a non-negative integer"),
    ], ids=["nan-mean", "inf-mean", "nan-sigma", "negative-sigma", "float-cap", "negative-cap",
            "minus-inf-mean", "inf-sigma", "string-mean", "bool-mean", "bool-cap"])
    def test_bad_lognormal_parameters(self, params, match):
        with pytest.raises(ValueError, match=match):
            _spec("latency", {"distribution": "lognormal", **params})

    @pytest.mark.parametrize("params, has_latency", [
        ({"distribution": "fixed", "delay": 0}, False),
        ({"distribution": "fixed", "delay": np.int64(2)}, True),
        ({"distribution": "uniform", "low": 0, "high": 0}, False),
        ({"distribution": "uniform", "low": 2, "high": 2}, True),
        ({"distribution": "uniform", "low": np.int64(1), "high": np.uint8(3)}, True),
        ({"distribution": "lognormal", "sigma": 0}, True),
        ({"distribution": "lognormal", "mean": -1, "max_delay": 0}, False),
        ({"distribution": "lognormal", "mean": np.float32(0.3), "max_delay": np.int32(4)}, True),
    ], ids=["zero-delay", "numpy-delay", "zero-range", "point-range", "numpy-bounds",
            "zero-sigma", "zero-cap", "numpy-lognormal"])
    def test_edge_values_are_accepted_as_plain_numbers(self, params, has_latency):
        model = LatencyNetwork(**params)
        assert model.has_latency is has_latency
        # Stored as Python numbers, so the metadata stays JSON.
        assert json.loads(json.dumps(model.describe()))["max_delay"] == model.max_delay

    def test_exchange_mode_rejects_latency(self):
        with pytest.raises(ValueError, match="atomic push/pull.*round\\s+engine cannot defer"):
            _spec("latency", {"distribution": "fixed", "delay": 2}, mode="exchange")

    def test_exchange_mode_allows_loss_only_models(self):
        _spec("bernoulli-loss", {"p": 0.2}, mode="exchange")
        _spec("latency", {"distribution": "fixed", "delay": 0}, mode="exchange")

    def test_engine_rejects_latency_in_exchange_mode_too(self):
        with pytest.raises(ValueError, match="round engine cannot\\s+defer"):
            Simulation(
                PushSumRevert(0.1), UniformEnvironment(8), [1.0] * 8,
                mode="exchange", network=LatencyNetwork(distribution="fixed", delay=1),
            )

    def test_vectorized_backend_rejects_unvectorised_models(self, user_network):
        with pytest.raises(ValueError, match="network model 'lossy-latent' is not vectorised"):
            _spec("lossy-latent", {"p": 0.1, "high": 2}, backend="vectorized")

    def test_vectorized_backend_rejects_full_transfer_under_latency(self):
        with pytest.raises(ValueError, match="requires\\s+the agent engine"):
            _spec(
                "latency", {"distribution": "fixed", "delay": 1}, backend="vectorized",
                protocol="push-sum-revert-full-transfer",
                protocol_params={"reversion": 0.1},
            )


class TestCLI:
    """The ISSUE-3 acceptance command works end-to-end on both backends."""

    @pytest.mark.parametrize("backend", ["agent", "vectorized"])
    def test_run_with_network_flags(self, backend, capsys):
        code = cli_main([
            "run", "--protocol", "push-sum-revert", "--hosts", "64", "--rounds", "10",
            "--mode", "push", "--backend", backend,
            "--network", "bernoulli-loss", "--network-params", '{"p": 0.2}',
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "network=bernoulli-loss" in out
        assert f"backend={backend}" in out

    def test_bad_network_params_json_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main([
                "run", "--protocol", "push-sum-revert",
                "--network", "bernoulli-loss", "--network-params", "not-json",
            ])

    @pytest.mark.parametrize("params", [
        '{"distribution": "lognormal", "mean": NaN}',
        '{"distribution": "lognormal", "mean": Infinity}',
        '{"distribution": "lognormal", "sigma": -Infinity}',
        '{"distribution": "lognormal", "max_delay": 2.5}',
        '{"distribution": "uniform", "low": 0.5, "high": 0.7}',
        '{"distribution": "fixed", "delay": true}',
    ], ids=["nan-mean", "inf-mean", "minus-inf-sigma", "float-cap", "float-bounds", "bool-delay"])
    def test_bad_latency_params_are_a_clean_cli_error(self, params, capsys):
        # These ran (or died mid-run) before construction checked them.
        code = cli_main(["run", "--protocol", "push-sum", "--mode", "push", "--hosts", "20",
                         "--rounds", "3", "--engine", "events", "--network", "latency",
                         "--network-params", params])
        assert code == 2
        assert "must be a" in capsys.readouterr().err

    def test_unknown_network_is_a_clean_cli_error(self, capsys):
        code = cli_main(["run", "--protocol", "push-sum-revert", "--network", "wifi"])
        assert code == 2
        assert "unknown network" in capsys.readouterr().err

    def test_list_shows_network_models(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "network" in out
        assert "bernoulli-loss" in out

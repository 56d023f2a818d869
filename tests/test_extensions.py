"""Tests for the extension features: graceful departures and extrema gossip."""

import numpy as np
import pytest

from repro.baselines import ExtremaGossip, ExtremaReset, PushSum
from repro.core import (
    CountSketchReset,
    GracefulDepartureEvent,
    InvertAverage,
    PushSumRevert,
)
from repro.environments import UniformEnvironment
from repro.failures import CorrelatedFailure, ExplicitFailure, FailureEvent
from repro.simulator import Simulation
from repro.workloads import uniform_values


@pytest.fixture
def rng():
    return np.random.default_rng(4)


class TestSignOffPrimitives:
    def test_sign_off_mass_conserves_total(self, rng):
        protocol = PushSum()
        leaving = protocol.create_state(0, 30.0, rng)
        staying = protocol.create_state(1, 10.0, rng)
        total_before = leaving.total + staying.total
        protocol.sign_off(leaving, staying, rng)
        assert leaving.total == 0.0
        assert leaving.weight == 0.0
        assert staying.total == pytest.approx(total_before)
        assert staying.weight == pytest.approx(2.0)

    def test_protocol_sign_off_without_peer_drops_mass(self, rng):
        protocol = PushSum()
        leaving = protocol.create_state(0, 30.0, rng)
        protocol.sign_off(leaving, None, rng)
        assert leaving.weight == 0.0

    def test_sign_off_counters_disowns_positions(self, rng):
        protocol = CountSketchReset(bins=4, bits=8)
        state = protocol.create_state(0, 1.0, rng)
        peer = protocol.create_state(1, 1.0, rng)
        peer_counters = peer.matrix.counters.copy()
        protocol.sign_off(state, peer, rng)
        assert np.array_equal(peer.matrix.counters, peer_counters)
        assert state.matrix.owned == set()
        protocol.begin_round(state, 0, rng)
        assert int(state.matrix.counters.min()) >= 1

    def test_sign_off_invert_average_handles_both_halves(self, rng):
        protocol = InvertAverage(0.01, bins=4, bits=8)
        leaving = protocol.create_state(0, 30.0, rng)
        staying = protocol.create_state(1, 10.0, rng)
        protocol.sign_off(leaving, staying, rng)
        assert leaving.average_state.weight == 0.0
        assert staying.average_state.weight == pytest.approx(2.0)
        assert leaving.count_state.matrix.owned == set()

    def test_sign_off_invert_average_without_peer_drops_mass(self, rng):
        protocol = InvertAverage(0.01, bins=4, bits=8)
        leaving = protocol.create_state(0, 30.0, rng)
        protocol.sign_off(leaving, None, rng)
        assert leaving.average_state.weight == 0.0
        assert leaving.average_state.total == 0.0
        assert leaving.count_state.matrix.owned == set()


class TestGracefulDepartureEvent:
    def test_static_push_sum_with_handover_keeps_departed_value(self):
        """Mass hand-over preserves conservation exactly, so static Push-Sum
        converges to the average *including* the departed hosts' values —
        unlike a silent failure, no mass is destroyed."""
        n = 200
        values = uniform_values(n, seed=5)
        events = [GracefulDepartureEvent(round=15, model=CorrelatedFailure(0.5, highest=True))]
        sim = Simulation(
            PushSum(), UniformEnvironment(n), values, seed=5, mode="exchange", events=events
        )
        result = sim.run(40)
        original_average = sum(values) / len(values)
        # Estimates remain near the ORIGINAL average (the handed-over mass is
        # still in the system), so the error vs. the survivors' average equals
        # roughly the shift in the average.
        assert abs(result.mean_estimate() - original_average) < 3.0

    def test_reverting_protocol_forgets_after_graceful_departure(self):
        n = 200
        values = uniform_values(n, seed=5)
        events = [GracefulDepartureEvent(round=15, model=CorrelatedFailure(0.5, highest=True))]
        sim = Simulation(
            PushSumRevert(0.2),
            UniformEnvironment(n),
            values,
            seed=5,
            mode="exchange",
            events=events,
        )
        result = sim.run(60)
        assert result.final_error() < 10.0

    def test_population_actually_departs(self):
        n = 50
        events = [GracefulDepartureEvent(round=5, model=ExplicitFailure([0, 1, 2]))]
        sim = Simulation(
            PushSum(),
            UniformEnvironment(n),
            uniform_values(n, seed=1),
            seed=1,
            mode="exchange",
            events=events,
        )
        sim.run(8)
        assert len(sim.alive_ids()) == n - 3
        assert not sim.hosts[0].alive

    def test_graceful_counting_departure_decays_faster_than_silent(self):
        """Disowned positions stop being refreshed immediately, so the sketch
        estimate after a graceful departure is never larger than after a
        silent failure of the same hosts."""
        n = 120
        departing = list(range(60))

        def run(event):
            sim = Simulation(
                CountSketchReset(bins=16, bits=16),
                UniformEnvironment(n),
                [1.0] * n,
                seed=8,
                mode="exchange",
                events=[event],
            )
            return sim.run(30).mean_estimate()

        graceful = run(GracefulDepartureEvent(round=10, model=ExplicitFailure(departing)))
        silent = run(FailureEvent(round=10, model=ExplicitFailure(departing)))
        assert graceful <= silent + 1e-6

    def test_describe(self):
        event = GracefulDepartureEvent(round=3, model=CorrelatedFailure(0.5))
        description = event.describe()
        assert description["event"] == "graceful-departure"
        assert description["round"] == 3


class TestExtremaGossip:
    def test_state_initialisation(self, rng):
        protocol = ExtremaGossip()
        state = protocol.create_state(3, 7.5, rng)
        assert state.best_value == 7.5
        assert protocol.argmax(state) == 3

    def test_exchange_propagates_maximum(self, rng):
        protocol = ExtremaGossip()
        a = protocol.create_state(0, 10.0, rng)
        b = protocol.create_state(1, 99.0, rng)
        protocol.exchange(a, b, rng)
        assert protocol.estimate(a) == 99.0
        assert protocol.argmax(a) == 1

    def test_minimum_mode(self, rng):
        protocol = ExtremaGossip(maximum=False)
        a = protocol.create_state(0, 10.0, rng)
        b = protocol.create_state(1, 99.0, rng)
        protocol.exchange(a, b, rng)
        assert protocol.estimate(b) == 10.0
        assert protocol.aggregate == "min"

    def test_network_converges_to_true_maximum(self):
        n = 150
        values = uniform_values(n, seed=9)
        sim = Simulation(
            ExtremaGossip(), UniformEnvironment(n), values, seed=9, mode="exchange"
        )
        result = sim.run(15)
        assert result.final_error() < 1e-9
        assert result.mean_estimate() == pytest.approx(max(values))

    def test_static_extrema_never_forgets_departed_maximum(self):
        n = 150
        values = uniform_values(n, seed=9)
        top_host = int(np.argmax(values))
        events = [FailureEvent(round=10, model=ExplicitFailure([top_host]))]
        sim = Simulation(
            ExtremaGossip(),
            UniformEnvironment(n),
            values,
            seed=9,
            mode="exchange",
            events=events,
        )
        result = sim.run(40)
        # The departed maximum is still being reported.
        assert result.mean_estimate() == pytest.approx(max(values))
        assert result.final_error() > 0.0


class TestExtremaReset:
    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            ExtremaReset(cutoff=0)

    def test_converges_like_static_variant(self):
        n = 150
        values = uniform_values(n, seed=9)
        sim = Simulation(
            ExtremaReset(cutoff=15), UniformEnvironment(n), values, seed=9, mode="exchange"
        )
        result = sim.run(20)
        assert result.final_error() < 2.0

    def test_forgets_departed_maximum(self):
        n = 150
        values = uniform_values(n, seed=9)
        top_host = int(np.argmax(values))
        events = [FailureEvent(round=10, model=ExplicitFailure([top_host]))]
        sim = Simulation(
            ExtremaReset(cutoff=10),
            UniformEnvironment(n),
            values,
            seed=9,
            mode="exchange",
            events=events,
        )
        result = sim.run(60)
        surviving_max = max(v for i, v in enumerate(values) if i != top_host)
        # The stale maximum eventually ages out and the estimate re-converges
        # to the surviving maximum.
        assert result.mean_estimate() == pytest.approx(surviving_max, abs=1.0)
        assert result.final_error() < 2.0

    def test_age_resets_for_own_value(self, rng):
        protocol = ExtremaReset(cutoff=3)
        state = protocol.create_state(0, 5.0, rng)
        for round_index in range(10):
            protocol.begin_round(state, round_index, rng)
        assert state.best_age == 0
        assert state.best_value == 5.0

    def test_foreign_value_expires_after_cutoff(self, rng):
        protocol = ExtremaReset(cutoff=3)
        state = protocol.create_state(0, 5.0, rng)
        protocol.integrate(state, [(50.0, 9, 0)], rng)
        assert state.best_value == 50.0
        for round_index in range(4):
            protocol.begin_round(state, round_index, rng)
        assert state.best_value == 5.0
        assert state.best_id == 0

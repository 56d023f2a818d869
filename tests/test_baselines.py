"""Tests for the static baseline protocols."""

import numpy as np
import pytest

from repro.baselines import (
    EpochPushSum,
    PushSum,
    SketchCount,
)
from repro.environments import NeighborhoodEnvironment, UniformEnvironment
from repro.failures import FailureEvent, UncorrelatedFailure
from repro.simulator import Simulation
from repro.workloads import uniform_values


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestPushSumUnit:
    def test_create_state(self, rng):
        protocol = PushSum()
        state = protocol.create_state(0, 7.0, rng)
        assert state.weight == 1.0
        assert state.total == 7.0
        assert protocol.estimate(state) == 7.0

    def test_make_payloads_splits_mass_in_half(self, rng):
        protocol = PushSum()
        state = protocol.create_state(0, 8.0, rng)
        payloads = protocol.make_payloads(state, [3], rng)
        destinations = [dest for dest, _ in payloads]
        assert destinations == [None, 3]
        for _, (weight, total) in payloads:
            assert weight == 0.5
            assert total == 4.0

    def test_make_payloads_isolated_host_keeps_mass(self, rng):
        protocol = PushSum()
        state = protocol.create_state(0, 8.0, rng)
        payloads = protocol.make_payloads(state, [], rng)
        assert payloads == [(None, (1.0, 8.0))]

    def test_integrate_sums_received_mass(self, rng):
        protocol = PushSum()
        state = protocol.create_state(0, 8.0, rng)
        protocol.integrate(state, [(0.5, 4.0), (0.25, 1.0)], rng)
        assert state.weight == 0.75
        assert state.total == 5.0
        assert protocol.estimate(state) == pytest.approx(5.0 / 0.75)

    def test_integrate_empty_leaves_host_massless(self, rng):
        protocol = PushSum()
        state = protocol.create_state(0, 8.0, rng)
        protocol.integrate(state, [], rng)
        assert state.weight == 0.0
        # The estimate falls back to the last well-defined value.
        assert protocol.estimate(state) == 8.0

    def test_exchange_conserves_and_averages_mass(self, rng):
        protocol = PushSum()
        a = protocol.create_state(0, 10.0, rng)
        b = protocol.create_state(1, 20.0, rng)
        protocol.exchange(a, b, rng)
        assert a.weight == b.weight == 1.0
        assert a.total == b.total == 15.0

    def test_rebase_updates_initial_value(self, rng):
        protocol = PushSum()
        state = protocol.create_state(0, 1.0, rng)
        protocol.rebase(state, 5.0)
        assert state.initial_value == 5.0


class TestSketchCountProtocol:
    def test_counting_state_registers_one_identifier(self, rng):
        protocol = SketchCount(bins=8, bits=16)
        state = protocol.create_state(3, 55.0, rng)
        assert state.own_identifiers == 1

    def test_sum_mode_registers_value_identifiers(self, rng):
        protocol = SketchCount(bins=8, bits=16, value_as_identifiers=True)
        state = protocol.create_state(3, 5.0, rng)
        assert state.own_identifiers == 5
        assert protocol.aggregate == "sum"

    def test_sum_mode_rejects_negative_values(self, rng):
        protocol = SketchCount(bins=8, bits=16, value_as_identifiers=True)
        with pytest.raises(ValueError):
            protocol.create_state(3, -2.0, rng)

    def test_exchange_unions_sketches(self, rng):
        protocol = SketchCount(bins=8, bits=16)
        a = protocol.create_state(0, 1.0, rng)
        b = protocol.create_state(1, 1.0, rng)
        protocol.exchange(a, b, rng)
        assert np.array_equal(a.sketch.matrix, b.sketch.matrix)

    def test_estimate_counts_hosts(self):
        n = 200
        sim = Simulation(
            SketchCount(bins=32, bits=20),
            UniformEnvironment(n),
            [1.0] * n,
            seed=4,
            mode="exchange",
        )
        result = sim.run(15)
        assert 0.5 * n < result.mean_estimate() < 2.0 * n

    def test_identifiers_per_host_divides_estimate(self, rng):
        protocol = SketchCount(bins=16, bits=20, identifiers_per_host=10)
        state = protocol.create_state(0, 1.0, rng)
        assert state.own_identifiers == 10
        assert protocol.estimate(state) < 16  # raw estimate divided by 10

    def test_invalid_identifiers_per_host(self):
        with pytest.raises(ValueError):
            SketchCount(identifiers_per_host=0)


class TestEpochPushSum:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EpochPushSum(epoch_length=0)
        with pytest.raises(ValueError):
            EpochPushSum(max_offset=-1)

    def test_estimate_reports_previous_epoch(self):
        values = uniform_values(100, seed=2)
        sim = Simulation(
            EpochPushSum(epoch_length=10),
            UniformEnvironment(100),
            values,
            seed=2,
            mode="exchange",
        )
        result = sim.run(25)
        truth = sum(values) / len(values)
        # After two full epochs the reported estimate tracks the average.
        assert abs(result.mean_estimate() - truth) < 5.0

    def test_initial_estimate_is_own_value(self, rng):
        protocol = EpochPushSum(epoch_length=5)
        state = protocol.create_state(0, 33.0, rng)
        assert protocol.estimate(state) == 33.0

    def test_epoch_reset_restarts_mass(self, rng):
        protocol = EpochPushSum(epoch_length=2)
        state = protocol.create_state(0, 10.0, rng)
        state.mass.weight = 0.5
        state.mass.total = 40.0
        protocol.begin_round(state, 2, rng)  # crosses into epoch 1
        assert state.current_epoch == 1
        assert state.mass.weight == 1.0
        assert state.mass.total == 10.0
        assert protocol.estimate(state) == pytest.approx(80.0)

    def test_mismatched_epochs_do_not_exchange(self, rng):
        protocol = EpochPushSum(epoch_length=5)
        a = protocol.create_state(0, 10.0, rng)
        b = protocol.create_state(1, 20.0, rng)
        b.current_epoch = 3
        protocol.exchange(a, b, rng)
        assert a.mass.total == 10.0
        assert b.mass.total == 20.0

    def test_offsets_are_bounded(self, rng):
        protocol = EpochPushSum(epoch_length=5, max_offset=3)
        offsets = {protocol.create_state(i, 1.0, rng).epoch_offset for i in range(50)}
        assert offsets <= {0, 1, 2, 3}
        assert len(offsets) > 1

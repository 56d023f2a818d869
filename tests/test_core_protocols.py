"""Tests for the paper's dynamic protocols (the core contribution)."""

import numpy as np
import pytest

from repro.core import (
    CountSketchReset,
    FullTransferPushSumRevert,
    InvertAverage,
    PushSumRevert,
    default_cutoff,
    linear_cutoff,
    no_decay_cutoff,
    scaled_cutoff,
)
from repro.environments import UniformEnvironment
from repro.failures import CorrelatedFailure, FailureEvent, UncorrelatedFailure
from repro.simulator import Simulation
from repro.workloads import uniform_values


@pytest.fixture
def rng():
    return np.random.default_rng(2)


class TestCutoffFunctions:
    def test_default_cutoff_matches_paper(self):
        assert default_cutoff(0) == 7.0
        assert default_cutoff(4) == 8.0
        assert default_cutoff(8) == 9.0

    def test_linear_cutoff(self):
        cutoff = linear_cutoff(5.0, 0.5)
        assert cutoff(0) == 5.0
        assert cutoff(10) == 10.0
        with pytest.raises(ValueError):
            linear_cutoff(-1.0, 0.5)

    def test_scaled_cutoff(self):
        cutoff = scaled_cutoff(2.0)
        assert cutoff(0) == 14.0
        assert cutoff(4) == 16.0
        with pytest.raises(ValueError):
            scaled_cutoff(0.0)

    def test_no_decay_cutoff_is_huge_but_excludes_unheard(self):
        from repro.core import cutoff
        from repro.sketches.counter_matrix import INFINITY

        assert cutoff.INFINITY == INFINITY  # the one sentinel, spelled out twice
        assert no_decay_cutoff(0) == INFINITY - 1
        assert no_decay_cutoff(0) > 1e6


class TestPushSumRevertUnit:
    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            PushSumRevert(-0.1)
        with pytest.raises(ValueError):
            PushSumRevert(1.1)

    def test_lambda_zero_is_plain_push_sum(self, rng):
        protocol = PushSumRevert(0.0)
        state = protocol.create_state(0, 10.0, rng)
        protocol.integrate(state, [(0.5, 20.0)], rng)
        protocol.finalize_round(state, 1, rng)
        assert state.weight == 0.5
        assert state.total == 20.0

    def test_revert_pulls_mass_towards_initial_value(self, rng):
        protocol = PushSumRevert(0.5)
        state = protocol.create_state(0, 10.0, rng)
        protocol.integrate(state, [(1.0, 100.0)], rng)
        protocol.finalize_round(state, 1, rng)
        assert state.weight == pytest.approx(0.5 * 1.0 + 0.5 * 1.0)
        assert state.total == pytest.approx(0.5 * 10.0 + 0.5 * 100.0)

    def test_adaptive_lambda_scales_with_indegree(self, rng):
        protocol = PushSumRevert(0.2, adaptive=True)
        # One message received (including self) -> lambda/2.
        assert protocol._effective_lambda(1) == pytest.approx(0.1)
        # Two messages -> exactly lambda.
        assert protocol._effective_lambda(2) == pytest.approx(0.2)
        # Many messages -> capped at 1.
        assert protocol._effective_lambda(100) == 1.0

    def test_revert_step_conserves_total_mass_over_population(self, rng):
        """The Section III conservation argument: summing the revert step over
        an unchanged population leaves total mass unchanged."""
        protocol = PushSumRevert(0.3)
        states = [protocol.create_state(i, float(i), rng) for i in range(10)]
        # Simulate an arbitrary redistribution that conserves mass.
        total_before = sum(s.total for s in states)
        weight_before = sum(s.weight for s in states)
        shuffled = np.random.default_rng(0).permutation(10)
        for state, source in zip(states, shuffled):
            state.total = float(source)
            state.weight = 1.0
        for state in states:
            protocol.finalize_round(state, 1, rng)
        assert sum(s.total for s in states) == pytest.approx(total_before)
        assert sum(s.weight for s in states) == pytest.approx(weight_before)

    def test_describe_reports_lambda(self):
        description = PushSumRevert(0.05, adaptive=True).describe()
        assert description["reversion"] == 0.05
        assert description["adaptive"] is True


class TestPushSumRevertIntegration:
    def _run(self, reversion, events=None, rounds=50, n=300, mode="exchange"):
        values = uniform_values(n, seed=6)
        sim = Simulation(
            PushSumRevert(reversion),
            UniformEnvironment(n),
            values,
            seed=6,
            mode=mode,
            events=events or [],
        )
        return sim.run(rounds)

    def test_converges_without_failures(self):
        result = self._run(0.01, rounds=30)
        assert result.final_error() < 3.0

    def test_static_protocol_never_recovers_from_correlated_failure(self):
        events = [FailureEvent(round=15, model=CorrelatedFailure(0.5, highest=True))]
        result = self._run(0.0, events=events, rounds=50)
        # Truth dropped to ~25; static estimate stays near 50.
        assert result.final_error() > 15.0

    def test_reversion_recovers_from_correlated_failure(self):
        events = [FailureEvent(round=15, model=CorrelatedFailure(0.5, highest=True))]
        result = self._run(0.3, events=events, rounds=60)
        # The pre-recovery error is ~25 (old average 50 vs new truth 25); a
        # reverting protocol must get well below that, if not to zero.
        assert result.final_error() < 12.0

    def test_larger_lambda_recovers_faster(self):
        events = [FailureEvent(round=15, model=CorrelatedFailure(0.5, highest=True))]
        slow = self._run(0.01, events=events, rounds=40)
        fast = self._run(0.5, events=events, rounds=40)
        assert fast.error_at(25) < slow.error_at(25)

    def test_uncorrelated_failure_harmless(self):
        events = [FailureEvent(round=15, model=UncorrelatedFailure(0.5))]
        result = self._run(0.01, events=events, rounds=40)
        assert result.final_error() < 5.0

    def test_push_mode_also_works(self):
        result = self._run(0.05, rounds=40, mode="push")
        assert result.final_error() < 10.0


class TestFullTransfer:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FullTransferPushSumRevert(0.1, parcels=0)
        with pytest.raises(ValueError):
            FullTransferPushSumRevert(0.1, history=0)

    def test_fanout_matches_parcels(self):
        assert FullTransferPushSumRevert(0.1, parcels=6).fanout == 6

    def test_exchange_mode_unsupported(self, rng):
        protocol = FullTransferPushSumRevert(0.1)
        a = protocol.create_state(0, 1.0, rng)
        b = protocol.create_state(1, 2.0, rng)
        with pytest.raises(NotImplementedError):
            protocol.exchange(a, b, rng)

    def test_payloads_export_entire_mass(self, rng):
        protocol = FullTransferPushSumRevert(0.0, parcels=4)
        state = protocol.create_state(0, 8.0, rng)
        payloads = protocol.make_payloads(state, [1, 2, 3, 4], rng)
        assert len(payloads) == 4
        assert all(dest in (1, 2, 3, 4) for dest, _ in payloads)
        total_weight = sum(weight for _, (weight, _) in payloads)
        total_value = sum(value for _, (_, value) in payloads)
        assert total_weight == pytest.approx(1.0)
        assert total_value == pytest.approx(8.0)

    def test_payloads_apply_reversion_on_send(self, rng):
        protocol = FullTransferPushSumRevert(0.5, parcels=2)
        state = protocol.create_state(0, 10.0, rng)
        state.weight, state.total = 2.0, 40.0
        protocol.begin_round(state, 0, rng)
        payloads = protocol.make_payloads(state, [1, 2], rng)
        total_weight = sum(weight for _, (weight, _) in payloads)
        total_value = sum(value for _, (_, value) in payloads)
        assert total_weight == pytest.approx(0.5 * 2.0 + 0.5)
        assert total_value == pytest.approx(0.5 * 40.0 + 0.5 * 10.0)

    def test_isolated_host_keeps_reverted_mass(self, rng):
        protocol = FullTransferPushSumRevert(0.5, parcels=4)
        state = protocol.create_state(0, 10.0, rng)
        payloads = protocol.make_payloads(state, [], rng)
        assert len(payloads) == 1
        assert payloads[0][0] is None

    def test_history_window_bounds_length(self, rng):
        protocol = FullTransferPushSumRevert(0.1, parcels=2, history=3)
        state = protocol.create_state(0, 10.0, rng)
        for _ in range(6):
            protocol.integrate(state, [(0.5, 5.0)], rng)
            protocol.finalize_round(state, 1, rng)
        assert len(state.history) == 3

    def test_empty_round_skipped_in_history(self, rng):
        protocol = FullTransferPushSumRevert(0.1, parcels=2, history=3)
        state = protocol.create_state(0, 10.0, rng)
        protocol.integrate(state, [], rng)
        protocol.finalize_round(state, 0, rng)
        assert state.history == []
        # Estimate falls back to last well-defined value (the initial value).
        assert protocol.estimate(state) == 10.0

    def test_estimate_averages_history(self, rng):
        protocol = FullTransferPushSumRevert(0.0, parcels=2, history=3)
        state = protocol.create_state(0, 10.0, rng)
        for value in (10.0, 20.0, 30.0):
            protocol.integrate(state, [(1.0, value)], rng)
            protocol.finalize_round(state, 1, rng)
        assert protocol.estimate(state) == pytest.approx(20.0)

    def test_full_transfer_beats_basic_after_correlated_failure(self):
        n = 400
        values = uniform_values(n, seed=3)
        events = [FailureEvent(round=15, model=CorrelatedFailure(0.5, highest=True))]

        def run(protocol, mode):
            sim = Simulation(
                protocol, UniformEnvironment(n), values, seed=3, mode=mode, events=list(events)
            )
            return sim.run(60).plateau_error(tail=5)

        basic = run(PushSumRevert(0.1), "exchange")
        full = run(FullTransferPushSumRevert(0.1, parcels=4, history=3), "push")
        assert full < basic


class TestCountSketchResetUnit:
    def test_counting_state(self, rng):
        protocol = CountSketchReset(bins=8, bits=16)
        state = protocol.create_state(0, 123.0, rng)
        assert state.own_identifiers == 1
        assert len(state.matrix.owned) == 1

    def test_sum_mode_state(self, rng):
        protocol = CountSketchReset(bins=8, bits=16, value_as_identifiers=True)
        state = protocol.create_state(0, 6.0, rng)
        assert state.own_identifiers == 6
        assert protocol.aggregate == "sum"

    def test_sum_mode_rejects_negative(self, rng):
        protocol = CountSketchReset(bins=8, bits=16, value_as_identifiers=True)
        with pytest.raises(ValueError):
            protocol.create_state(0, -1.0, rng)

    def test_begin_round_increments_counters(self, rng):
        protocol = CountSketchReset(bins=4, bits=8)
        state = protocol.create_state(0, 1.0, rng)
        owned = next(iter(state.matrix.owned))
        protocol.begin_round(state, 0, rng)
        assert state.matrix.counters[owned] == 0

    def test_exchange_is_symmetric_min(self, rng):
        protocol = CountSketchReset(bins=4, bits=8)
        a = protocol.create_state(0, 1.0, rng)
        b = protocol.create_state(1, 1.0, rng)
        protocol.begin_round(a, 0, rng)
        protocol.begin_round(b, 0, rng)
        protocol.exchange(a, b, rng)
        owned_a = next(iter(a.matrix.owned))
        owned_b = next(iter(b.matrix.owned))
        assert b.matrix.counters[owned_a] == 0
        assert a.matrix.counters[owned_b] == 0

    def test_no_peers_produces_no_payloads(self, rng):
        protocol = CountSketchReset(bins=4, bits=8)
        state = protocol.create_state(0, 1.0, rng)
        assert protocol.make_payloads(state, [], rng) == []

    def test_identifiers_per_host_validation(self):
        with pytest.raises(ValueError):
            CountSketchReset(identifiers_per_host=0)

    def test_describe_mentions_cutoff(self):
        assert "cutoff" in CountSketchReset().describe()


class TestCountSketchResetIntegration:
    def _run(self, protocol, n, rounds, events=None):
        sim = Simulation(
            protocol,
            UniformEnvironment(n),
            [1.0] * n,
            seed=9,
            mode="exchange",
            events=events or [],
        )
        return sim.run(rounds)

    def test_estimates_population(self):
        result = self._run(CountSketchReset(bins=32, bits=18), 300, 15)
        assert 0.5 * 300 < result.mean_estimate() < 2.0 * 300

    def test_recovers_after_failure(self):
        events = [FailureEvent(round=12, model=UncorrelatedFailure(0.5))]
        result = self._run(CountSketchReset(bins=16, bits=18), 200, 40, events)
        final = result.mean_estimate()
        before = result.rounds[11].mean_estimate
        assert final < 0.75 * before

    def test_no_decay_variant_does_not_recover(self):
        events = [FailureEvent(round=12, model=UncorrelatedFailure(0.5))]
        result = self._run(
            CountSketchReset(bins=16, bits=18, cutoff=no_decay_cutoff), 200, 40, events
        )
        final = result.mean_estimate()
        before = result.rounds[11].mean_estimate
        assert final >= before * 0.95


class TestInvertAverage:
    def test_state_contains_both_halves(self, rng):
        protocol = InvertAverage(0.01, bins=8, bits=12)
        state = protocol.create_state(0, 5.0, rng)
        assert state.count_state.own_identifiers == 1
        assert state.average_state.initial_value == 5.0

    def test_estimate_is_product_of_halves(self, rng):
        protocol = InvertAverage(0.01, bins=8, bits=12)
        state = protocol.create_state(0, 5.0, rng)
        assert protocol.estimate(state) == pytest.approx(
            protocol.counter.estimate(state.count_state)
            * protocol.averager.estimate(state.average_state)
        )

    def test_sum_estimate_on_uniform_network(self):
        n = 200
        values = uniform_values(n, seed=4)
        sim = Simulation(
            InvertAverage(0.01, bins=32, bits=18),
            UniformEnvironment(n),
            values,
            seed=4,
            mode="exchange",
        )
        result = sim.run(20)
        truth = sum(values)
        assert 0.5 * truth < result.mean_estimate() < 2.0 * truth

    def test_push_mode_payloads_carry_both_parts(self, rng):
        protocol = InvertAverage(0.01, bins=4, bits=8)
        state = protocol.create_state(0, 5.0, rng)
        payloads = protocol.make_payloads(state, [3], rng)
        destinations = {dest for dest, _ in payloads}
        assert destinations == {None, 3}
        for dest, (count_part, average_part) in payloads:
            if dest == 3:
                assert count_part is not None
            assert average_part is not None

    def test_rebase_updates_average_half(self, rng):
        protocol = InvertAverage(0.01, bins=4, bits=8)
        state = protocol.create_state(0, 5.0, rng)
        protocol.rebase(state, 9.0)
        assert state.average_state.initial_value == 9.0

    def test_exchange_size_combines_both_halves(self, rng):
        protocol = InvertAverage(0.01, bins=4, bits=8)
        a = protocol.create_state(0, 5.0, rng)
        b = protocol.create_state(1, 7.0, rng)
        assert protocol.exchange_size(a, b) > 16

    def test_tracks_sum_after_failure(self):
        n = 200
        values = uniform_values(n, seed=4)
        events = [FailureEvent(round=12, model=UncorrelatedFailure(0.5))]
        sim = Simulation(
            InvertAverage(0.05, bins=16, bits=18),
            UniformEnvironment(n),
            values,
            seed=4,
            mode="exchange",
            events=events,
        )
        result = sim.run(45)
        before = result.rounds[11].mean_estimate
        after = result.mean_estimate()
        assert after < 0.8 * before

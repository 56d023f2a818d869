"""Tests for the agent-based simulation engine and its result records."""

import numpy as np
import pytest

from repro.baselines import PushSum, SketchCount
from repro.core import CountSketchReset, PushSumRevert
from repro.environments import NeighborhoodEnvironment, UniformEnvironment
from repro.failures import CorrelatedFailure, FailureEvent, JoinEvent, UncorrelatedFailure
from repro.simulator import Simulation
from repro.simulator.host import Host
from repro.simulator.result import RoundRecord, SimulationResult
from repro.workloads import uniform_values


class TestHost:
    def test_fail_marks_round(self):
        host = Host(host_id=0, value=1.0)
        host.fail(7)
        assert not host.alive
        assert host.failed_round == 7

    def test_fail_twice_keeps_first_round(self):
        host = Host(host_id=0, value=1.0)
        host.fail(3)
        host.fail(9)
        assert host.failed_round == 3


class TestSimulationBasics:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            Simulation(PushSum(), UniformEnvironment(4), [1.0] * 4, mode="broadcast")

    def test_exchange_mode_requires_exchange_protocol(self):
        from repro.core import FullTransferPushSumRevert

        with pytest.raises(TypeError):
            Simulation(
                FullTransferPushSumRevert(0.1),
                UniformEnvironment(4),
                [1.0] * 4,
                mode="exchange",
            )

    def test_group_relative_requires_group_environment(self):
        with pytest.raises(ValueError):
            Simulation(
                PushSum(), UniformEnvironment(4), [1.0] * 4, group_relative=True
            )

    def test_initial_population(self):
        sim = Simulation(PushSum(), UniformEnvironment(5), [1.0, 2.0, 3.0, 4.0, 5.0])
        assert len(sim.hosts) == 5
        assert sim.alive_ids() == [0, 1, 2, 3, 4]

    def test_truth_average(self):
        sim = Simulation(PushSum(), UniformEnvironment(4), [1.0, 2.0, 3.0, 6.0])
        assert sim._truth_for(sim.alive_ids()) == pytest.approx(3.0)

    def test_truth_count_and_sum(self):
        count_sim = Simulation(
            CountSketchReset(bins=4, bits=8), UniformEnvironment(4), [1.0] * 4
        )
        assert count_sim._truth_for(count_sim.alive_ids()) == 4.0
        sum_sim = Simulation(
            CountSketchReset(bins=4, bits=8, value_as_identifiers=True),
            UniformEnvironment(3),
            [2.0, 3.0, 5.0],
        )
        assert sum_sim._truth_for(sum_sim.alive_ids()) == 10.0

    def test_add_and_fail_host(self):
        sim = Simulation(PushSum(), UniformEnvironment(3), [1.0, 2.0, 3.0])
        new_host = sim.add_host(9.0)
        assert new_host.host_id == 3
        assert 3 in sim.alive_ids()
        sim.fail_host(1)
        assert 1 not in sim.alive_ids()


class TestSimulationRuns:
    def test_push_sum_converges_on_uniform_environment(self, medium_values):
        sim = Simulation(
            PushSum(), UniformEnvironment(len(medium_values)), medium_values, seed=3, mode="push"
        )
        result = sim.run(30)
        truth = sum(medium_values) / len(medium_values)
        assert result.final_truth() == pytest.approx(truth)
        assert result.final_error() < 0.5

    def test_push_sum_exchange_converges(self, medium_values):
        sim = Simulation(
            PushSum(),
            UniformEnvironment(len(medium_values)),
            medium_values,
            seed=3,
            mode="exchange",
        )
        result = sim.run(30)
        assert result.final_error() < 0.5

    def test_same_seed_reproduces_run(self, small_values):
        def run_once():
            sim = Simulation(
                PushSumRevert(0.01),
                UniformEnvironment(len(small_values)),
                small_values,
                seed=11,
                mode="exchange",
            )
            return sim.run(15).errors()

        assert run_once() == run_once()

    def test_different_seeds_differ(self, small_values):
        def run_with(seed):
            sim = Simulation(
                PushSum(),
                UniformEnvironment(len(small_values)),
                small_values,
                seed=seed,
                mode="push",
            )
            return sim.run(5).errors()

        assert run_with(1) != run_with(2)

    def test_failure_event_reduces_population(self, medium_values):
        events = [FailureEvent(round=5, model=UncorrelatedFailure(0.5))]
        sim = Simulation(
            PushSum(),
            UniformEnvironment(len(medium_values)),
            medium_values,
            seed=3,
            mode="push",
            events=events,
        )
        result = sim.run(10)
        assert result.rounds[4].n_alive == len(medium_values)
        assert result.rounds[5].n_alive == len(medium_values) // 2

    def test_correlated_failure_changes_truth(self, medium_values):
        events = [FailureEvent(round=5, model=CorrelatedFailure(0.5, highest=True))]
        sim = Simulation(
            PushSum(),
            UniformEnvironment(len(medium_values)),
            medium_values,
            seed=3,
            mode="push",
            events=events,
        )
        result = sim.run(10)
        assert result.rounds[5].truth < result.rounds[4].truth

    def test_join_event_grows_population(self, small_values):
        events = [JoinEvent(round=3, count=5)]
        sim = Simulation(
            PushSum(),
            UniformEnvironment(len(small_values)),
            small_values,
            seed=3,
            mode="push",
            events=events,
        )
        result = sim.run(6)
        assert result.rounds[2].n_alive == len(small_values)
        assert result.rounds[3].n_alive == len(small_values) + 5

    def test_bandwidth_recorded_for_push_mode(self, small_values):
        sim = Simulation(
            PushSum(), UniformEnvironment(len(small_values)), small_values, seed=3, mode="push"
        )
        result = sim.run(3)
        assert all(record.bytes_sent > 0 for record in result.rounds)

    def test_bandwidth_recorded_for_exchange_mode(self, small_values):
        sim = Simulation(
            PushSum(),
            UniformEnvironment(len(small_values)),
            small_values,
            seed=3,
            mode="exchange",
        )
        result = sim.run(3)
        assert all(record.bytes_sent > 0 for record in result.rounds)

    def test_store_estimates_keeps_per_host_values(self, small_values):
        sim = Simulation(
            PushSum(),
            UniformEnvironment(len(small_values)),
            small_values,
            seed=3,
            mode="push",
            store_estimates=True,
        )
        result = sim.run(2)
        assert set(result.rounds[0].estimates) == set(range(len(small_values)))

    def test_group_relative_metrics_on_neighborhood(self):
        # Two disconnected cliques with very different values: the
        # group-relative error should be small once each clique converges,
        # even though the two groups have different true averages.
        adjacency = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: {4, 5}, 4: {3, 5}, 5: {3, 4}}
        values = [10.0, 10.0, 10.0, 90.0, 90.0, 90.0]
        sim = Simulation(
            PushSum(),
            NeighborhoodEnvironment(adjacency),
            values,
            seed=3,
            mode="exchange",
            group_relative=True,
        )
        result = sim.run(20)
        assert result.final_error() < 1.0
        assert result.rounds[-1].group_sizes == pytest.approx(3.0)

    def test_sketch_count_never_decreases_after_failure(self):
        n = 60
        events = [FailureEvent(round=10, model=UncorrelatedFailure(0.5))]
        sim = Simulation(
            SketchCount(bins=8, bits=16),
            UniformEnvironment(n),
            [1.0] * n,
            seed=5,
            mode="exchange",
            events=events,
        )
        result = sim.run(20)
        before = result.rounds[9].mean_estimate
        after = result.rounds[-1].mean_estimate
        assert after >= before - 1e-9  # static sketches cannot forget

    def test_count_sketch_reset_recovers_after_failure(self):
        n = 60
        events = [FailureEvent(round=12, model=UncorrelatedFailure(0.5))]
        sim = Simulation(
            CountSketchReset(bins=8, bits=16),
            UniformEnvironment(n),
            [1.0] * n,
            seed=5,
            mode="exchange",
            events=events,
        )
        result = sim.run(35)
        before = result.rounds[11].mean_estimate
        after = result.rounds[-1].mean_estimate
        # the estimate must shrink substantially towards the surviving half
        assert after < before * 0.75


class TestSimulationResult:
    def _result_with_errors(self, errors):
        result = SimulationResult(protocol_name="x", aggregate="average", seed=0)
        for index, error in enumerate(errors):
            result.append(
                RoundRecord(
                    round_index=index,
                    truth=10.0,
                    n_alive=5,
                    mean_estimate=10.0,
                    stddev_error=error,
                    max_abs_error=error,
                    mean_abs_error=error,
                )
            )
        return result

    def test_series_accessors(self):
        result = self._result_with_errors([3.0, 2.0, 1.0])
        assert result.errors() == [3.0, 2.0, 1.0]
        assert result.round_indices() == [0, 1, 2]
        assert result.truths() == [10.0, 10.0, 10.0]
        assert result.final_error() == 1.0

    def test_convergence_round(self):
        result = self._result_with_errors([5.0, 3.0, 0.5, 0.4, 0.6, 0.3])
        assert result.convergence_round(1.0) == 2
        assert result.convergence_round(1.0, sustained=2) == 2
        assert result.convergence_round(0.45, sustained=2) is None

    def test_convergence_round_relative(self):
        result = self._result_with_errors([5.0, 0.9, 0.9])
        assert result.convergence_round(0.1, relative=True) == 1

    def test_plateau_error(self):
        result = self._result_with_errors([9.0, 1.0, 1.0, 1.0])
        assert result.plateau_error(tail=3) == pytest.approx(1.0)

    def test_error_at_missing_round_raises(self):
        result = self._result_with_errors([1.0])
        with pytest.raises(KeyError):
            result.error_at(10)

    def test_empty_result_raises(self):
        result = SimulationResult(protocol_name="x", aggregate="average", seed=0)
        with pytest.raises(ValueError):
            result.final_record()

    def test_as_dict_round_trip_fields(self):
        result = self._result_with_errors([1.0, 2.0])
        payload = result.as_dict()
        assert payload["protocol"] == "x"
        assert len(payload["rounds"]) == 2
        assert payload["rounds"][1]["stddev_error"] == 2.0

"""Tests for failure models, scheduled events, value distributions and scenarios."""

import numpy as np
import pytest

from repro.baselines import PushSum
from repro.environments import UniformEnvironment
from repro.failures import (
    BernoulliChurn,
    ChurnProcess,
    CorrelatedFailure,
    ExplicitFailure,
    FailureEvent,
    JoinEvent,
    UncorrelatedFailure,
    ValueChangeEvent,
)
from repro.simulator import Simulation
from repro.workloads import (
    Scenario,
    clustered_values,
    constant_values,
    correlated_failure_scenario,
    counting_failure_scenario,
    normal_values,
    trace_scenario,
    uncorrelated_failure_scenario,
    uniform_values,
    zipf_values,
)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestFailureModels:
    def test_uncorrelated_fraction(self, rng):
        model = UncorrelatedFailure(0.5)
        values = {i: float(i) for i in range(100)}
        failed = model.select(list(range(100)), values, rng)
        assert len(failed) == 50
        assert len(set(failed)) == 50

    def test_uncorrelated_zero_fraction(self, rng):
        assert UncorrelatedFailure(0.0).select([1, 2, 3], {1: 1.0, 2: 2.0, 3: 3.0}, rng) == []

    def test_uncorrelated_validates_fraction(self):
        with pytest.raises(ValueError):
            UncorrelatedFailure(1.5)

    def test_correlated_highest(self, rng):
        model = CorrelatedFailure(0.5, highest=True)
        values = {i: float(i) for i in range(10)}
        failed = model.select(list(range(10)), values, rng)
        assert sorted(failed) == [5, 6, 7, 8, 9]

    def test_correlated_lowest(self, rng):
        model = CorrelatedFailure(0.3, highest=False)
        values = {i: float(i) for i in range(10)}
        failed = model.select(list(range(10)), values, rng)
        assert sorted(failed) == [0, 1, 2]

    def test_explicit_failure_filters_dead_hosts(self, rng):
        model = ExplicitFailure([1, 5, 99])
        failed = model.select([1, 2, 3, 5], {1: 0, 2: 0, 3: 0, 5: 0}, rng)
        assert failed == [1, 5]

    def test_bernoulli_churn_rate(self, rng):
        model = BernoulliChurn(0.3)
        values = {i: 0.0 for i in range(2000)}
        failed = model.select(list(range(2000)), values, rng)
        assert 0.2 * 2000 < len(failed) < 0.4 * 2000

    def test_bernoulli_zero_probability(self, rng):
        assert BernoulliChurn(0.0).select([1, 2], {1: 0.0, 2: 0.0}, rng) == []

    def test_describe_contains_parameters(self):
        assert UncorrelatedFailure(0.25).describe()["fraction"] == 0.25
        assert CorrelatedFailure(0.5).describe()["highest"] is True
        assert BernoulliChurn(0.1).describe()["p"] == 0.1


class TestScheduledEvents:
    def _simulation(self, n=20, events=None):
        return Simulation(
            PushSum(),
            UniformEnvironment(n),
            uniform_values(n, seed=1),
            seed=1,
            mode="push",
            events=events or [],
        )

    def test_failure_event_applies_at_round(self):
        sim = self._simulation(events=[FailureEvent(round=2, model=UncorrelatedFailure(0.5))])
        sim.run(2)
        assert len(sim.alive_ids()) == 20
        sim.run(1)
        assert len(sim.alive_ids()) == 10

    def test_join_event_uses_value_factory(self):
        event = JoinEvent(round=1, count=3, value_factory=lambda rng: 42.0)
        sim = self._simulation(events=[event])
        sim.run(2)
        new_hosts = [h for h in sim.hosts.values() if h.joined_round == 1]
        assert len(new_hosts) == 3
        assert all(h.value == 42.0 for h in new_hosts)

    def test_value_change_event_updates_value_and_state(self):
        event = ValueChangeEvent(round=1, new_values={0: 99.0})
        sim = self._simulation(events=[event])
        sim.run(2)
        assert sim.hosts[0].value == 99.0
        assert sim.hosts[0].state.initial_value == 99.0

    def test_value_change_event_ignores_unknown_hosts(self):
        event = ValueChangeEvent(round=1, new_values={999: 1.0})
        sim = self._simulation(events=[event])
        sim.run(2)  # must not raise

    def test_churn_process_expands_to_events(self):
        process = ChurnProcess(start=2, stop=5, model=BernoulliChurn(0.1), arrivals_per_round=1)
        events = process.events()
        rounds = sorted(event.round for event in events)
        assert rounds == [2, 2, 3, 3, 4, 4]

    def test_event_describe(self):
        assert FailureEvent(round=3, model=UncorrelatedFailure(0.5)).describe()["round"] == 3
        assert JoinEvent(round=4, count=2).describe()["count"] == 2
        assert ValueChangeEvent(round=5, new_values={1: 2.0}).describe()["count"] == 1


class TestValueDistributions:
    def test_uniform_range_and_reproducibility(self):
        values = uniform_values(500, seed=9)
        assert len(values) == 500
        assert all(0.0 <= v < 100.0 for v in values)
        assert values == uniform_values(500, seed=9)

    def test_uniform_validates_bounds(self):
        with pytest.raises(ValueError):
            uniform_values(10, low=5.0, high=1.0)
        with pytest.raises(ValueError):
            uniform_values(-1)

    def test_constant_values(self):
        assert constant_values(4, 2.5) == [2.5, 2.5, 2.5, 2.5]
        assert constant_values(0) == []

    def test_normal_values(self):
        values = normal_values(2000, mean=10.0, std=2.0, seed=1)
        assert abs(np.mean(values) - 10.0) < 0.5
        with pytest.raises(ValueError):
            normal_values(10, std=-1.0)

    def test_zipf_values_positive_and_heavy_tailed(self):
        values = zipf_values(2000, exponent=1.8, seed=1)
        assert min(values) >= 1.0
        assert max(values) > 10 * np.median(values)
        with pytest.raises(ValueError):
            zipf_values(10, exponent=1.0)

    def test_clustered_values(self):
        values = clustered_values(3000, cluster_means=(0.0, 100.0), std=1.0, seed=1)
        below = sum(1 for v in values if v < 50.0)
        assert 0.4 * 3000 < below < 0.6 * 3000
        with pytest.raises(ValueError):
            clustered_values(10, cluster_means=())


#: Each registered workload as the per-element ``float(...)`` loop it was
#: written as before the generators switched to ``ndarray.tolist()``.
LOOP_WORKLOADS = {
    "uniform": lambda rng, n: [float(v) for v in rng.uniform(0.0, 100.0, size=n)],
    "constant": lambda rng, n: [1.0] * n,
    "normal": lambda rng, n: [float(v) for v in rng.normal(50.0, 15.0, size=n)],
    "zipf": lambda rng, n: [float(v) * 1.0 for v in rng.zipf(1.5, size=n)],
    "clustered": lambda rng, n: [
        float(v)
        for v in rng.normal(np.asarray((10.0, 50.0, 90.0))[rng.integers(0, 3, size=n)], 5.0)
    ],
}


class TestWorkloadsAreTheSamePythonFloats:
    def test_every_registered_workload_has_a_reference(self):
        from repro.api import WORKLOADS

        assert set(LOOP_WORKLOADS) == set(WORKLOADS.keys())

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("name", sorted(LOOP_WORKLOADS))
    def test_tolist_equals_the_float_loop(self, name, seed):
        from repro.api import WORKLOADS

        values = WORKLOADS.create(name, 257, seed=seed)  # one float64 array
        assert values.dtype == np.float64
        # What the agent engines take (``ScenarioSpec.build_values().tolist()``).
        assert values.tolist() == LOOP_WORKLOADS[name](np.random.default_rng(seed), 257)

    def test_zipf_scale_and_clamp_keep_their_arithmetic(self):
        from repro.api import WORKLOADS

        draws = np.random.default_rng(5).zipf(1.1, size=300)
        assert (draws > 2**53).any()  # where int64 -> float has to round
        assert zipf_values(300, 1.1, 0.37, seed=5) == [float(v) * 0.37 for v in draws]
        clamped = WORKLOADS.create("zipf", 300, seed=5, exponent=1.1, clamp=40.0)
        assert clamped.dtype == np.float64
        assert clamped.tolist() == [min(40.0, float(v) * 1.0) for v in draws]


class TestScenarios:
    def test_uncorrelated_scenario_structure(self):
        scenario = uncorrelated_failure_scenario(100, failure_round=5, rounds=20)
        assert scenario.n_hosts == 100
        assert scenario.rounds == 20
        assert scenario.events[0].round == 5
        env = scenario.build_environment()
        assert env.n == 100
        assert "uncorrelated" in scenario.name

    def test_correlated_scenario_uses_highest_failure(self):
        scenario = correlated_failure_scenario(50)
        model = scenario.events[0].model
        assert model.highest is True

    def test_counting_scenario_constant_values(self):
        scenario = counting_failure_scenario(30)
        assert set(scenario.values) == {1.0}

    def test_failure_round_inside_horizon(self):
        # nothing enforces it at construction, but descriptions must exist
        scenario = uncorrelated_failure_scenario(10, failure_round=2, rounds=5)
        description = scenario.describe()
        assert description["n_hosts"] == 10
        assert description["events"][0]["event"] == "failure"

    def test_trace_scenario_matches_dataset_size(self):
        scenario = trace_scenario(dataset=1, max_rounds=100)
        assert scenario.n_hosts == 9
        assert scenario.group_relative is True
        assert scenario.rounds == 100
        env = scenario.build_environment()
        assert env.trace.n_devices == 9

    def test_trace_scenario_validates_value_count(self):
        with pytest.raises(ValueError):
            trace_scenario(dataset=1, values=[1.0, 2.0])

    def test_scenario_runs_end_to_end(self):
        scenario = uncorrelated_failure_scenario(40, failure_round=3, rounds=8)
        sim = Simulation(
            PushSum(),
            scenario.build_environment(),
            scenario.values,
            seed=2,
            mode=scenario.mode,
            events=scenario.events,
        )
        result = sim.run(scenario.rounds)
        assert len(result.rounds) == 8
        assert result.rounds[-1].n_alive == 20

"""Tests for failure models, scheduled events, value distributions and figure scenarios."""

import numpy as np
import pytest

from repro.api import run_scenario
from repro.baselines import PushSum
from repro.environments import UniformEnvironment
from repro.experiments import FIG8, FIG9, FIG10, FIG11
from repro.experiments.fig8_uncorrelated import failure_of
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
    clustered_array,
    constant_array,
    normal_array,
    uniform_array,
    uniform_values,
    zipf_array,
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

    def test_constant_array(self):
        assert constant_array(4, 2.5).tolist() == [2.5, 2.5, 2.5, 2.5]
        assert constant_array(0).tolist() == []

    def test_normal_array(self):
        values = normal_array(2000, mean=10.0, std=2.0, seed=1)
        assert abs(np.mean(values) - 10.0) < 0.5
        with pytest.raises(ValueError):
            normal_array(10, std=-1.0)

    def test_zipf_array_positive_and_heavy_tailed(self):
        values = zipf_array(2000, exponent=1.8, seed=1)
        assert values.min() >= 1.0
        assert values.max() > 10 * np.median(values)
        with pytest.raises(ValueError):
            zipf_array(10, exponent=1.0)

    def test_clustered_array(self):
        values = clustered_array(3000, cluster_means=(0.0, 100.0), std=1.0, seed=1)
        below = int((values < 50.0).sum())
        assert 0.4 * 3000 < below < 0.6 * 3000
        with pytest.raises(ValueError):
            clustered_array(10, cluster_means=())
        with pytest.raises(ValueError):
            clustered_array(10, std=-1.0)

    @pytest.mark.parametrize(
        "generator", [uniform_array, constant_array, normal_array, zipf_array, clustered_array]
    )
    def test_negative_count_rejected(self, generator):
        with pytest.raises(ValueError, match="non-negative"):
            generator(-1)

    @pytest.mark.parametrize("generator", [uniform_array, normal_array, zipf_array, clustered_array])
    def test_seeded_draws_are_reproducible(self, generator):
        first = generator(200, seed=4)
        assert first.dtype == np.float64 and first.shape == (200,)
        assert np.array_equal(first, generator(200, seed=4))
        assert not np.array_equal(first, generator(200, seed=5))

    def test_zero_std_collapses_to_the_means(self):
        assert normal_array(5, mean=3.0, std=0.0, seed=1).tolist() == [3.0] * 5
        values = clustered_array(50, cluster_means=(1.0, 7.0), std=0.0, seed=1)
        assert set(values.tolist()) == {1.0, 7.0}

    def test_uniform_values_is_the_array_as_a_list(self):
        assert uniform_values(64, 2.0, 3.0, seed=8) == uniform_array(64, 2.0, 3.0, seed=8).tolist()
        assert uniform_array(3, 5.0, 5.0, seed=0).tolist() == [5.0, 5.0, 5.0]


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
        assert zipf_array(300, 1.1, 0.37, seed=5).tolist() == [float(v) * 0.37 for v in draws]
        clamped = WORKLOADS.create("zipf", 300, seed=5, exponent=1.1, clamp=40.0)
        assert clamped.dtype == np.float64
        assert clamped.tolist() == [min(40.0, float(v) * 1.0) for v in draws]


class TestScenarios:
    """The figure scenarios, as the ``FIGn`` specs of :mod:`repro.experiments`."""

    def test_uncorrelated_scenario_structure(self):
        assert "uncorrelated" in FIG8.name
        assert (FIG8.n_hosts, FIG8.rounds) == (5000, 60)
        (event,) = FIG8.build_events()
        assert event.round == 20
        assert isinstance(event.model, UncorrelatedFailure)
        assert FIG8.replace(n_hosts=100).build_environment().n == 100

    def test_correlated_scenario_uses_highest_failure(self):
        (event,) = FIG10.build_events()
        assert isinstance(event.model, CorrelatedFailure)
        assert event.model.highest is True

    def test_counting_scenario_constant_values(self):
        assert set(FIG9.replace(n_hosts=30).build_values().tolist()) == {1.0}

    @pytest.mark.parametrize("spec", [FIG8, FIG9, FIG10], ids=lambda spec: spec.name)
    def test_failure_round_inside_horizon(self, spec):
        failure_round, fraction = failure_of(spec)
        assert 0 < failure_round < spec.rounds
        assert fraction == 0.5
        assert spec.to_dict()["events"][0]["event"] == "failure"

    def test_trace_scenario_matches_dataset_size(self):
        assert FIG11.n_hosts == 9
        assert FIG11.group_relative is True
        assert FIG11.build_environment().trace.n_devices == 9

    def test_trace_scenario_validates_value_count(self):
        with pytest.raises(ValueError, match="9 devices"):
            FIG11.replace(n_hosts=2).build_environment()

    def test_scenario_runs_end_to_end(self):
        spec = FIG8.replace(
            protocol="push-sum",
            protocol_params={},
            n_hosts=40,
            rounds=8,
            events=({**FIG8.events[0], "round": 3},),
            backend="agent",
        )
        result = run_scenario(spec)
        assert len(result.rounds) == 8
        assert result.rounds[-1].n_alive == 20

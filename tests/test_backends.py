"""Equivalence and error-path tests for the execution backends.

Every (protocol, mode, failure, workload) combination the vectorised
backend claims to support is run on both backends over many seeds at a
small population; the estimate distributions must agree within tolerance.
Unsupported combinations must be rejected eagerly — at spec construction —
with an actionable message.
"""

import math

import numpy as np
import pytest

from repro.api import BACKENDS, ScenarioSpec, run_scenario
from repro.api.backends import VectorizedBackend
from repro.api.plan import vectorized_rejections
from repro.api.sweep import Sweep, SweepRunner
from repro.simulator.kernels import KERNELS
from repro.simulator.push_sum_kernel import VectorizedPushSumRevert

N_HOSTS = 64
SEEDS = tuple(range(8))

#: One entry per supported combination: (id, spec kwargs, relative bias
#: tolerance).  ``scale`` for the bias is the seed-averaged truth.
SUPPORTED_COMBOS = [
    (
        "push-sum-revert/exchange",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             n_hosts=N_HOSTS, rounds=30),
        0.10,
    ),
    (
        "push-sum-revert/push",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             mode="push", n_hosts=N_HOSTS, rounds=30),
        0.10,
    ),
    (
        "push-sum-revert/adaptive-push",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05, "adaptive": True},
             mode="push", n_hosts=N_HOSTS, rounds=30),
        0.10,
    ),
    (
        "push-sum/push",
        dict(protocol="push-sum", mode="push", n_hosts=N_HOSTS, rounds=30),
        0.10,
    ),
    (
        "push-sum/exchange",
        dict(protocol="push-sum", mode="exchange", n_hosts=N_HOSTS, rounds=30),
        0.10,
    ),
    (
        "full-transfer/push",
        dict(protocol="push-sum-revert-full-transfer",
             protocol_params={"reversion": 0.1, "parcels": 4, "history": 3},
             mode="push", n_hosts=N_HOSTS, rounds=30),
        0.10,
    ),
    (
        "count-sketch-reset/exchange",
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 32, "bits": 16, "cutoff": "default"},
             workload="constant", n_hosts=N_HOSTS, rounds=20),
        0.30,
    ),
    (
        "count-sketch-reset/push",
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 32, "bits": 16, "cutoff": "default"},
             workload="constant", mode="push", n_hosts=N_HOSTS, rounds=20),
        0.30,
    ),
    (
        "sketch-count/exchange",
        dict(protocol="sketch-count", protocol_params={"bins": 32, "bits": 16},
             workload="constant", n_hosts=N_HOSTS, rounds=20),
        0.30,
    ),
    (
        "extrema-gossip/exchange",
        dict(protocol="extrema-gossip", n_hosts=N_HOSTS, rounds=20),
        0.05,
    ),
    (
        "extrema-reset/exchange",
        dict(protocol="extrema-reset", protocol_params={"cutoff": 12},
             n_hosts=N_HOSTS, rounds=20),
        0.05,
    ),
    (
        "push-sum-revert+uncorrelated-failure",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.1},
             n_hosts=N_HOSTS, rounds=40,
             events=({"event": "failure", "round": 20, "model": "uncorrelated",
                      "fraction": 0.5},)),
        0.12,
    ),
    (
        "push-sum-revert+correlated-failure",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.3},
             n_hosts=N_HOSTS, rounds=50,
             events=({"event": "failure", "round": 20, "model": "correlated",
                      "fraction": 0.5, "highest": True},)),
        0.25,
    ),
    (
        "push-sum-revert+explicit-failure",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.1},
             n_hosts=N_HOSTS, rounds=40,
             events=({"event": "failure", "round": 10, "model": "explicit",
                      "host_ids": [0, 1, 2, 3]},)),
        0.10,
    ),
    (
        "push-sum-revert+value-change",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.3},
             n_hosts=N_HOSTS, rounds=50,
             events=({"event": "value-change", "round": 10,
                      "values": {"0": 500.0, "1": 500.0}},)),
        0.20,
    ),
    # The failure combos keep bins=16: with only 32 survivors, 32 bins would
    # put the sketch deep into its small-count bias regime (both backends
    # overestimate identically there, but the truth-tracking check below
    # would need a vacuously wide tolerance).
    (
        "count-sketch-reset+uncorrelated-failure",
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 16, "bits": 16, "cutoff": "default"},
             workload="constant", n_hosts=N_HOSTS, rounds=40,
             events=({"event": "failure", "round": 20, "model": "uncorrelated",
                      "fraction": 0.5},)),
        0.40,
    ),
    (
        "count-sketch-reset+correlated-failure",
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 16, "bits": 16, "cutoff": "default"},
             n_hosts=N_HOSTS, rounds=40,
             events=({"event": "failure", "round": 20, "model": "correlated",
                      "fraction": 0.5, "highest": True},)),
        0.40,
    ),
    (
        "extrema-reset+correlated-failure",
        dict(protocol="extrema-reset", protocol_params={"cutoff": 10},
             n_hosts=N_HOSTS, rounds=50,
             events=({"event": "failure", "round": 15, "model": "correlated",
                      "fraction": 0.5, "highest": True},)),
        0.15,
    ),
    # ---- topology-restricted combos (the sparse-adjacency kernels) ------
    # Graph gossip mixes slower than uniform gossip, so plateau errors are
    # larger on both backends; tolerances reflect the topology, not the
    # kernel.  Extrema cutoffs must exceed the graph's hop diameter or the
    # advertisement legitimately ages out (on both backends, at slightly
    # different rates — the kernel's matching moves information at most
    # one hop per round while the agent's sequential exchanges can chain).
    (
        "push-sum-revert/ring",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             environment="ring", n_hosts=N_HOSTS, rounds=40),
        0.10,
    ),
    (
        "push-sum-revert/grid-push",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             environment="grid", mode="push", n_hosts=N_HOSTS, rounds=40),
        0.10,
    ),
    (
        "push-sum-revert/random-geometric",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             environment="random-geometric", environment_params={"radius": 0.35},
             n_hosts=N_HOSTS, rounds=40),
        0.10,
    ),
    (
        "push-sum-revert/erdos-renyi",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             environment="erdos-renyi", environment_params={"p": 0.15},
             n_hosts=N_HOSTS, rounds=40),
        0.10,
    ),
    (
        "push-sum-revert/spatial-grid",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             environment="spatial-grid", n_hosts=N_HOSTS, rounds=40),
        0.10,
    ),
    (
        "push-sum-revert/grid+uncorrelated-failure",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.1},
             environment="grid", n_hosts=N_HOSTS, rounds=50,
             events=({"event": "failure", "round": 20, "model": "uncorrelated",
                      "fraction": 0.3},)),
        0.15,
    ),
    (
        "push-sum-revert/spatial-grid+correlated-failure",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.3},
             environment="spatial-grid", n_hosts=N_HOSTS, rounds=50,
             events=({"event": "failure", "round": 20, "model": "correlated",
                      "fraction": 0.3, "highest": True},)),
        0.25,
    ),
    (
        "push-sum-revert/grid+value-change",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.3},
             environment="grid", n_hosts=N_HOSTS, rounds=50,
             events=({"event": "value-change", "round": 10,
                      "values": {"0": 500.0, "1": 500.0}},)),
        0.20,
    ),
    (
        "count-sketch-reset/grid",
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 32, "bits": 16, "cutoff": "default"},
             workload="constant", environment="grid", n_hosts=N_HOSTS, rounds=25),
        0.35,
    ),
    (
        "count-sketch-reset/ring-push",
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 32, "bits": 16, "cutoff": "default"},
             workload="constant", environment="ring", mode="push",
             n_hosts=N_HOSTS, rounds=25),
        0.35,
    ),
    (
        "sketch-count/ring",
        dict(protocol="sketch-count", protocol_params={"bins": 32, "bits": 16},
             workload="constant", environment="ring", n_hosts=N_HOSTS, rounds=25),
        0.30,
    ),
    (
        "sketch-count/erdos-renyi-push",
        dict(protocol="sketch-count", protocol_params={"bins": 32, "bits": 16},
             workload="constant", environment="erdos-renyi",
             environment_params={"p": 0.15}, mode="push",
             n_hosts=N_HOSTS, rounds=25),
        0.30,
    ),
    (
        "extrema-gossip/spatial-grid",
        dict(protocol="extrema-gossip", environment="spatial-grid",
             n_hosts=N_HOSTS, rounds=30),
        0.05,
    ),
    (
        "extrema-reset/grid",
        dict(protocol="extrema-reset", protocol_params={"cutoff": 40},
             environment="grid", n_hosts=N_HOSTS, rounds=50),
        0.06,
    ),
    # ---- every kernel family under loss, and under latency on rounds ----
    (
        "push-sum-revert/push+bernoulli-loss",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             mode="push", network="bernoulli-loss", network_params={"p": 0.2},
             n_hosts=N_HOSTS, rounds=30),
        0.10,
    ),
    (
        "count-sketch-reset/exchange+bernoulli-loss",
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 32, "bits": 16, "cutoff": "default"},
             workload="constant", network="bernoulli-loss", network_params={"p": 0.2},
             n_hosts=N_HOSTS, rounds=20),
        0.30,
    ),
    (
        "extrema-reset/exchange+bernoulli-loss",
        dict(protocol="extrema-reset", protocol_params={"cutoff": 12},
             network="bernoulli-loss", network_params={"p": 0.2},
             n_hosts=N_HOSTS, rounds=20),
        0.05,
    ),
    (
        "push-sum-revert/push+latency",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             mode="push", network="latency",
             network_params={"distribution": "uniform", "low": 0, "high": 2},
             n_hosts=N_HOSTS, rounds=30),
        0.10,
    ),
    (
        "push-sum/push+lognormal-latency",
        dict(protocol="push-sum", mode="push", network="latency",
             network_params={"distribution": "lognormal", "sigma": 1.0},
             n_hosts=N_HOSTS, rounds=30),
        0.10,
    ),
    (
        "count-sketch-reset/push+latency",
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 32, "bits": 16, "cutoff": "default"},
             workload="constant", mode="push", network="latency",
             network_params={"distribution": "uniform", "low": 0, "high": 2},
             n_hosts=N_HOSTS, rounds=20),
        0.30,
    ),
    # ---- dynamic membership combos (joins, churn, trace replay) ---------
    (
        "push-sum-revert+join",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.1},
             n_hosts=N_HOSTS, rounds=40,
             events=({"event": "join", "round": 10, "count": 16},)),
        0.12,
    ),
    (
        "push-sum-revert+churn",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.1},
             n_hosts=N_HOSTS, rounds=40,
             events=({"event": "churn", "start": 10, "stop": 25,
                      "model": "uncorrelated", "fraction": 0.02,
                      "arrivals_per_round": 2},)),
        0.12,
    ),
    (
        "push-sum-revert/ring+churn-failures-only",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.1},
             environment="ring", n_hosts=N_HOSTS, rounds=40,
             events=({"event": "churn", "start": 10, "stop": 20,
                      "model": "uncorrelated", "fraction": 0.01},)),
        0.15,
    ),
    (
        "count-sketch-reset+churn",
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 16, "bits": 16, "cutoff": "default"},
             workload="constant", n_hosts=N_HOSTS, rounds=40,
             events=({"event": "churn", "start": 10, "stop": 25,
                      "model": "uncorrelated", "fraction": 0.03,
                      "arrivals_per_round": 2},)),
        0.40,
    ),
    (
        "push-sum-revert/trace",
        dict(protocol="push-sum-revert", protocol_params={"reversion": 0.05},
             environment="trace", environment_params={"devices": 64, "hours": 2.0},
             n_hosts=N_HOSTS, rounds=60, group_relative=True),
        0.15,
    ),
]

COMBO_IDS = [combo_id for combo_id, _kwargs, _tol in SUPPORTED_COMBOS]


def _seed_summary(spec_kwargs, backend):
    """(mean final estimate, mean final error, mean truth) across SEEDS."""
    estimates, errors, truths = [], [], []
    for seed in SEEDS:
        spec = ScenarioSpec(seed=seed, backend=backend, **spec_kwargs)
        result = run_scenario(spec)
        assert result.metadata["backend"] == backend
        estimates.append(result.mean_estimate())
        errors.append(result.final_error())
        truths.append(result.final_truth())
    return float(np.mean(estimates)), float(np.mean(errors)), float(np.mean(truths))


class TestBackendEquivalence:
    """Agent and vectorised backends agree in distribution on every combo."""

    @pytest.mark.parametrize(
        "spec_kwargs, rel_tol",
        [(kwargs, tol) for _combo_id, kwargs, tol in SUPPORTED_COMBOS],
        ids=COMBO_IDS,
    )
    def test_estimate_distributions_agree(self, spec_kwargs, rel_tol):
        agent_mean, agent_error, agent_truth = _seed_summary(spec_kwargs, "agent")
        vector_mean, vector_error, vector_truth = _seed_summary(spec_kwargs, "vectorized")
        scale = max(abs(agent_truth), abs(vector_truth), 1.0)
        # The two engines see the same truth (uncorrelated failures remove
        # different random subsets, so allow the sampling wiggle there).
        assert vector_truth == pytest.approx(agent_truth, rel=0.25, abs=0.25 * scale)
        # Both estimate their truth within the combo's tolerance...
        assert abs(agent_mean - agent_truth) <= rel_tol * scale
        assert abs(vector_mean - vector_truth) <= rel_tol * scale
        # ...and the seed-averaged estimates agree with each other.
        assert abs(vector_mean - agent_mean) <= 2.0 * rel_tol * scale
        # Error magnitudes are comparable: neither engine may be wildly
        # noisier than the other on a supported combo.
        assert max(agent_error, vector_error) <= 6.0 * min(agent_error, vector_error) + 0.05 * scale

    @pytest.mark.parametrize("distribution", [
        {"distribution": "uniform", "low": 0, "high": 2},
        {"distribution": "lognormal", "sigma": 1.0},
    ], ids=["uniform", "lognormal"])
    def test_rounds_over_latency_keeps_as_much_in_flight(self, distribution):
        """A delay takes as many whole rounds on the kernel as on the agent round
        engine, so both hold as many messages in flight."""
        in_flight = {}
        for backend in ("agent", "vectorized"):
            in_flight[backend] = sum(
                record.messages_in_flight
                for seed in SEEDS
                for record in run_scenario(ScenarioSpec(
                    protocol="push-sum-revert", protocol_params={"reversion": 0.05},
                    mode="push", n_hosts=N_HOSTS, rounds=20, seed=seed, backend=backend,
                    network="latency", network_params=distribution,
                )).rounds
            )
        assert in_flight["vectorized"] == pytest.approx(in_flight["agent"], rel=0.05)

    def test_extrema_value_change_parity(self):
        """Dropping the current maximum holder's value must propagate on both
        backends: the stale maximum ages out and the network re-converges to
        the runner-up (the 'most popular song changed' scenario).  The
        cutoff must exceed the rumour-spreading time (~log2 n) or live
        values churn in and out; 12 >> log2(48)."""
        for seed in (0, 1, 2):
            base = ScenarioSpec(protocol="extrema-reset", protocol_params={"cutoff": 12},
                                n_hosts=48, rounds=55, seed=seed)
            top = int(np.argmax(base.build_values()))
            spec = base.replace(
                events=({"event": "value-change", "round": 8, "values": {str(top): 0.0}},)
            )
            agent = run_scenario(spec.replace(backend="agent"))
            vector = run_scenario(spec.replace(backend="vectorized"))
            # Truth drops to the runner-up identically on both backends...
            assert vector.final_truth() == pytest.approx(agent.final_truth())
            assert agent.final_truth() < base.replace(rounds=1).run().final_truth()
            # ...and both engines re-converge to it (the stale maximum ages
            # out instead of being refreshed by its originator forever).
            assert agent.plateau_error(10) <= 0.02 * agent.final_truth()
            assert vector.plateau_error(10) <= 0.02 * vector.final_truth()

    def test_value_change_skips_ids_outside_the_population_on_both_backends(self):
        # The agent event skips ids it has no host for; the kernel driver
        # must too (it used to raise mid-run).  Id 4 only exists after the
        # join, id 9 never does.
        spec = ScenarioSpec(
            protocol="push-sum-revert", n_hosts=4, rounds=7, seed=2,
            events=(
                {"event": "value-change", "round": 1, "values": {"4": 50.0, "9": 3.0}},
                {"event": "join", "round": 2, "count": 2},
                {"event": "value-change", "round": 4,
                 "values": {"0": 7.0, "4": 10.0, "5": 20.0, "9": 3.0}},
            ),
        )
        agent = run_scenario(spec.replace(backend="agent"))
        vector = run_scenario(spec.replace(backend="vectorized"))
        assert vector.alive_counts() == agent.alive_counts() == [4, 4, 6, 6, 6, 6, 6]
        # Joined hosts draw backend-specific values, so truths are comparable
        # before the join and again once round 4 has overwritten both.
        assert vector.truths()[:2] == agent.truths()[:2]
        assert vector.truths()[:2] == [np.mean(spec.build_values())] * 2
        assert vector.truths()[4:] == agent.truths()[4:]

    @pytest.mark.parametrize("kind", ["failure", "graceful-departure"])
    @pytest.mark.parametrize("highest", [True, False])
    @pytest.mark.parametrize("protocol", ["push-sum-revert", "count-sketch-reset"])
    def test_correlated_departures_break_ties_by_id_on_both_backends(
        self, protocol, highest, kind
    ):
        # Ten equal values: the agent's stable sort takes the lowest ids first
        # either way round, and the kernels must pick the same hosts.
        spec = ScenarioSpec(
            protocol=protocol, workload="constant", n_hosts=10, rounds=2, seed=1,
            store_estimates=True,
            events=({"event": kind, "round": 1, "model": "correlated", "fraction": 0.5,
                     "highest": highest},),
        )
        for backend in ("agent", "vectorized"):
            survivors = run_scenario(spec.replace(backend=backend)).rounds[-1].estimates
            assert sorted(survivors) == [5, 6, 7, 8, 9], backend

    def test_vectorized_deterministic(self):
        kwargs = SUPPORTED_COMBOS[0][1]
        first = run_scenario(ScenarioSpec(seed=5, backend="vectorized", **kwargs))
        second = run_scenario(ScenarioSpec(seed=5, backend="vectorized", **kwargs))
        assert first.errors() == second.errors()
        assert first.truths() == second.truths()

    @pytest.mark.parametrize(
        "environment", ["ring", "grid", "random-geometric", "erdos-renyi", "spatial-grid"]
    )
    def test_topology_kernels_bit_deterministic(self, environment):
        # Same seed, same spec => bit-identical series on every topology,
        # including after a mid-run failure (the live-CSR rebuild path).
        kwargs = dict(
            protocol="push-sum-revert", protocol_params={"reversion": 0.1},
            environment=environment, n_hosts=64, rounds=20,
            events=({"event": "failure", "round": 10, "model": "uncorrelated",
                     "fraction": 0.25},),
            backend="vectorized",
        )
        first = run_scenario(ScenarioSpec(seed=3, **kwargs))
        second = run_scenario(ScenarioSpec(seed=3, **kwargs))
        assert first.errors() == second.errors()
        assert first.truths() == second.truths()
        assert first.alive_counts() == second.alive_counts()

    def test_group_relative_vectorized_matches_agent_semantics(self):
        # After a 30% failure a ring can fragment; each host must be scored
        # against its own component's average, and the mean component size
        # must be recorded, on both backends.
        spec = ScenarioSpec(
            protocol="push-sum-revert", protocol_params={"reversion": 0.1},
            environment="ring", n_hosts=64, rounds=40, group_relative=True,
            events=({"event": "failure", "round": 15, "model": "uncorrelated",
                     "fraction": 0.3},),
        )
        assert spec.resolved_backend() == "vectorized"
        vector = run_scenario(spec.replace(backend="vectorized"))
        agent = run_scenario(spec.replace(backend="agent"))
        for result in (vector, agent):
            final = result.final_record()
            assert final.group_sizes is not None and final.group_sizes >= 1.0
            assert final.n_alive == 45  # round(0.7 * 64)
        # Both engines end up near their (group-relative) truth.
        assert vector.final_error() <= 0.25 * abs(vector.final_truth())
        assert agent.final_error() <= 0.25 * abs(agent.final_truth())

    def test_trace_replay_matches_agent_group_structure(self):
        # The compiled per-round CSR must replay *exactly* the adjacency and
        # group structure the agent environment answers: identical truths
        # and mean group sizes every single round.
        spec = ScenarioSpec(
            protocol="push-sum-revert", protocol_params={"reversion": 0.05},
            environment="trace", environment_params={"dataset": 1},
            n_hosts=9, rounds=300, group_relative=True, seed=4,
        )
        assert spec.resolved_backend() == "vectorized"
        vector = run_scenario(spec.replace(backend="vectorized"))
        agent = run_scenario(spec.replace(backend="agent"))
        assert vector.truths() == agent.truths()
        assert vector.group_size_series() == agent.group_size_series()
        assert vector.alive_counts() == agent.alive_counts()

    def test_trace_replay_bit_deterministic(self):
        kwargs = dict(
            protocol="push-sum-revert", protocol_params={"reversion": 0.05},
            environment="trace", environment_params={"devices": 32, "hours": 1.0},
            n_hosts=32, rounds=40, group_relative=True, backend="vectorized",
        )
        first = run_scenario(ScenarioSpec(seed=7, **kwargs))
        second = run_scenario(ScenarioSpec(seed=7, **kwargs))
        assert first.errors() == second.errors()
        assert first.truths() == second.truths()
        assert first.group_size_series() == second.group_size_series()

    def test_churn_bit_deterministic_with_joins(self):
        kwargs = dict(
            protocol="push-sum-revert", protocol_params={"reversion": 0.1},
            n_hosts=64, rounds=30, backend="vectorized",
            events=({"event": "churn", "start": 5, "stop": 20,
                     "model": "uncorrelated", "fraction": 0.03,
                     "arrivals_per_round": 2},),
        )
        first = run_scenario(ScenarioSpec(seed=9, **kwargs))
        second = run_scenario(ScenarioSpec(seed=9, **kwargs))
        assert first.errors() == second.errors()
        assert first.alive_counts() == second.alive_counts()

    def test_join_growth_visible_in_alive_counts(self):
        spec = ScenarioSpec(
            protocol="push-sum-revert", n_hosts=32, rounds=10,
            events=({"event": "join", "round": 4, "count": 8},),
        )
        for backend in ("agent", "vectorized"):
            counts = run_scenario(spec.replace(backend=backend)).alive_counts()
            assert counts[3] == 32 and counts[4] == 40, backend

    def test_erdos_renyi_environment_is_seed_deterministic(self):
        base = ScenarioSpec(protocol="push-sum-revert", environment="erdos-renyi",
                            environment_params={"p": 0.2, "graph_seed": 11},
                            n_hosts=32, rounds=3)
        first = base.build_environment().adjacency
        second = base.build_environment().adjacency
        assert first == second
        other = base.replace(
            environment_params={"p": 0.2, "graph_seed": 12}
        ).build_environment().adjacency
        assert first != other
        # Reachable from the spec layer end to end.
        assert run_scenario(base).metadata["environment"] == "NeighborhoodEnvironment"

    def test_sketch_count_defaults_agree_across_backends(self):
        # One spec must mean one sketch geometry on either backend.
        spec = ScenarioSpec(protocol="sketch-count", workload="constant",
                            n_hosts=16, rounds=2)
        protocol = spec.build_protocol()
        kernel = BACKENDS.get("vectorized").build_kernel(spec)
        assert (kernel.bins, kernel.bits) == (protocol.bins, protocol.bits)

    def test_null_cutoff_means_no_decay_on_both_backends(self):
        # JSON "cutoff": null is the named "off" cutoff; it must run (not
        # crash mid-run) and disable decay on both engines.
        spec = ScenarioSpec(protocol="count-sketch-reset",
                            protocol_params={"bins": 8, "bits": 12, "cutoff": None},
                            workload="constant", n_hosts=32, rounds=8)
        for backend in ("agent", "vectorized"):
            result = run_scenario(spec.replace(backend=backend))
            assert result.final_truth() == 32.0

    def test_store_estimates_supported(self):
        spec = ScenarioSpec(
            protocol="push-sum-revert", n_hosts=32, rounds=5,
            backend="vectorized", store_estimates=True,
        )
        result = run_scenario(spec)
        final = result.final_record().estimates
        assert final is not None and len(final) == 32
        assert all(isinstance(key, int) for key in final)


class TestMatchedExchangeDelta:
    """The kernels' exchange round is a perfect matching: n/2 exchanges, where the agent's
    round makes n (DESIGN.md §7).  Pinned where it shows most, extrema-reset's recovery
    from losing half its hosts, with and without loss: the gap is the matching's, and
    loss does not widen it past its bound."""

    @pytest.mark.parametrize("p", [0.0, 0.2])
    def test_extrema_reset_exchanges_half_as_often_and_stays_bounded(self, p):
        network = dict(network="bernoulli-loss", network_params={"p": p}) if p else {}
        messages, errors = {}, {}
        for backend in ("agent", "vectorized"):
            results = [run_scenario(ScenarioSpec(
                protocol="extrema-reset", protocol_params={"cutoff": 12}, n_hosts=300,
                rounds=30, seed=seed, backend=backend, **network,
                events=({"event": "failure", "round": 15, "model": "uncorrelated",
                         "fraction": 0.5},),
            )) for seed in range(24)]
            assert all(result.metadata["backend"] == backend for result in results)
            messages[backend] = sum(record.messages_delivered + record.messages_lost
                                    for result in results for record in result.rounds)
            errors[backend] = float(np.mean([
                result.plateau_error(10) / abs(result.final_truth()) for result in results
            ]))
        assert messages["vectorized"] / messages["agent"] == pytest.approx(0.5, abs=0.01)
        # Measured 1.96x without loss and 2.28x at p = 0.2.
        assert 1.5 * errors["agent"] < errors["vectorized"] < 3.0 * errors["agent"]
        assert errors["vectorized"] < 0.12


class TestAutoDispatch:
    def test_uniform_scenarios_go_vectorized(self):
        spec = ScenarioSpec(protocol="push-sum-revert", n_hosts=64, rounds=5)
        assert spec.backend == "auto"
        assert spec.resolved_backend() == "vectorized"
        assert spec.resolved_backend() == "vectorized"
        assert run_scenario(spec).metadata["backend"] == "vectorized"

    def test_topology_scenarios_go_vectorized(self):
        for environment in ("ring", "grid", "random-geometric", "spatial-grid",
                            "erdos-renyi"):
            spec = ScenarioSpec(protocol="push-sum-revert", environment=environment,
                                n_hosts=64, rounds=5)
            assert spec.resolved_backend() == "vectorized", environment
            result = run_scenario(spec)
            assert result.metadata["backend"] == "vectorized"
            assert result.metadata["environment"] != "UniformEnvironment"

    def test_unsupported_scenarios_fall_back_to_agent(self):
        broadcast_trace = ScenarioSpec(
            protocol="push-sum-revert", environment="trace",
            environment_params={"dataset": 1, "broadcast": True},
            n_hosts=9, rounds=5)
        assert broadcast_trace.resolved_backend() == "agent"
        full_transfer_ring = ScenarioSpec(
            protocol="push-sum-revert-full-transfer", environment="ring",
            mode="push", n_hosts=64, rounds=5)
        assert full_transfer_ring.resolved_backend() == "agent"
        joins_on_ring = ScenarioSpec(
            protocol="push-sum-revert", environment="ring", n_hosts=64, rounds=5,
            events=({"event": "join", "round": 2, "count": 4},))
        assert joins_on_ring.resolved_backend() == "agent"

    def test_dynamic_membership_scenarios_go_vectorized(self):
        trace = ScenarioSpec(protocol="push-sum-revert", environment="trace",
                             n_hosts=9, rounds=5)
        assert trace.resolved_backend() == "vectorized"
        joins = ScenarioSpec(protocol="push-sum-revert", n_hosts=64, rounds=5,
                             events=({"event": "join", "round": 2, "count": 4},))
        assert joins.resolved_backend() == "vectorized"
        churn = ScenarioSpec(
            protocol="push-sum-revert", n_hosts=64, rounds=5,
            events=({"event": "churn", "start": 1, "stop": 3,
                     "model": "uncorrelated", "fraction": 0.01,
                     "arrivals_per_round": 1},))
        assert churn.resolved_backend() == "vectorized"

    def test_explicit_agent_is_respected(self):
        spec = ScenarioSpec(protocol="push-sum-revert", n_hosts=64, rounds=5,
                            backend="agent")
        assert spec.resolved_backend() == "agent"
        assert run_scenario(spec).metadata["backend"] == "agent"

    def test_backend_round_trips_through_json(self):
        spec = ScenarioSpec(protocol="push-sum-revert", n_hosts=64, rounds=5,
                            backend="vectorized")
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.backend == "vectorized"

    def test_backend_is_a_sweep_axis(self):
        base = ScenarioSpec(protocol="push-sum-revert", n_hosts=48, rounds=6, seed=1)
        sweep = Sweep.over(base, backend=["agent", "vectorized"])
        result = SweepRunner(parallel=False).run(sweep)
        assert len(result.rows) == 2
        assert [r.metadata["backend"] for r in result.results] == ["agent", "vectorized"]


class TestEagerBackendValidation:
    """Bad backend requests fail at spec construction with the reason."""

    def base_kwargs(self, **overrides):
        kwargs = dict(protocol="push-sum-revert", n_hosts=32, rounds=4,
                      backend="vectorized")
        kwargs.update(overrides)
        return kwargs

    def test_unknown_backend_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'.*agent.*auto.*vectorized"):
            ScenarioSpec(protocol="push-sum-revert", backend="gpu")

    def test_full_transfer_on_topology_rejected(self):
        with pytest.raises(ValueError, match="uniform gossip"):
            ScenarioSpec(**self.base_kwargs(
                protocol="push-sum-revert-full-transfer", environment="ring",
                mode="push"))

    def test_broadcast_trace_rejected(self):
        # Point-to-point trace replay is vectorised; the broadcast variant
        # (every in-range neighbour hears each send) stays agent-only.
        with pytest.raises(ValueError, match="broadcast trace"):
            ScenarioSpec(**self.base_kwargs(
                environment="trace",
                environment_params={"dataset": 1, "broadcast": True},
                n_hosts=9))

    def test_group_relative_on_uniform_rejected(self):
        # Uniform gossip defines no groups on either backend; the topology
        # environments *do* support group-relative error now.
        with pytest.raises(ValueError, match="environment that defines groups"):
            ScenarioSpec(**self.base_kwargs(group_relative=True))

    def test_protocol_without_kernel_rejected(self):
        with pytest.raises(ValueError, match="no vectorised kernel"):
            ScenarioSpec(**self.base_kwargs(protocol="invert-average"))

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ValueError, match="only vectorised in mode"):
            ScenarioSpec(**self.base_kwargs(protocol="extrema-gossip", mode="push"))

    def test_unknown_kernel_parameter_rejected(self):
        with pytest.raises(ValueError, match="value_as_identifiers"):
            ScenarioSpec(**self.base_kwargs(
                protocol="sketch-count", workload="constant",
                protocol_params={"value_as_identifiers": True},
            ))

    def test_unvectorised_failure_model_rejected(self):
        with pytest.raises(ValueError, match="failure model 'bernoulli' is not vectorised"):
            ScenarioSpec(**self.base_kwargs(
                events=({"event": "failure", "round": 2, "model": "bernoulli", "p": 0.1},)
            ))

    def test_join_events_on_topology_rejected(self):
        # Joins are vectorised under uniform gossip only; a static or trace
        # topology has no slots for new hosts.
        for environment, params in (("ring", {}), ("trace", {"dataset": 1})):
            with pytest.raises(ValueError, match="only vectorised under uniform gossip"):
                ScenarioSpec(**self.base_kwargs(
                    environment=environment, environment_params=params,
                    n_hosts=9 if environment == "trace" else 32,
                    events=({"event": "join", "round": 2, "count": 4},)
                ))

    def test_churn_arrivals_on_topology_rejected(self):
        with pytest.raises(ValueError, match="churn with arrivals"):
            ScenarioSpec(**self.base_kwargs(
                environment="ring",
                events=({"event": "churn", "start": 1, "stop": 3,
                         "model": "uncorrelated", "fraction": 0.01,
                         "arrivals_per_round": 2},)
            ))

    def test_churn_with_unvectorised_model_rejected(self):
        with pytest.raises(ValueError, match="churn failure model 'bernoulli'"):
            ScenarioSpec(**self.base_kwargs(
                events=({"event": "churn", "start": 1, "stop": 3,
                         "model": "bernoulli", "p": 0.1},)
            ))

    @pytest.mark.parametrize("bad_cutoff", ["default", [7.0, 0.25], 2.5, True])
    def test_extrema_reset_rejects_function_cutoffs(self, bad_cutoff):
        # extrema-reset's cutoff is an integer age, not a named freshness
        # function; both backends must reject it eagerly, not mid-run.
        for backend in ("agent", "vectorized", "auto"):
            with pytest.raises(ValueError, match="positive integer 'cutoff'"):
                ScenarioSpec(protocol="extrema-reset",
                             protocol_params={"cutoff": bad_cutoff},
                             n_hosts=16, rounds=3, backend=backend)

    def test_extrema_reset_integer_cutoff_still_runs(self):
        spec = ScenarioSpec(protocol="extrema-reset", protocol_params={"cutoff": 7},
                            n_hosts=16, rounds=3, backend="vectorized")
        assert run_scenario(spec).final_error() >= 0.0

    def test_value_change_rejected_for_counting_kernels(self):
        with pytest.raises(ValueError, match="value-change"):
            ScenarioSpec(**self.base_kwargs(
                protocol="count-sketch-reset",
                protocol_params={"bins": 8, "bits": 12},
                events=({"event": "value-change", "round": 2, "values": {"0": 2.0}},)
            ))

    def test_auto_never_raises_for_valid_scenarios(self):
        spec = ScenarioSpec(protocol="push-sum-revert-full-transfer",
                            environment="ring", mode="push",
                            n_hosts=32, rounds=4, backend="auto")
        assert spec.resolved_backend() == "agent"

    def test_mid_run_error_message_matches_supports(self):
        backend = BACKENDS.get("vectorized")
        assert isinstance(backend, VectorizedBackend)
        spec = ScenarioSpec(protocol="push-sum-revert", environment="trace",
                            environment_params={"dataset": 1, "broadcast": True},
                            n_hosts=9, rounds=4)
        reason = vectorized_rejections(spec)[0].reason
        assert "broadcast" in reason
        with pytest.raises(ValueError, match="broadcast"):
            backend.run(spec)


# ---------------------------------------------------------------------------
# Degenerate populations: every kernel cell, both backends
# ---------------------------------------------------------------------------
EVERYONE_FAILS = ({"event": "failure", "round": 1, "model": "uncorrelated", "fraction": 1.0},)
DEGENERATE_SETS = {
    "one-host": dict(n_hosts=1),
    "two-hosts": dict(n_hosts=2),
    "everyone-failed": dict(n_hosts=4, events=EVERYONE_FAILS),
}
#: The kernel's sketch dimensions, small (the agent engine's are per host).
_SKETCH = {"bins": 8, "bits": 10}
_LATENCY = dict(network="latency", network_params={"distribution": "fixed", "delay": 1})
DEGENERATE_CELLS = [
    pytest.param(protocol, mode, engine_kwargs, id=f"{protocol}/{mode}/{label}")
    for protocol, declaration in KERNELS.items()
    for mode in declaration.modes
    for label, engine_kwargs in [
        ("rounds", {}),
        ("rounds-lossy", dict(network="bernoulli-loss", network_params={"p": 0.5})),
        # Rounds x latency is the calendar's lockstep configuration (push only:
        # an atomic exchange cannot be deferred; Full-Transfer has no per-tick form).
        *([("rounds-latency", _LATENCY)] if mode == "push" and not declaration.fan_out else []),
        *(
            [("events-instant", dict(engine="events")),
             ("events-latency", dict(engine="events", **_LATENCY))]
            if declaration.calendar
            else []
        ),
    ]
]


class TestDegeneratePopulations:
    """n=1, n=2 and an emptied population complete and agree across backends.

    ``truth`` and ``n_alive`` are deterministic by construction, so the two
    backends must agree on them exactly (NaN-aware) in every record; once
    nobody is alive the estimate statistics are NaN on both as well.
    """

    @pytest.mark.parametrize("population", sorted(DEGENERATE_SETS))
    @pytest.mark.parametrize("protocol, mode, engine_kwargs", DEGENERATE_CELLS)
    def test_backends_complete_and_agree(self, protocol, mode, engine_kwargs, population):
        params = _SKETCH if "sketch" in protocol else {}
        kwargs = dict(
            protocol=protocol, protocol_params=params, mode=mode, rounds=4, seed=3,
            **engine_kwargs, **DEGENERATE_SETS[population],
        )
        agent = run_scenario(ScenarioSpec(backend="agent", **kwargs))
        vector = run_scenario(ScenarioSpec(backend="vectorized", **kwargs))
        assert vector.metadata["backend"] == "vectorized"
        assert len(agent.rounds) == len(vector.rounds) == 4
        for ours, theirs in zip(vector.rounds, agent.rounds):
            assert ours.n_alive == theirs.n_alive
            if ours.n_alive:
                assert ours.truth == theirs.truth, (ours, theirs)
                continue
            for record in (ours, theirs):
                for field in ("truth", "mean_estimate", "stddev_error"):
                    assert math.isnan(getattr(record, field)), (field, record)
        if population == "everyone-failed":
            assert vector.alive_counts() == [4, 0, 0, 0]
        if "engine" not in engine_kwargs:  # a rounds run, over a latency network too
            assert "engine" not in vector.metadata
            assert all(record.time is None for record in vector.rounds)

    @pytest.mark.parametrize("protocol, mode", [
        (protocol, mode) for protocol, declaration in KERNELS.items() for mode in declaration.modes
    ])
    def test_total_loss_delivers_nothing_on_both_backends(self, protocol, mode):
        """At p = 1 every message a kernel counts is lost, as every agent message is:
        nothing is delivered, something was lost, and nothing merges, so every host
        keeps the finite estimate it started from."""
        kwargs = dict(
            protocol=protocol, protocol_params=_SKETCH if "sketch" in protocol else {},
            mode=mode, n_hosts=20, rounds=6, seed=1,
            network="bernoulli-loss", network_params={"p": 1.0},
        )
        for backend in ("agent", "vectorized"):
            result = run_scenario(ScenarioSpec(backend=backend, **kwargs))
            assert result.metadata["backend"] == backend
            assert sum(record.messages_delivered for record in result.rounds) == 0, backend
            assert sum(record.messages_lost for record in result.rounds) > 0, backend
            errors = [record.stddev_error for record in result.rounds]
            assert all(map(math.isfinite, errors)), backend
            assert errors == pytest.approx([errors[0]] * len(errors), rel=1e-12), backend

    @pytest.mark.parametrize("protocol, mode, engine_kwargs", DEGENERATE_CELLS)
    def test_zero_rounds_is_a_structured_error(self, protocol, mode, engine_kwargs):
        with pytest.raises(ValueError, match="rounds must be a positive integer, got 0"):
            ScenarioSpec(protocol=protocol, mode=mode, rounds=0, backend="vectorized",
                         **engine_kwargs)

    @pytest.mark.parametrize("engine", ["rounds", "events"])
    @pytest.mark.parametrize("mode", ["push", "exchange"])
    def test_a_host_that_joins_and_departs_in_one_round_leaves_no_trace(self, mode, engine):
        """Uniform Push-Sum-Revert: host 6 joins and silently fails at the same boundary."""
        kwargs = dict(
            protocol="push-sum-revert", protocol_params={"reversion": 0.1}, mode=mode,
            engine=engine, n_hosts=6, rounds=4, seed=3,
            events=({"event": "join", "round": 1, "count": 1},
                    {"event": "failure", "round": 1, "model": "explicit", "host_ids": [6]}),
        )
        agent = run_scenario(ScenarioSpec(backend="agent", **kwargs))
        vector = run_scenario(ScenarioSpec(backend="vectorized", **kwargs))
        for result in (agent, vector):
            assert result.alive_counts() == [6, 6, 6, 6]
            assert {record.truth for record in result.rounds} == {agent.rounds[0].truth}
            assert all(math.isfinite(record.stddev_error) for record in result.rounds)

    @pytest.mark.parametrize("mode", ["push", "pushpull", "full-transfer"])
    def test_an_empty_live_block_writes_nothing_back(self, mode):
        """Everyone dead mid-run: ``step()`` leaves every row byte-identical and the
        scored statistics are NaN."""
        kernel = VectorizedPushSumRevert(np.arange(8.0), 0.1, mode=mode, loss=0.2, seed=4)
        kernel.step_many(3)
        kernel.fail_random_fraction(1.0)
        before = [getattr(kernel, name).tobytes() for name in ("weight", "total", "_last_estimate")]
        books = (kernel.mass_injected, kernel.mass_lost, kernel.rng.bit_generator.state)
        kernel.step_many(2)
        assert kernel.round_index == 5
        assert [getattr(kernel, name).tobytes()
                for name in ("weight", "total", "_last_estimate")] == before
        assert (kernel.mass_injected, kernel.mass_lost, kernel.rng.bit_generator.state) == books
        assert kernel.estimates().size == 0 and math.isnan(kernel.truth())
        protocol = "push-sum-revert" + ("-full-transfer" if mode == "full-transfer" else "")
        result = run_scenario(ScenarioSpec(
            protocol=protocol, mode="exchange" if mode == "pushpull" else "push",
            n_hosts=8, rounds=5, seed=4, backend="vectorized",
            events=({"event": "failure", "round": 2, "model": "uncorrelated", "fraction": 1.0},),
        ))
        assert result.alive_counts() == [8, 8, 0, 0, 0]
        for record in result.rounds[2:]:
            assert all(math.isnan(getattr(record, field))
                       for field in ("truth", "mean_estimate", "stddev_error"))

"""Tests for the declarative scenario API (registries, specs, sweeps)."""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BACKENDS,
    ENVIRONMENTS,
    FAILURES,
    PROTOCOLS,
    WORKLOADS,
    Registry,
    ScenarioSpec,
    Sweep,
    SweepRunner,
    UnknownKeyError,
    run_scenario,
)
from repro.api.kernel_run import KernelRun
from repro.core import PushSumRevert
from repro.environments import TraceEnvironment, UniformEnvironment
from repro.simulator import Simulation, SimulationResult


class TestRegistry:
    def test_builtin_protocols_registered(self):
        for key in ("push-sum-revert", "count-sketch-reset", "invert-average",
                    "push-sum", "sketch-count"):
            assert key in PROTOCOLS
        assert PROTOCOLS.get("push-sum-revert") is PushSumRevert
        # Built-ins are registered by "module:attr" reference; each key must
        # resolve to the protocol class that calls itself by that name.
        for key in PROTOCOLS:
            assert PROTOCOLS.get(key).name == key

    def test_builtin_environments_failures_workloads(self):
        assert {"uniform", "ring", "grid", "spatial-grid", "trace"} <= set(ENVIRONMENTS.keys())
        assert {"uncorrelated", "correlated", "explicit", "bernoulli"} <= set(FAILURES.keys())
        assert {"uniform", "constant", "normal", "zipf", "clustered"} <= set(WORKLOADS.keys())

    def test_unknown_key_raises_with_suggestion(self):
        with pytest.raises(UnknownKeyError) as excinfo:
            PROTOCOLS.get("push-sum-rever")
        message = str(excinfo.value)
        assert "push-sum-rever" in message
        assert "push-sum-revert" in message  # did-you-mean suggestion
        # UnknownKeyError is a KeyError, so except KeyError still works.
        assert isinstance(excinfo.value, KeyError)

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", int)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", float)

    def test_decorator_registration(self):
        registry = Registry("thing")

        @registry.register("fancy", aliases=("plain",))
        class Fancy:
            pass

        assert registry.get("fancy") is Fancy
        assert registry.get("plain") is Fancy
        assert registry.keys() == ["fancy", "plain"]

    def test_validate_params_catches_typos(self):
        with pytest.raises(ValueError, match="reversions"):
            PROTOCOLS.validate_params("push-sum-revert", reversions=0.1)
        PROTOCOLS.validate_params("push-sum-revert", reversion=0.1)  # no raise

    def test_environment_factories_take_n_hosts(self):
        environment = ENVIRONMENTS.create("uniform", 64)
        assert isinstance(environment, UniformEnvironment)
        assert environment.n == 64

    def test_workload_factories_produce_one_value_per_host(self):
        for key in WORKLOADS:
            values = WORKLOADS.create(key, 12, seed=3)
            assert len(values) == 12


class TestScenarioSpec:
    def spec(self, **overrides):
        kwargs = dict(
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            n_hosts=120,
            rounds=15,
            seed=5,
            events=(
                {"event": "failure", "round": 8, "model": "uncorrelated", "fraction": 0.5},
            ),
        )
        kwargs.update(overrides)
        return ScenarioSpec(**kwargs)

    def test_dict_round_trip(self):
        spec = self.spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = self.spec(workload="normal", workload_params={"mean": 10.0})
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert json.loads(spec.to_json())["protocol"] == "push-sum-revert"

    def test_unknown_protocol_rejected_eagerly(self):
        with pytest.raises(KeyError, match="no-such-protocol"):
            self.spec(protocol="no-such-protocol")

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"protocol": "push-sum", "n_host": 10})

    def test_bad_protocol_param_rejected_eagerly(self):
        with pytest.raises(ValueError, match="reversions"):
            self.spec(protocol_params={"reversions": 0.1})

    def test_bad_mode_and_sizes_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            self.spec(mode="pull")
        with pytest.raises(ValueError, match="n_hosts"):
            self.spec(n_hosts=0)
        with pytest.raises(ValueError, match="rounds"):
            self.spec(rounds=0)
        # Full-Transfer cannot exchange: rejected here, not by the engine mid-sweep.
        with pytest.raises(ValueError, match="push/pull exchanges"):
            self.spec(protocol="push-sum-revert-full-transfer", mode="exchange")

    def test_bad_events_rejected(self):
        with pytest.raises(ValueError, match="event kind"):
            self.spec(events=({"event": "explode", "round": 1},))
        with pytest.raises(ValueError, match="round"):
            self.spec(events=({"event": "failure", "model": "uncorrelated"},))
        with pytest.raises(ValueError, match="model"):
            self.spec(events=({"event": "failure", "round": 1},))

    @pytest.mark.parametrize("values, needle", [
        ({"x": 1.0}, "'x'"),
        ({"0": 1.0, "2.5": 1.0}, "'2.5'"),
        ({"-1": 1.0}, "'-1'"),
        ({"0": float("inf")}, "'0'"),
        ({"0": 1.0, "3": float("nan")}, "'3'"),
    ], ids=["word-key", "fractional-key", "negative-key", "infinite-value", "nan-value"])
    def test_malformed_value_changes_fail_at_construction(self, values, needle):
        # Caught here, not mid-run: a bad key would raise inside a sweep worker,
        # and a non-finite value turns every later estimate non-finite.
        with pytest.raises(ValueError, match=needle):
            self.spec(events=({"event": "value-change", "round": 1, "values": values},))

    def test_named_cutoff_resolution(self):
        spec = self.spec(
            protocol="count-sketch-reset",
            protocol_params={"bins": 8, "bits": 12, "cutoff": "default"},
            workload="constant",
        )
        protocol = spec.build_protocol()
        assert protocol.cutoff(4) == 7.0 + 1.0
        with pytest.raises(ValueError, match="cutoff"):
            self.spec(
                protocol="count-sketch-reset",
                protocol_params={"bins": 8, "bits": 12, "cutoff": "sideways"},
            )

    def test_cutoff_as_intercept_slope_pair(self):
        spec = self.spec(
            protocol="count-sketch-reset",
            protocol_params={"bins": 8, "bits": 12, "cutoff": [5.0, 0.5]},
            workload="constant",
        )
        assert spec.build_protocol().cutoff(2) == 6.0
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_build_produces_ready_simulation(self):
        simulation = self.spec().build()
        assert isinstance(simulation, Simulation)
        assert len(simulation.hosts) == 120
        assert simulation.mode == "exchange"
        assert len(simulation.events) == 1

    def test_workload_seed_defaults_to_scenario_seed(self):
        a = self.spec(seed=5).build_values().tolist()
        b = self.spec(seed=5).build_values().tolist()
        c = self.spec(seed=6).build_values().tolist()
        assert a == b
        assert a != c
        # An explicit workload seed wins over the scenario seed.
        pinned = self.spec(seed=6, workload_params={"seed": 5}).build_values().tolist()
        assert pinned == a

    def test_spec_is_frozen(self):
        spec = self.spec()
        with pytest.raises(AttributeError):
            spec.n_hosts = 7

    def test_tuple_params_survive_json_round_trip(self):
        spec = self.spec(
            workload="clustered",
            workload_params={"cluster_means": (35.0, 60.0, 85.0), "std": 5.0},
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.workload_params["cluster_means"] == [35.0, 60.0, 85.0]

    def test_specs_are_hashable_and_usable_in_sets(self):
        a = self.spec()
        b = ScenarioSpec.from_json(a.to_json())
        c = self.spec(seed=99)
        assert hash(a) == hash(b)
        assert {a, b, c} == {a, c}

    def test_non_mapping_params_rejected_eagerly(self):
        with pytest.raises(ValueError, match="mapping"):
            self.spec(protocol_params=[1, 2])

    def test_malformed_cutoff_pair_rejected_eagerly(self):
        for bad in ([1.0, 2.0, 3.0], ["a", "b"], [-1.0, 0.5]):
            with pytest.raises(ValueError):
                self.spec(
                    protocol="count-sketch-reset",
                    protocol_params={"bins": 8, "bits": 12, "cutoff": bad},
                )

    def test_replace_revalidates(self):
        spec = self.spec()
        assert spec.replace(seed=9).seed == 9
        with pytest.raises(ValueError):
            spec.replace(mode="sideways")

    def test_churn_event_expands(self):
        spec = self.spec(
            events=(
                {"event": "churn", "start": 2, "stop": 5, "model": "bernoulli", "p": 0.01,
                 "arrivals_per_round": 1},
            )
        )
        events = spec.build_events()
        assert len(events) == 6  # one failure + one join per round in [2, 5)

    def test_trace_environment_device_count_must_match(self):
        spec = self.spec(
            environment="trace",
            environment_params={"dataset": 1},
            n_hosts=9,
            rounds=10,
            group_relative=True,
        )
        assert isinstance(spec.build_environment(), TraceEnvironment)
        bad = self.spec(
            environment="trace", environment_params={"dataset": 1}, n_hosts=10, rounds=10
        )
        with pytest.raises(ValueError, match="devices"):
            bad.build_environment()


GRACEFUL = {"event": "graceful-departure", "round": 4, "model": "uncorrelated", "fraction": 0.4}


class TestGracefulDepartureEvent:
    """The ``"graceful-departure"`` event: a failure's keys, a sign-off before leaving."""

    def spec(self, **overrides):
        kwargs = dict(protocol="push-sum-revert", protocol_params={"reversion": 0.1},
                      n_hosts=60, rounds=8, seed=3, events=(GRACEFUL,))
        kwargs.update(overrides)
        return ScenarioSpec(**kwargs)

    @pytest.mark.parametrize("entry, needle", [
        ({key: value for key, value in GRACEFUL.items() if key != "round"}, "round"),
        (dict(GRACEFUL, round=-1), "round"),
        ({key: value for key, value in GRACEFUL.items() if key != "model"}, "model"),
        (dict(GRACEFUL, model="meteor"), "meteor"),
        (dict(GRACEFUL, fraction=1.5), "fraction"),
        (dict(GRACEFUL, fractions=0.4), "fractions"),
    ], ids=["no-round", "negative-round", "no-model", "unknown-model", "bad-fraction",
            "unknown-parameter"])
    def test_malformed_events_fail_at_construction(self, entry, needle):
        with pytest.raises((ValueError, KeyError), match=needle):
            self.spec(events=(entry,))

    def test_json_and_key_round_trip(self):
        spec = self.spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.key() == spec.key()
        silent = self.spec(events=(dict(GRACEFUL, event="failure"),))
        assert silent.key() != spec.key()

    def test_builds_the_agent_event(self):
        (event,) = self.spec().build_events()
        assert event.describe() == {"event": "graceful-departure", "round": 4,
                                    "model": "UncorrelatedFailure", "fraction": 0.4}

    @pytest.mark.parametrize("engine, backend", [
        ("rounds", "agent"), ("rounds", "vectorized"), ("events", "agent"), ("events", "vectorized"),
    ])
    def test_runs_on_every_engine_and_backend(self, engine, backend):
        overrides = {}
        if engine == "events":  # mass in flight, balanced after every event
            overrides = dict(mode="push", engine_params={"mass_check": "event"},
                             network="latency",
                             network_params={"distribution": "uniform", "low": 0, "high": 2})
        spec = self.spec(engine=engine, backend=backend, **overrides)
        result = run_scenario(spec)
        assert result.alive_counts() == [60] * 4 + [36] * 4
        assert result.metadata["backend"] == backend
        silent = run_scenario(spec.replace(events=(dict(GRACEFUL, event="failure"),)))
        assert silent.alive_counts() == result.alive_counts()
        assert silent.errors() != result.errors()  # the leavers signed off

    @pytest.mark.parametrize("host_ids", [[3, 3], [3, 3, 3]])
    @pytest.mark.parametrize("engine", ["rounds", "events"])
    def test_a_repeated_leaver_hands_its_mass_over_once(self, engine, host_ids):
        # Static Push-Sum conserves its weight exactly: a host named twice signs off once.
        spec = self.spec(
            protocol_params={"reversion": 0.0}, n_hosts=8, rounds=6, engine=engine,
            events=({"event": "graceful-departure", "round": 2, "model": "explicit",
                     "host_ids": host_ids},),
        )
        simulation = spec.build()
        agent = simulation.run() if engine == "events" else simulation.run(spec.rounds)
        run = KernelRun(BACKENDS.get("vectorized"), spec)
        kernel = run.kernel
        assert run.run().alive_counts() == agent.alive_counts()
        assert agent.alive_counts()[-1] == 7
        weights = [simulation.hosts[host].state.weight for host in simulation.alive_ids()]
        assert sum(weights) == pytest.approx(8.0)
        assert kernel.mass_view()[0] == pytest.approx(8.0)


def _to_dict_oracle(spec):
    """``to_dict()`` as ``dataclasses.asdict`` spells it — the form the
    hand-rolled field walk replaced, kept here as its reference."""
    payload = dataclasses.asdict(spec)
    payload["events"] = [copy.deepcopy(entry) for entry in spec.events]
    return payload


_small_floats = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
_EVENTS = st.one_of(
    st.builds(
        lambda round_index, fraction: {
            "event": "failure", "round": round_index, "model": "uncorrelated",
            "fraction": fraction,
        },
        st.integers(0, 5), _small_floats,
    ),
    st.builds(
        lambda round_index, count: {"event": "join", "round": round_index, "count": count},
        st.integers(0, 5), st.integers(1, 4),
    ),
    st.builds(
        lambda round_index, values: {"event": "value-change", "round": round_index,
                                     "values": values},
        st.integers(0, 5),
        st.dictionaries(st.integers(0, 19), st.floats(-5.0, 5.0), min_size=1, max_size=3),
    ),
    st.builds(
        lambda start, p, arrivals: {
            "event": "churn", "start": start, "stop": start + 2, "model": "bernoulli",
            "p": p, "arrivals_per_round": arrivals,
        },
        st.integers(0, 3), _small_floats, st.integers(0, 2),
    ),
)
_NETWORKS = st.one_of(
    st.just(("perfect", {})),
    st.builds(lambda p: ("bernoulli-loss", {"p": p}), _small_floats),
    st.builds(lambda high: ("latency", {"distribution": "uniform", "low": 0, "high": high}),
              st.integers(0, 4)),
)
_ENGINES = st.one_of(
    st.just(("rounds", {})),
    st.builds(
        lambda interval, fast, fraction: ("events", {
            "sample_interval": interval,
            "rates": {"distribution": "heterogeneous", "fast": fast, "slow": 0.5,
                      "fast_fraction": fraction},
        }),
        st.sampled_from([0.5, 1.0, 2]), st.floats(1.0, 4.0), _small_floats,
    ),
)


class TestSpecIdentity:
    """``to_dict`` / ``key`` / ``__hash__`` after the once-per-instance rewrite."""

    @settings(max_examples=60, deadline=None)
    @given(
        means=st.lists(st.floats(1.0, 99.0), min_size=1, max_size=4),
        events=st.lists(_EVENTS, max_size=4),
        network=_NETWORKS,
        engine=_ENGINES,
        reverse=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_to_dict_matches_the_asdict_oracle(self, means, events, network, engine, reverse, seed):
        spec = ScenarioSpec(
            protocol="push-sum-revert", protocol_params={"reversion": 0.1, "adaptive": False},
            workload="clustered", workload_params={"cluster_means": tuple(means), "std": 2.0},
            network=network[0], network_params=network[1],
            engine=engine[0], engine_params=engine[1],
            events=tuple(events), mode="push", n_hosts=20, rounds=6, seed=seed, name="drawn",
        )
        payload = spec.to_dict()
        oracle = _to_dict_oracle(spec)
        assert payload == oracle and list(payload) == list(oracle)
        assert json.dumps(payload) == json.dumps(oracle)  # nested key order too
        # A private copy: editing it must not reach the (frozen) spec.
        payload["workload_params"]["cluster_means"].append(0.0)
        payload["events"].append({"event": "join"})
        assert spec.to_dict() == oracle

        # An equal spec built another way (reversed parameter insertion order).
        twin_payload = copy.deepcopy(oracle)
        if reverse:
            twin_payload["protocol_params"] = dict(reversed(oracle["protocol_params"].items()))
        twin = ScenarioSpec.from_dict(twin_payload)
        assert twin == spec and hash(twin) == hash(spec) and twin.key() == spec.key()
        # The cached digest is not a field: nothing serialised or replaced sees it.
        assert spec.to_dict() == oracle == _to_dict_oracle(spec)
        relabelled = spec.replace(name="relabelled")
        assert relabelled != spec and relabelled.key() == spec.key()
        assert spec.replace(seed=seed + 1).key() != spec.key()


class TestRunScenario:
    def spec(self, **overrides):
        kwargs = dict(
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            n_hosts=100,
            rounds=12,
            seed=3,
            events=(
                {"event": "failure", "round": 6, "model": "correlated",
                 "fraction": 0.5, "highest": True},
            ),
        )
        kwargs.update(overrides)
        return ScenarioSpec(**kwargs)

    def test_requires_a_spec(self):
        with pytest.raises(TypeError):
            run_scenario({"protocol": "push-sum"})

    def test_same_seed_identical_result(self):
        first = run_scenario(self.spec())
        second = run_scenario(ScenarioSpec.from_dict(self.spec().to_dict()))
        assert isinstance(first, SimulationResult)
        assert first.errors() == second.errors()
        assert first.truths() == second.truths()
        assert first.alive_counts() == second.alive_counts()

    def test_different_seed_different_result(self):
        first = run_scenario(self.spec(seed=3))
        second = run_scenario(self.spec(seed=4))
        assert first.errors() != second.errors()

    @pytest.mark.parametrize("backend", ["agent", "vectorized"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_workload_values_fail_loudly(self, backend, bad):
        # One bad value used to yield a full result whose every error is nan.
        spec = ScenarioSpec(
            protocol="push-sum-revert", workload="constant", workload_params={"value": bad},
            n_hosts=20, rounds=3, backend=backend,
        )
        with pytest.raises(ValueError, match=r"workload 'constant' .*non-finite.* index 0"):
            run_scenario(spec)


class TestSweep:
    def base(self):
        return ScenarioSpec(
            protocol="push-sum-revert", n_hosts=60, rounds=6, seed=0,
        )

    def test_expansion_is_a_cross_product_in_axis_order(self):
        sweep = Sweep.over(self.base(), seed=[0, 1, 2], n_hosts=[60, 80])
        assert len(sweep) == 6
        points = sweep.points()
        assert [(p["seed"], p["n_hosts"]) for p, _spec in points] == [
            (0, 60), (0, 80), (1, 60), (1, 80), (2, 60), (2, 80),
        ]
        assert all(spec.n_hosts == p["n_hosts"] for p, spec in points)

    def test_dotted_axis_sets_nested_param(self):
        sweep = Sweep.over(self.base(), **{"protocol_params.reversion": [0.0, 0.5]})
        specs = sweep.specs()
        assert [spec.protocol_params["reversion"] for spec in specs] == [0.0, 0.5]

    def test_bad_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            Sweep.over(self.base())
        with pytest.raises(ValueError, match="no values"):
            Sweep.over(self.base(), seed=[])
        with pytest.raises(ValueError, match="dot into"):
            Sweep.over(self.base(), **{"bogus_params.x": [1]})
        # Misspelled plain field names are rejected eagerly too.
        with pytest.raises(ValueError, match="unknown axis"):
            Sweep.over(self.base(), host=[10, 20])

    def test_json_round_trip(self):
        sweep = Sweep.over(self.base(), seed=range(2), protocol=["push-sum", "sketch-count"])
        restored = Sweep.from_json(sweep.to_json())
        assert restored.base == sweep.base
        assert restored.axes == sweep.axes

    def test_invalid_combination_fails_at_expansion(self):
        base = self.base().replace(protocol_params={"reversion": 0.1})
        with pytest.raises(ValueError, match="reversion"):
            Sweep.over(base, protocol=["push-sum"]).points()


class TestSweepRunner:
    def sweep(self):
        base = ScenarioSpec(
            protocol="push-sum-revert",
            n_hosts=60,
            rounds=8,
            events=({"event": "failure", "round": 4, "model": "uncorrelated", "fraction": 0.5},),
        )
        return Sweep.over(base, **{
            "protocol_params.reversion": [0.0, 0.1],
            "seed": [0, 1],
        })

    def test_serial_rows_and_order(self):
        result = SweepRunner(parallel=False).run(self.sweep())
        assert len(result) == 4
        assert result.axis_names == ["protocol_params.reversion", "seed"]
        assert result.column("seed") == [0, 1, 0, 1]
        for row in result.rows:
            assert row["n_alive"] == 30
            assert row["final_error"] >= 0.0

    def test_parallel_equals_serial(self):
        serial = SweepRunner(parallel=False).run(self.sweep())
        parallel = SweepRunner(parallel=True, max_workers=2, chunksize=2).run(self.sweep())
        assert parallel.parallel and not serial.parallel
        assert [r.errors() for r in parallel.results] == [r.errors() for r in serial.results]
        for left, right in zip(parallel.rows, serial.rows):
            assert left == right

    def test_explicit_spec_list(self):
        specs = [
            ScenarioSpec(protocol="push-sum", n_hosts=40, rounds=5, name="static"),
            ScenarioSpec(protocol="push-sum-revert", n_hosts=40, rounds=5, name="dynamic"),
        ]
        result = SweepRunner().run(specs)
        assert result.axis_names == ["scenario"]
        assert result.column("scenario") == ["static", "dynamic"]

    def test_render_and_best(self):
        result = SweepRunner().run(self.sweep())
        text = result.render()
        assert "final_error" in text
        assert "4 runs" in text
        best = result.best("final_error")
        assert best["final_error"] == min(result.column("final_error"))

    def test_invalid_runner_options(self):
        with pytest.raises(ValueError):
            SweepRunner(chunksize=0)
        with pytest.raises(ValueError):
            SweepRunner(max_workers=0)

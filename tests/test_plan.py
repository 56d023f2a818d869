"""Tests for the execution-plan capability layer (repro.api.plan)."""

import inspect
from types import SimpleNamespace

import pytest

from repro.api import NETWORKS, PROTOCOLS, ScenarioSpec, run_scenario
from repro.api.backends import VectorizedBackend
from repro.api.plan import (
    ExecutionPlan,
    PlanRejectionError,
    Rejection,
    capability_matrix,
    resolve_plan,
    vectorized_rejections,
)
from repro.simulator.kernels import KERNELS


def make_spec(**overrides):
    base = dict(protocol="push-sum-revert", n_hosts=32, rounds=4)
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# resolve_plan
# ---------------------------------------------------------------------------
class TestResolvePlan:
    def test_clean_spec_resolves_vectorized(self):
        plan = resolve_plan(make_spec())
        assert (plan.engine, plan.backend) == ("rounds", "vectorized")
        assert plan.rejections == ()
        assert plan.reasons == []
        assert plan.runnable
        assert plan.nearest_runnable() is plan

    def test_rejected_auto_spec_falls_back_to_agent(self):
        plan = resolve_plan(make_spec(protocol="invert-average"))
        assert (plan.engine, plan.backend) == ("rounds", "agent")
        assert plan.rejections and plan.runnable

    def test_events_engine_is_carried_through(self):
        plan = resolve_plan(make_spec(engine="events"))
        assert (plan.engine, plan.backend) == ("events", "vectorized")
        agent_plan = resolve_plan(make_spec(engine="events", protocol="invert-average"))
        assert (agent_plan.engine, agent_plan.backend) == ("events", "agent")

    def test_explicit_backends_are_kept_as_requested(self):
        assert resolve_plan(make_spec(backend="agent")).backend == "agent"
        assert resolve_plan(make_spec(backend="vectorized")).backend == "vectorized"

    def test_resolve_plan_never_raises_for_auto(self):
        # Every rejection-carrying auto spec still resolves (to the agent
        # engine) instead of raising.
        for overrides in (
            {"protocol": "invert-average"},
            {"group_relative": True},
            {"protocol": "push-sum-revert-full-transfer", "network": "latency", "mode": "push"},
            {"engine": "events", "protocol": "epoch-push-sum"},
        ):
            plan = resolve_plan(make_spec(**overrides))
            assert plan.backend == "agent" and plan.runnable

    def test_unrunnable_plan_and_nearest(self):
        rejection = Rejection("mode", "push", "not in this mode")
        plan = ExecutionPlan("rounds", "vectorized", (rejection,))
        assert not plan.runnable
        nearest = plan.nearest_runnable()
        assert nearest == ExecutionPlan("rounds", "agent", (rejection,))
        assert nearest.runnable

    def test_run_scenario_dispatches_through_the_plan(self):
        spec = make_spec(rounds=3)
        result = run_scenario(spec)
        assert result.metadata["backend"] == resolve_plan(spec).backend == "vectorized"


# ---------------------------------------------------------------------------
# Rejection paths: round engine
# ---------------------------------------------------------------------------
ROUNDS_REJECTIONS = [
    pytest.param(
        dict(protocol="push-sum-revert-full-transfer", environment="ring", mode="push"),
        "environment", "uniform gossip", id="full-transfer-on-topology",
    ),
    pytest.param(
        dict(environment="trace", environment_params={"dataset": 1, "broadcast": True},
             n_hosts=9),
        "environment", "broadcast trace", id="broadcast-trace",
    ),
    pytest.param(
        dict(group_relative=True),
        "accounting", "environment that defines groups", id="group-relative-uniform",
    ),
    pytest.param(
        dict(protocol="invert-average"),
        "protocol", "no vectorised kernel", id="no-kernel",
    ),
    pytest.param(
        dict(protocol="extrema-gossip", mode="push"),
        "mode", "only vectorised in mode", id="unsupported-mode",
    ),
    pytest.param(
        dict(protocol_params={"weight_epsilon": 1e-9}),
        "protocol", "weight_epsilon", id="unknown-kernel-parameter",
    ),
    pytest.param(
        dict(protocol="push-sum-revert-full-transfer", network="latency", mode="push",
             network_params={"distribution": "fixed", "delay": 1}),
        "network", "only vectorised over an instant network", id="full-transfer-under-latency",
    ),
    pytest.param(
        dict(protocol="sketch-count", workload="constant", mode="push",
             network="lossy-latent", network_params={"p": 0.1, "high": 2}),
        "network", "not vectorised under engine='rounds'", id="user-network-on-counting-kernel",
    ),
    pytest.param(
        dict(events=({"event": "failure", "round": 2, "model": "bernoulli", "p": 0.1},)),
        "events", "failure model 'bernoulli'", id="bernoulli-failure",
    ),
    pytest.param(
        dict(events=({"event": "graceful-departure", "round": 2, "model": "bernoulli",
                       "p": 0.1},)),
        "events", "graceful-departure model 'bernoulli'", id="bernoulli-graceful-departure",
    ),
    pytest.param(
        dict(protocol="count-sketch-reset", protocol_params={"bins": 8, "bits": 12},
             workload="constant",
             events=({"event": "value-change", "round": 2, "values": {"0": 2.0}},)),
        "events", "value-change", id="value-change-on-counting-kernel",
    ),
    pytest.param(
        dict(environment="ring", events=({"event": "join", "round": 2, "count": 4},)),
        "events", "only vectorised under uniform gossip", id="join-on-topology",
    ),
    pytest.param(
        dict(environment="ring",
             events=({"event": "churn", "start": 1, "stop": 3,
                      "model": "uncorrelated", "fraction": 0.01,
                      "arrivals_per_round": 2},)),
        "events", "churn with arrivals", id="churn-arrivals-on-topology",
    ),
    pytest.param(
        dict(events=({"event": "churn", "start": 1, "stop": 3,
                      "model": "bernoulli", "p": 0.1},)),
        "events", "churn failure model 'bernoulli'", id="churn-bernoulli",
    ),
]


class TestRoundEngineRejections:
    @pytest.mark.parametrize("overrides, axis, needle", ROUNDS_REJECTIONS)
    def test_rejection_axis_and_reason(self, user_network, overrides, axis, needle):
        spec = make_spec(**overrides)
        rejections = vectorized_rejections(spec)
        assert rejections, overrides
        hits = [r for r in rejections if r.axis == axis and needle in r.reason]
        assert hits, [f"{r.axis}: {r.reason}" for r in rejections]
        assert resolve_plan(spec).backend == "agent"

    @pytest.mark.parametrize("overrides, axis, needle", ROUNDS_REJECTIONS)
    def test_explicit_vectorized_request_raises_structured(
        self, user_network, overrides, axis, needle
    ):
        with pytest.raises(PlanRejectionError) as excinfo:
            make_spec(backend="vectorized", **overrides)
        error = excinfo.value
        assert isinstance(error, ValueError)  # legacy except-clauses keep working
        assert error.rejections
        assert needle in str(error)
        assert error.nearest is not None and error.nearest.backend == "agent"

    def test_all_rejections_are_collected_not_just_the_first(self):
        spec = make_spec(
            protocol="push-sum-revert-full-transfer", environment="ring", mode="push",
            events=({"event": "join", "round": 2, "count": 4},),
        )
        axes = [r.axis for r in vectorized_rejections(spec)]
        assert "environment" in axes and "events" in axes
        assert len(axes) >= 2

    def test_paths_unreachable_from_validated_specs(self):
        # Unknown environments and event kinds are rejected eagerly by
        # ScenarioSpec itself, but the capability layer must still answer
        # for duck-typed specs (it is consulted before spec validation in
        # some embedding scenarios).
        fake = SimpleNamespace(
            engine="rounds", protocol="push-sum-revert", protocol_params={},
            environment="mesh", environment_params={}, group_relative=False,
            network="perfect", mode="exchange",
            events=({"event": "reshuffle"},),
        )
        rejections = vectorized_rejections(fake)
        axes = {r.axis for r in rejections}
        assert "environment" in axes
        assert any(r.axis == "events" and "reshuffle" in r.reason for r in rejections)


# ---------------------------------------------------------------------------
# Rejection paths: event engine (the bucketed calendar)
# ---------------------------------------------------------------------------
EVENTS_REJECTIONS = [
    pytest.param(
        dict(protocol="push-sum-revert-full-transfer", mode="push"),
        "protocol", "event calendar is only vectorised", id="full-transfer",
    ),
    pytest.param(
        dict(environment="trace", environment_params={"dataset": 1}, n_hosts=9),
        "environment", "round index that the event calendar does not advance",
        id="trace-under-events",
    ),
    pytest.param(
        dict(protocol="count-sketch-reset", workload="constant"),
        "protocol", "event calendar is only vectorised", id="begin-hook-kernel",
    ),
    pytest.param(
        dict(protocol="sketch-count", workload="constant",
             network="lossy-latent", network_params={"p": 0.1, "high": 2}),
        "network", "not vectorised under engine='events'", id="user-network-on-counting-kernel",
    ),
    pytest.param(
        dict(group_relative=True),
        "accounting", "environment that defines groups", id="group-relative",
    ),
    pytest.param(
        dict(network="lossy-latent", network_params={"p": 0.1, "high": 2}),
        "network", "not vectorised under engine='events'", id="user-network",
    ),
    pytest.param(
        dict(protocol_params={"reversion": 0.1, "adaptive": True}),
        "protocol", "indegree-adaptive", id="adaptive-reversion",
    ),
    pytest.param(
        dict(events=({"event": "failure", "round": 2, "model": "bernoulli", "p": 0.1},)),
        "events", "failure model 'bernoulli'", id="bernoulli-failure",
    ),
]


class TestEventEngineRejections:
    @pytest.mark.parametrize("overrides, axis, needle", EVENTS_REJECTIONS)
    def test_rejection_axis_and_reason(self, user_network, overrides, axis, needle):
        spec = make_spec(engine="events", **overrides)
        rejections = vectorized_rejections(spec)
        hits = [r for r in rejections if r.axis == axis and needle in r.reason]
        assert hits, [f"{r.axis}: {r.reason}" for r in rejections]
        assert resolve_plan(spec).backend == "agent"

    def test_supported_events_scenarios_have_no_rejections(self):
        for overrides in (
            {},
            {"network": "latency",
             "network_params": {"distribution": "uniform", "low": 0, "high": 2},
             "mode": "exchange"},
            {"network": "bernoulli-loss", "network_params": {"p": 0.2}},
            {"events": ({"event": "join", "round": 2, "count": 4},)},
            {"engine_params": {"rates": {"distribution": "lognormal"},
                               "synchronized": False}},
            {"environment": "ring", "mode": "push"},
            {"protocol": "push-sum", "network": "bernoulli-loss", "network_params": {"p": 0.2}},
            {"protocol": "sketch-count", "workload": "constant", "network": "latency",
             "network_params": {"distribution": "fixed", "delay": 1}, "mode": "push"},
            {"protocol": "sketch-count", "workload": "constant", "environment": "grid",
             "n_hosts": 36},
        ):
            spec = make_spec(engine="events", **overrides)
            assert vectorized_rejections(spec) == [], overrides


# ---------------------------------------------------------------------------
# The plan's product: what the network axis still blocks
# ---------------------------------------------------------------------------
def _plan_product():
    """``(protocol, mode, engine, network) -> plan`` for every cell a spec accepts, at
    n = 20 with each built-in network at its defaults (``p=0.1`` for the loss)."""
    plans = {}
    for protocol in sorted(PROTOCOLS.keys()):
        for mode in ("push", "exchange"):
            for engine in ("rounds", "events"):
                for network in sorted(NETWORKS.keys()):
                    params = {"p": 0.1} if network == "bernoulli-loss" else {}
                    try:
                        spec = ScenarioSpec(protocol=protocol, mode=mode, engine=engine,
                                            network=network, network_params=params,
                                            n_hosts=20, rounds=2)
                    except (ValueError, KeyError, TypeError):
                        continue
                    plans[protocol, mode, engine, network] = resolve_plan(spec)
    return plans


class TestPlanProduct:
    def test_the_network_blocks_only_full_transfer_under_latency_on_rounds(self):
        plans = _plan_product()
        vectorised = {cell for cell, plan in plans.items() if plan.backend == "vectorized"}
        assert (len(plans), len(vectorised)) == (94, 44)
        shares = {}
        for cell in plans:
            network = cell[3] if cell[3] != "latency" else f"latency/{cell[2]}"
            accepted, fast = shares.get(network, (0, 0))
            shares[network] = (accepted + 1, fast + (cell in vectorised))
        assert shares == {"perfect": (34, 17), "bernoulli-loss": (34, 17),
                          "latency/rounds": (9, 4), "latency/events": (17, 6)}
        blocked = {cell for cell, plan in plans.items()
                   if any(rejection.axis == "network" for rejection in plan.rejections)}
        assert blocked == {("push-sum-revert-full-transfer", "push", "rounds", "latency")}


# ---------------------------------------------------------------------------
# capability_matrix
# ---------------------------------------------------------------------------
class TestCapabilityMatrix:
    def test_matrix_shape_and_registry_coverage(self):
        from repro.api import PROTOCOLS

        matrix = capability_matrix()
        assert matrix["engines"] == ("rounds", "events")
        assert matrix["backends"] == ("agent", "vectorized")
        assert [row["protocol"] for row in matrix["rows"]] == sorted(PROTOCOLS.keys())

    def test_push_sum_revert_is_vectorised_everywhere(self):
        matrix = capability_matrix()
        row = next(r for r in matrix["rows"] if r["protocol"] == "push-sum-revert")
        for engine in ("rounds", "events"):
            assert row["cells"][engine] == {"agent": "yes", "vectorized": "yes"}
        assert row["reasons"] == {}

    def test_agent_only_rows_carry_a_reason(self):
        rows = {row["protocol"]: row for row in capability_matrix()["rows"]}
        why_not = {(name, engine) for name, row in rows.items() for engine in row["reasons"]}
        assert why_not == {
            ("epoch-push-sum", "rounds"), ("epoch-push-sum", "events"),
            ("invert-average", "rounds"), ("invert-average", "events"),
            ("push-sum-revert-full-transfer", "events"),
            ("count-sketch-reset", "events"), ("extrema-gossip", "events"),
            ("extrema-reset", "events"),
        }
        row = rows["invert-average"]
        assert row["cells"]["rounds"] == {"agent": "yes", "vectorized": "no"}
        assert "no vectorised kernel" in row["reasons"]["rounds"]
        # Vectorised under rounds, but not on the bucketed calendar.
        full_transfer = rows["push-sum-revert-full-transfer"]
        assert full_transfer["cells"]["rounds"]["vectorized"] == "yes"
        assert "event calendar" in full_transfer["reasons"]["events"]

    def test_kernel_and_notes_sections(self):
        matrix = capability_matrix()
        kernels = {entry["kernel"]: entry for entry in matrix["kernels"]}
        assert kernels["push-sum-revert"]["modes"] == "exchange/push"
        assert kernels["push-sum-revert-full-transfer"]["topology"] == "uniform-only"
        # Every kernel realises every built-in network, so no note lists kernels by one.
        assert [note.split(":")[0] for note in matrix["notes"]] == [
            "vectorised environments", "vectorised failure models",
            "event-calendar (engine='events') vectorisation",
        ]


# ---------------------------------------------------------------------------
# the kernel declarations everything above is derived from
# ---------------------------------------------------------------------------
class TestKernelDeclarations:
    @pytest.mark.parametrize(
        "protocol, mode",
        [(name, mode) for name, entry in KERNELS.items() for mode in entry.modes],
    )
    def test_kernel_defaults_are_the_agent_protocols(self, protocol, mode):
        # No protocol_params: whatever the kernel resolves must be what the
        # agent protocol resolves, since the builder reads the agent instance.
        entry = KERNELS[protocol]
        spec = ScenarioSpec(protocol=protocol, mode=mode, n_hosts=12, rounds=2)
        kernel = VectorizedBackend().build_kernel(spec)
        agent = spec.build_protocol()
        assert type(kernel) is entry.kernel
        assert entry.params <= set(inspect.signature(PROTOCOLS.get(protocol)).parameters)
        for name in sorted(entry.params):
            assert getattr(kernel, name) == getattr(agent, name), name
        assert kernel.aggregate == agent.aggregate

    def test_matrix_cells_follow_the_declared_flags(self):
        cells = {row["protocol"]: row["cells"] for row in capability_matrix()["rows"]}
        for name in KERNELS:
            assert cells[name]["rounds"]["vectorized"] == "yes", name
        on_the_calendar = {
            name for name, cell in cells.items() if cell["events"]["vectorized"] == "yes"
        }
        assert on_the_calendar == {name for name, entry in KERNELS.items() if entry.calendar}

    def test_no_kernel_with_a_begin_hook_is_on_the_calendar(self):
        # The calendar runs a bucket's begin hooks before any of its exchanges;
        # the agent event engine runs each host's right before its own
        # (DESIGN.md §14 "Begin hooks act a bucket at a time").
        hooked = {name for name, entry in KERNELS.items() if entry.kernel._begin is not None}
        assert hooked == {"count-sketch-reset", "extrema-gossip", "extrema-reset"}
        assert not any(KERNELS[name].calendar for name in hooked)

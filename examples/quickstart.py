"""Quickstart: dynamic averaging that survives a correlated mass departure.

This script walks through the library's core workflow both ways:

1. declare the run as a :class:`repro.ScenarioSpec` — every component
   (protocol, environment, workload, failure) named by its registry key —
   and execute it with :func:`repro.run_scenario`.  The spec's
   ``backend="auto"`` resolves to the vectorised NumPy kernels here
   (uniform gossip + Push-Sum-Revert has one); pin ``backend="agent"`` or
   ``backend="vectorized"`` to choose explicitly;
2. build the same :class:`repro.Simulation` imperatively and check it
   matches the spec run on the ``"agent"`` backend exactly;
3. sweep the reversion constant λ over the same scenario to compare how
   the static baseline (λ=0) and Push-Sum-Revert track the new true
   average after the highest-valued half of the hosts silently departs;
4. re-run the same gossip over a *lossy* network (``repro.network``):
   one in five messages vanishes, yet reversion keeps re-minting the
   lost mass and the estimate stays useful;
5. re-run the λ sweep against a :class:`repro.ResultStore` — the second
   pass executes zero cells and returns a bit-identical table straight
   from the content-addressed cache (``repro.store``, DESIGN.md §9);
6. restrict gossip to a *random-geometric* wireless topology — the spec
   still resolves to the vectorised backend under ``backend="auto"``
   (the kernels sample peers through a sparse CSR adjacency, DESIGN.md
   §7 "Graph and view"), so graph-restricted sweeps run at kernel speed too;
7. drop the lockstep-round assumption entirely: ``engine="events"``
   runs the same protocol on the continuous-time event engine
   (``repro.events``, DESIGN.md §10), where every host gossips on its
   own clock — here half the population runs 8× slower than the rest,
   over a latency network, in exchange mode (a combination the round
   engine rejects) — and the result gains a simulated-time axis;
8. let the population itself move: churn (departures plus arrivals every
   round) grows and masks the kernel arrays in place, and a synthetic
   contact trace replays as a time-varying CSR with group-relative error
   (DESIGN.md §7 "Trace replay as a time-varying CSR") — both still at
   kernel speed under ``backend="auto"``;
9. watch a run from the inside: attach a :class:`repro.TraceRecorder`
   (``repro.obs``, DESIGN.md §11) to the churn scenario, prove the
   instrumented run is bit-identical to the bare one, and render the
   recorded phase-time/per-round breakdown — the CLI equivalents are
   ``run --trace out.jsonl --metrics`` and
   ``repro-aggregate obs report out.jsonl``;
10. scale the asynchronous scenario to n = 10⁴ on the *bucketed
    vectorised calendar* (``repro.api.kernel_run``, DESIGN.md §7 "What a bucket is"):
    ``backend="auto"`` resolves ``engine="events"`` to the vectorised
    backend for Push-Sum-Revert over uniform gossip, draining the event
    calendar per time bucket through whole-subset kernel calls — the
    population the agent calendar crawls through runs in seconds.

The spec also round-trips through JSON, which is exactly what
``repro-aggregate run --config`` and ``repro-aggregate sweep`` consume.

Run it with::

    python examples/quickstart.py
"""

import tempfile
import time

from repro import (
    CorrelatedFailure,
    FailureEvent,
    PushSumRevert,
    ResultStore,
    ScenarioSpec,
    Simulation,
    Sweep,
    SweepRunner,
    TraceRecorder,
    UniformEnvironment,
    render_report,
    run_scenario,
)
from repro.analysis import render_series_table
from repro.workloads import uniform_values

N_HOSTS = 1000
ROUNDS = 50
FAILURE_ROUND = 20

#: The whole experiment as one declarative, JSON-serialisable object.
SPEC = ScenarioSpec(
    name="quickstart-correlated-failure",
    protocol="push-sum-revert",
    protocol_params={"reversion": 0.1},
    environment="uniform",
    workload="uniform",
    n_hosts=N_HOSTS,
    rounds=ROUNDS,
    mode="exchange",
    seed=42,
    events=(
        {"event": "failure", "round": FAILURE_ROUND, "model": "correlated",
         "fraction": 0.5, "highest": True},
    ),
)


def run_imperatively():
    """The same run, hand-wired through the constructor path."""
    simulation = Simulation(
        protocol=PushSumRevert(0.1),
        environment=UniformEnvironment(N_HOSTS),
        values=uniform_values(N_HOSTS, seed=42),
        seed=42,
        mode="exchange",
        events=[FailureEvent(round=FAILURE_ROUND, model=CorrelatedFailure(0.5, highest=True))],
    )
    return simulation.run(ROUNDS)


def main() -> None:
    # Path 1: declarative.  The spec survives a JSON round-trip unchanged
    # and runs on the vectorised backend ("auto" resolves to it here).
    assert SPEC == ScenarioSpec.from_json(SPEC.to_json())
    assert SPEC.resolved_backend() == "vectorized"
    dynamic = run_scenario(SPEC)

    # Path 2: imperative.  Same components, same seed — identical to the
    # spec executed on the per-host "agent" backend.  (The vectorised run
    # above agrees statistically, not bit-for-bit: see DESIGN.md §7.)
    by_hand = run_imperatively()
    agent = run_scenario(SPEC.replace(backend="agent"))
    assert agent.errors() == by_hand.errors(), "spec and constructor paths must agree"
    assert abs(dynamic.final_error() - agent.final_error()) < 2.0

    # Path 3: sweep λ over the same scenario (λ=0 is static Push-Sum).
    sweep = Sweep.over(SPEC, **{"protocol_params.reversion": [0.0, 0.1]})
    static, _dynamic_again = SweepRunner().run(sweep).results

    print(
        f"{N_HOSTS} hosts with values uniform on [0, 100); the highest-valued half "
        f"silently departs after round {FAILURE_ROUND}.\n"
        f"True average before the departure: {static.rounds[FAILURE_ROUND - 1].truth:.1f}; "
        f"after: {static.rounds[-1].truth:.1f}.\n"
    )
    table = render_series_table(
        "round",
        static.round_indices(),
        {
            "true average": static.truths(),
            "static push-sum error": static.errors(),
            "push-sum-revert (lambda=0.1) error": dynamic.errors(),
        },
        every=5,
    )
    print(table)
    print(
        "\nThe static protocol keeps reporting the pre-departure average forever; "
        f"its final error is {static.final_error():.1f}. Push-Sum-Revert re-converges "
        f"to the survivors' average with a final error of {dynamic.final_error():.1f}."
    )

    # Path 4: the same gossip on a lossy radio.  A network model named in
    # the spec (repro.network) drops 20% of all pushed messages; the lost
    # mass leaves the system for good, and only the reversion step's
    # continual re-injection keeps the estimate anchored.  This is the
    # dynamic condition the paper's protocols were designed for but its
    # evaluation (perfect delivery) never exercised.
    lossy = run_scenario(SPEC.replace(
        mode="push",  # push gossip: a lost message truly destroys its mass
        protocol_params={"reversion": 0.05},  # push mixes slower than push/pull
        network="bernoulli-loss",
        network_params={"p": 0.2},
        events=(),
    ))
    print(
        f"\nOn a 20%-lossy network (no failures), Push-Sum-Revert still tracks the "
        f"average: final error {lossy.final_error():.1f} "
        f"(vs {dynamic.final_error():.1f} after the correlated departure above)."
    )

    # Path 5: never compute the same scenario twice.  A ResultStore
    # (repro.store) addresses results by the spec's canonical hash
    # (spec.key()), so re-running an identical sweep serves every cell
    # from the cache, bit-identically — the CLI equivalent is
    # `repro-aggregate sweep --config … --cache-dir .repro-cache`.
    with tempfile.TemporaryDirectory() as cache_dir, ResultStore(cache_dir) as store:
        start = time.perf_counter()
        cold = SweepRunner(store=store).run(sweep)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = SweepRunner(store=store).run(sweep)
        warm_seconds = time.perf_counter() - start
        assert warm.cache_hits() == len(warm) and warm.executed() == 0
        assert warm.rows == cold.rows and warm.render() == cold.render()
        print(
            f"\nResult store: cold sweep ran {cold.executed()} cells in "
            f"{cold_seconds * 1000:.0f} ms; warm re-run served {warm.cache_hits()}/"
            f"{len(warm)} from cache in {warm_seconds * 1000:.0f} ms, bit-identical."
        )

    # Path 6: topology-restricted gossip at kernel speed.  Hosts only reach
    # peers within wireless range (a random-geometric graph, seeded by
    # graph_seed, identical on every backend); "auto" still picks the
    # vectorised backend because the kernels sample peers through a sparse
    # CSR adjacency instead of the whole population.  The same works for
    # "ring", "grid", "erdos-renyi" and "spatial-grid" (the paper's
    # Section IV-A 1/d² spatial gossip) — see examples/specs/
    # geometric_sweep.json for the CLI-ready sweep.
    geometric = SPEC.replace(
        name="quickstart-wireless-range",
        environment="random-geometric",
        environment_params={"radius": 0.08, "graph_seed": 7},
    )
    assert geometric.resolved_backend() == "vectorized"
    result = run_scenario(geometric)
    print(
        f"\nRandom-geometric topology (radius 0.08, n={N_HOSTS}) on the "
        f"{result.metadata['backend']} backend: final error "
        f"{result.final_error():.2f} vs truth {result.final_truth():.2f}."
    )

    # Path 7: asynchronous gossip on the event engine (repro.events).
    # Hosts tick on their own clocks — half at 1 Hz, half at 0.125 Hz —
    # messages take 0–2 simulated seconds, and push/pull exchanges are
    # realised as request/reply event pairs, which is why latency ×
    # exchange is legal here and rejected under engine="rounds".  Records
    # now carry `time` (seconds), sampled once per second; mass
    # conservation is checked at every sample.
    asynchronous = SPEC.replace(
        name="quickstart-asynchronous-gossip",
        engine="events",
        engine_params={
            "synchronized": False,
            "rates": {"distribution": "heterogeneous",
                      "fast": 1.0, "slow": 0.125, "fast_fraction": 0.5},
        },
        network="latency",
        network_params={"distribution": "uniform", "low": 0, "high": 2},
        events=(),
    )
    # This combination has a vectorised calendar too (path 10); pin the
    # agent realisation here to show the reference event loop first.
    assert asynchronous.resolved_backend() == "vectorized"
    clocked = run_scenario(asynchronous.replace(backend="agent"))
    print(
        f"\nEvent engine, heterogeneous clocks (half the hosts 8x slower) over a "
        f"0-2 s latency network: error {clocked.final_error():.2f} at "
        f"t={clocked.times()[-1]:.0f} s (vs {dynamic.final_error():.2f} for "
        f"lockstep rounds).  Example spec: examples/specs/heterogeneous_rates.json."
    )

    # Path 8: dynamic membership at kernel speed (DESIGN.md §7 "Mutable
    # membership and churn").  Churn —
    # a failure draw plus fresh arrivals every round — now masks and grows
    # the kernel arrays directly, and a contact trace compiles into a
    # time-varying CSR whose union-window components define group-relative
    # truth.  Both resolve to the vectorised backend under "auto".
    churning = SPEC.replace(
        name="quickstart-churn",
        events=(
            {"event": "churn", "start": 10, "stop": 40, "model": "uncorrelated",
             "fraction": 0.01, "arrivals_per_round": 8},
        ),
    )
    assert churning.resolved_backend() == "vectorized"
    churned = run_scenario(churning)
    replaying = ScenarioSpec(
        name="quickstart-trace-replay",
        protocol="push-sum-revert",
        protocol_params={"reversion": 0.05},
        environment="trace",
        environment_params={"devices": 64, "hours": 2.0},
        workload="uniform",
        n_hosts=64,
        rounds=120,
        mode="exchange",
        group_relative=True,
        seed=7,
    )
    assert replaying.resolved_backend() == "vectorized"
    replayed = run_scenario(replaying)
    print(
        f"\nDynamic membership on the kernels: churn (1% leaves, 8 join, every "
        f"round 10-40) ends at {churned.alive_counts()[-1]} hosts with error "
        f"{churned.final_error():.2f}; a 64-device synthetic contact trace "
        f"replays with mean group-relative error {replayed.final_error():.2f} "
        f"(mean group size {replayed.group_size_series()[-1]:.1f}).  Example "
        f"spec: examples/specs/trace_churn.json."
    )

    # Path 9: observe a run without perturbing it (repro.obs, DESIGN.md
    # §11).  Probes record phase spans (sampling, matching, scatter, CSR
    # rebuilds), per-round delivery counters and membership events — but
    # never draw from the RNG streams, so the traced run is bit-identical
    # to the bare one.  The CLI spelling is
    # `repro-aggregate run --config … --trace out.jsonl --metrics` and
    # `repro-aggregate obs report out.jsonl`.
    trace = TraceRecorder()
    traced = run_scenario(churning, probe=trace)
    assert traced.to_payload() == churned.to_payload(), "probes must not change results"
    print(
        f"\nObservability: the traced churn run recorded {len(trace)} structured "
        f"records and stayed bit-identical to the bare run.\n"
    )
    print(render_report(trace.records, every=10))

    # Path 10: the same asynchronous scenario, ten times the population,
    # on the bucketed vectorised calendar (repro.api.kernel_run,
    # DESIGN.md §7 "What a bucket is").  "auto" resolves engine="events" to the vectorised
    # backend here, so the calendar drains per time bucket through
    # whole-subset kernel calls instead of one Python callback per event.
    big_async = asynchronous.replace(
        name="quickstart-fast-asynchronous-sweep", n_hosts=10_000,
    )
    assert big_async.resolved_backend() == "vectorized"
    start = time.perf_counter()
    fast = run_scenario(big_async)
    fast_seconds = time.perf_counter() - start
    print(
        f"\nBucketed vectorised calendar: the heterogeneous-clock latency "
        f"scenario at n=10,000 finished in {fast_seconds:.1f} s on the "
        f"{fast.metadata['backend']} backend (error {fast.final_error():.2f} "
        f"at t={fast.times()[-1]:.0f} s)."
    )


if __name__ == "__main__":
    main()

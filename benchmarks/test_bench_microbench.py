"""Micro-benchmarks of the simulation substrate itself.

These are genuine pytest-benchmark timings (many iterations) of the hot
paths: one agent-engine gossip round, one vectorised kernel step, one
counter-matrix merge and one FM-sketch estimate.  They exist so performance
regressions in the substrate are visible independently of the figure
experiments.
"""

import pytest

from repro.api import BACKENDS, ScenarioSpec
from repro.api.kernel_run import KernelRun
from repro.baselines import PushSum
from repro.core import CountSketchReset, PushSumRevert
from repro.environments import UniformEnvironment
from repro.simulator import Simulation
from repro.simulator.sparse import CSRTopology
from repro.simulator.vectorized import (
    VectorizedCountSketchReset,
    VectorizedPushSumRevert,
    VectorizedSketchCount,
)
from repro.sketches import CounterMatrix, FMSketch
from repro.topology.graphs import ring_lattice_edges
from repro.workloads import uniform_values


@pytest.mark.benchmark(group="micro-engine")
def test_engine_round_push_sum_exchange(benchmark):
    values = uniform_values(500, seed=1)
    simulation = Simulation(
        PushSumRevert(0.01), UniformEnvironment(500), values, seed=1, mode="exchange"
    )
    benchmark(simulation.step)


@pytest.mark.benchmark(group="micro-engine")
def test_engine_round_push_sum_push_mode(benchmark):
    values = uniform_values(500, seed=1)
    simulation = Simulation(PushSum(), UniformEnvironment(500), values, seed=1, mode="push")
    benchmark(simulation.step)


@pytest.mark.benchmark(group="micro-engine")
def test_engine_round_count_sketch_reset(benchmark):
    simulation = Simulation(
        CountSketchReset(bins=32, bits=20),
        UniformEnvironment(200),
        [1.0] * 200,
        seed=1,
        mode="exchange",
    )
    benchmark(simulation.step)


@pytest.mark.benchmark(group="micro-vectorized")
def test_vectorized_push_sum_step(benchmark):
    kernel = VectorizedPushSumRevert(uniform_values(50000, seed=1), 0.01, seed=1)
    benchmark(kernel.step)


def _step_all_live_and_half_failed(kernel_class):
    """One round on an all-live kernel plus one on a kernel with half its
    hosts failed: after a failure event every round runs the live-subset path."""
    full = kernel_class(20000, bins=32, bits=20, seed=1)
    halved = kernel_class(20000, bins=32, bits=20, seed=1)
    halved.fail_random_fraction(0.5)

    def step_both():
        full.step()
        halved.step()

    return step_both


@pytest.mark.benchmark(group="micro-vectorized")
def test_vectorized_count_sketch_step(benchmark):
    benchmark(_step_all_live_and_half_failed(VectorizedCountSketchReset))


@pytest.mark.benchmark(group="micro-vectorized")
def test_vectorized_sketch_count_step(benchmark):
    benchmark(_step_all_live_and_half_failed(VectorizedSketchCount))


@pytest.mark.benchmark(group="micro-vectorized")
def test_vectorized_sparse_matching(benchmark):
    """One three-pass edge matching on a ring, through a kernel's own live view."""
    n = 10_000
    topology = CSRTopology.from_edges(*ring_lattice_edges(n, k=2), n)
    kernel = VectorizedPushSumRevert(uniform_values(n, seed=1), 0.01, topology=topology, seed=1)
    kernel.fail_random_fraction(0.25)
    left, right = benchmark(lambda: kernel.live_view().sample_matching(kernel.rng))
    assert left.size == right.size > n // 4
    assert kernel.alive[left].all() and kernel.alive[right].all()


@pytest.mark.benchmark(group="micro-vectorized")
def test_vectorized_calendar_exchange_bucket(benchmark):
    """One calendar bucket over a latency network: every live host ticks, the
    driver queues what the tick deferred, and the queue drains to empty."""
    n = 10_000
    run = KernelRun(BACKENDS.get("vectorized"), ScenarioSpec(
        protocol="push-sum-revert", protocol_params={"reversion": 0.1}, mode="exchange",
        engine="events", network="latency",
        network_params={"distribution": "uniform", "low": 0, "high": 2},
        n_hosts=n, rounds=4, seed=1, backend="vectorized",
    ))
    kernel = run.kernel
    kernel.fail_random_fraction(0.25)  # so a host's live rank is not its id

    def bucket():
        for kind, _senders, delay, *arrays in kernel.step_subset(kernel.live_index(), run.delays):
            run.defer(kind, 0, delay, *arrays)  # everyone ticked at t = 0
        slots = sorted(run.pending)
        for slot in slots:
            run.drain(*slot)
        return slots

    slots = benchmark(bucket)
    # Two legs of 0..2 each: maturities 1..4, all on a bucket edge.
    assert slots == [(1, True), (2, True), (3, True), (4, True)]
    assert not run.pending and kernel.messages_in_flight == 0
    assert kernel.messages_delivered > n


@pytest.mark.benchmark(group="micro-sketch")
def test_counter_matrix_merge(benchmark):
    a = CounterMatrix.for_value("a", 50, bins=64, bits=24)
    b = CounterMatrix.for_value("b", 50, bins=64, bits=24)
    a.increment()
    b.increment()
    benchmark(a.merge_min, b)


@pytest.mark.benchmark(group="micro-sketch")
def test_fm_sketch_estimate(benchmark):
    sketch = FMSketch(bins=64, bits=24)
    sketch.insert_many(("item", i) for i in range(2000))
    benchmark(sketch.estimate)

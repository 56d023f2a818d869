"""Tests for the vectorised uniform-gossip kernels."""

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.cutoff import default_cutoff
from repro.metrics.accuracy import error_statistics
from repro.simulator.push_sum_kernel import VectorizedPushSumRevert
from repro.simulator.sketch_kernels import VectorizedCountSketchReset, VectorizedSketchCount
from repro.sketches.fm_sketch import PHI
from repro.workloads.values import uniform_values


def stddev_error(kernel) -> float:
    """The live hosts' standard deviation from the truth, as every driver scores it."""
    return error_statistics(kernel.estimates(), kernel.truth()).stddev_error


def label_sets(labels, sizes):
    """A ``component_labels`` answer as sorted member lists (sizes cross-checked)."""
    parts = [np.nonzero(labels == index)[0].tolist() for index in range(sizes.size)]
    assert [len(part) for part in parts] == sizes.tolist()
    return sorted(parts)


class TestVectorizedPushSumRevertConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            VectorizedPushSumRevert([1.0, 2.0], mode="pull")

    @pytest.mark.parametrize("mode", ["push", "pushpull", "full-transfer"])
    def test_only_full_transfer_holds_a_history_ring(self, mode):
        kernel = VectorizedPushSumRevert(np.arange(10.0), mode=mode, history=3)
        kernel.join(np.array([1.0, 2.0]))
        rows = 12 if mode == "full-transfer" else 0
        assert kernel._history_weight.shape == kernel._history_total.shape == (rows, 3)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            VectorizedPushSumRevert([1.0, 2.0], reversion=1.5)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            VectorizedPushSumRevert([])

    def test_initial_estimates_are_own_values(self):
        kernel = VectorizedPushSumRevert([1.0, 5.0, 9.0])
        assert np.allclose(kernel.estimates(), [1.0, 5.0, 9.0])
        assert kernel.truth() == pytest.approx(5.0)


class TestVectorizedPushSumRevertDynamics:
    @pytest.mark.parametrize("mode", ["push", "pushpull"])
    def test_mass_conservation_without_reversion(self, mode):
        values = uniform_values(64, seed=2)
        kernel = VectorizedPushSumRevert(values, 0.0, mode=mode, seed=1)
        total_before = kernel.total.sum()
        weight_before = kernel.weight.sum()
        kernel.step_many(10)
        assert kernel.total.sum() == pytest.approx(total_before)
        assert kernel.weight.sum() == pytest.approx(weight_before)

    def test_mass_conservation_with_reversion_static_population(self):
        values = uniform_values(64, seed=2)
        kernel = VectorizedPushSumRevert(values, 0.2, mode="pushpull", seed=1)
        total_before = kernel.total.sum()
        kernel.step_many(10)
        assert kernel.total.sum() == pytest.approx(total_before)

    @pytest.mark.parametrize("mode", ["push", "pushpull", "full-transfer"])
    def test_converges_to_average(self, mode):
        values = uniform_values(400, seed=4)
        kernel = VectorizedPushSumRevert(values, 0.0 if mode != "full-transfer" else 0.01,
                                         mode=mode, seed=4)
        kernel.step_many(40)
        assert stddev_error(kernel) < 0.15 * np.std(values)

    def test_pushpull_converges_faster_than_push(self):
        values = uniform_values(1000, seed=4)
        push = VectorizedPushSumRevert(values, 0.0, mode="push", seed=4)
        pushpull = VectorizedPushSumRevert(values, 0.0, mode="pushpull", seed=4)
        push.step_many(8)
        pushpull.step_many(8)
        assert stddev_error(pushpull) < stddev_error(push)

    def test_lambda_zero_never_recovers_from_correlated_failure(self):
        values = uniform_values(800, seed=4)
        kernel = VectorizedPushSumRevert(values, 0.0, mode="pushpull", seed=4)
        kernel.step_many(15)
        kernel.fail_extreme_fraction(0.5, highest=True)
        kernel.step_many(30)
        # truth dropped from ~50 to ~25 but static push-sum still says ~50
        assert stddev_error(kernel) > 15.0

    def test_reversion_recovers_from_correlated_failure(self):
        values = uniform_values(800, seed=4)
        kernel = VectorizedPushSumRevert(values, 0.5, mode="pushpull", seed=4)
        kernel.step_many(15)
        kernel.fail_extreme_fraction(0.5, highest=True)
        kernel.step_many(30)
        assert stddev_error(kernel) < 15.0

    def test_full_transfer_lower_plateau_than_basic(self):
        values = uniform_values(800, seed=4)
        basic = VectorizedPushSumRevert(values, 0.1, mode="pushpull", seed=4)
        full = VectorizedPushSumRevert(values, 0.1, mode="full-transfer", seed=4)
        for kernel in (basic, full):
            kernel.step_many(15)
            kernel.fail_extreme_fraction(0.5, highest=True)
            kernel.step_many(45)
        assert stddev_error(full) < stddev_error(basic)

    def test_uncorrelated_failure_is_harmless(self):
        values = uniform_values(800, seed=4)
        kernel = VectorizedPushSumRevert(values, 0.01, mode="pushpull", seed=4)
        kernel.step_many(15)
        kernel.fail_random_fraction(0.5)
        kernel.step_many(20)
        assert stddev_error(kernel) < 5.0

    def test_fail_explicit_indices(self):
        kernel = VectorizedPushSumRevert([1.0, 2.0, 3.0, 4.0], seed=1)
        kernel.fail([0, 3])
        assert kernel.truth() == pytest.approx(2.5)
        assert kernel.estimates().size == 2

    def test_fail_fraction_bounds_checked(self):
        kernel = VectorizedPushSumRevert([1.0, 2.0], seed=1)
        with pytest.raises(ValueError):
            kernel.fail_random_fraction(1.5)
        with pytest.raises(ValueError):
            kernel.fail_extreme_fraction(-0.1, highest=True)

    def test_adaptive_push_mode_runs_and_converges(self):
        values = uniform_values(400, seed=4)
        kernel = VectorizedPushSumRevert(values, 0.05, mode="push", adaptive=True, seed=4)
        kernel.step_many(30)
        assert np.isfinite(stddev_error(kernel))
        assert stddev_error(kernel) < 10.0

    def test_same_seed_reproducible(self):
        values = uniform_values(100, seed=1)
        a = VectorizedPushSumRevert(values, 0.1, seed=9)
        b = VectorizedPushSumRevert(values, 0.1, seed=9)
        a.step_many(10)
        b.step_many(10)
        assert np.allclose(a.estimates(), b.estimates())

    @pytest.mark.parametrize("mode", ["push", "pushpull"])
    def test_estimates_are_read_only_and_survive_the_next_step(self, mode):
        # While everyone is alive estimates() copies the stored estimates; after a
        # failure it hands out the live block's, which the kernel holds: neither may
        # be written through, and a later round must not move an answer already given.
        kernel = VectorizedPushSumRevert(uniform_values(50, seed=2), 0.1, mode=mode, seed=2)
        for fail in (False, True):
            if fail:
                kernel.fail_random_fraction(0.4)
            kernel.step()
            held = kernel.estimates()
            kept = held.copy()
            with pytest.raises(ValueError):
                held[0] = -1.0
            if fail:
                assert kernel.estimates() is held  # the held block, served again as is
            kernel.step()
            assert np.array_equal(held, kept)
            assert not np.array_equal(kernel.estimates(), kept)


class TestVectorizedCountSketchReset:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            VectorizedCountSketchReset(0)
        with pytest.raises(ValueError):
            VectorizedCountSketchReset(10, bins=0)
        with pytest.raises(ValueError):
            VectorizedCountSketchReset(10, identifiers_per_host=0)

    def test_estimate_order_of_magnitude(self):
        kernel = VectorizedCountSketchReset(2000, bins=32, bits=20, seed=3)
        kernel.step_many(25)
        mean_estimate = float(np.mean(kernel.estimates()))
        assert 0.5 * 2000 < mean_estimate < 2.0 * 2000

    def test_hosts_converge_to_similar_estimates(self):
        kernel = VectorizedCountSketchReset(500, bins=16, bits=18, seed=3)
        kernel.step_many(25)
        estimates = kernel.estimates()
        assert np.ptp(estimates) < 0.2 * np.mean(estimates)

    def test_counters_bounded_by_round_count(self):
        kernel = VectorizedCountSketchReset(200, bins=8, bits=16, seed=3)
        kernel.step_many(5)
        finite = kernel.counters[kernel.counters < kernel.never_heard]
        assert finite.max() <= 5
        # Positions nobody owns (bit 15 of 200 hosts) still read never heard of: a
        # sentinel that wrapped around would have turned them into fresh counters.
        assert (kernel.counters == kernel.never_heard).any()

    def test_decay_recovers_after_failure(self):
        kernel = VectorizedCountSketchReset(1000, bins=16, bits=18, seed=3)
        kernel.step_many(20)
        kernel.fail_random_fraction(0.5)
        kernel.step_many(15)
        mean_estimate = float(np.mean(kernel.estimates()))
        assert mean_estimate < 0.85 * 1000  # has shrunk towards ~500

    def test_no_decay_never_shrinks(self):
        kernel = VectorizedCountSketchReset(1000, bins=16, bits=18, cutoff=None, seed=3)
        kernel.step_many(20)
        before = float(np.mean(kernel.estimates()))
        kernel.fail_random_fraction(0.5)
        kernel.step_many(15)
        after = float(np.mean(kernel.estimates()))
        assert after >= before * 0.95

    def test_identifiers_per_host_scaling(self):
        kernel = VectorizedCountSketchReset(50, bins=16, bits=18, identifiers_per_host=20, seed=3)
        kernel.step_many(20)
        mean_estimate = float(np.mean(kernel.estimates()))
        assert 0.4 * 50 < mean_estimate < 2.5 * 50

    def test_counter_values_for_bit_validation(self):
        kernel = VectorizedCountSketchReset(100, bins=8, bits=10, seed=1)
        with pytest.raises(ValueError):
            kernel.counter_values_for_bit(10)
        kernel.step_many(5)
        values = kernel.counter_values_for_bit(0)
        assert values.size > 0
        assert values.min() >= 0

    def test_same_seed_reproducible(self):
        a = VectorizedCountSketchReset(200, bins=8, bits=12, seed=5)
        b = VectorizedCountSketchReset(200, bins=8, bits=12, seed=5)
        a.step_many(8)
        b.step_many(8)
        assert np.array_equal(a.counters, b.counters)

    def test_pull_spreads_fresh_counters_at_least_as_fast(self):
        # Same seed -> identical peer choices; the pull response can only add
        # extra min-merges, so every counter with pull is <= its push-only
        # counterpart.
        with_pull = VectorizedCountSketchReset(1000, bins=8, bits=16, seed=5, pull=True)
        without_pull = VectorizedCountSketchReset(1000, bins=8, bits=16, seed=5, pull=False)
        with_pull.step_many(6)
        without_pull.step_many(6)
        assert (with_pull.counters <= without_pull.counters).all()

    @pytest.mark.parametrize("ring", [False, True])
    def test_live_owned_positions_stay_zero(self, ring):
        """The invariant that lets a round skip a post-merge re-pin, after every round of
        a script with failures, graceful departures and a join: push-only gossip on a
        ring lattice, or uniform push/pull with three identifiers per host."""
        if ring:
            from repro.simulator.sparse import CSRTopology
            from repro.topology.graphs import ring_lattice

            topology = CSRTopology.from_adjacency(ring_lattice(48, k=2), 48)
            kernel = VectorizedCountSketchReset(
                48, bins=8, bits=12, pull=False, topology=topology, seed=12)
            script = {
                4: lambda: kernel.fail_random_fraction(0.4),
                8: lambda: kernel.depart_gracefully([3, 4, 5]),
            }
        else:
            kernel = VectorizedCountSketchReset(60, bins=8, bits=12, identifiers_per_host=3, seed=11)
            script = {
                3: lambda: kernel.fail_random_fraction(0.3),
                5: lambda: kernel.join([1.0] * 7),
                7: lambda: kernel.depart_gracefully([1, 2, 40, 41]),
                9: lambda: kernel.fail([0, 5]),
            }
        for t in range(12):
            script.get(t, lambda: None)()
            kernel.step()
            live_owned = kernel.own_mask & kernel.alive[:, None, None]
            assert live_owned.any()
            assert not kernel.counters[live_owned].any()

    def test_ranks_and_bit_image_cover_every_row(self):
        kernel = VectorizedCountSketchReset(30, bins=4, bits=10, seed=2)
        kernel.step_many(4)
        kernel.fail_random_fraction(0.5)
        kernel.step_many(2)
        assert kernel.bit_image().shape == (30, 4, 10)
        assert kernel.ranks().shape == (30, 4)
        # estimates() ranks the live rows only, and agrees with the all-rows view.
        live_ranks = kernel.ranks()[kernel.alive]
        expected = 4 / PHI * np.exp2(live_ranks.mean(axis=1))
        assert np.array_equal(kernel.estimates(), expected)

    def test_nan_cutoff_rejected(self):
        def cutoff(k):
            return float("nan") if k == 3 else 7.0

        with pytest.raises(ValueError, match="NaN"):
            VectorizedCountSketchReset(4, bins=2, bits=6, cutoff=cutoff)


class TestAgentVsVectorizedCrossCheck:
    """The two implementations should agree on aggregate behaviour."""

    def test_push_sum_convergence_agrees(self):
        from repro.baselines import PushSum
        from repro.environments import UniformEnvironment
        from repro.simulator import Simulation

        values = uniform_values(120, seed=8)
        agent = Simulation(
            PushSum(), UniformEnvironment(len(values)), values, seed=8, mode="exchange"
        )
        agent_error = agent.run(25).final_error()
        kernel = VectorizedPushSumRevert(values, 0.0, mode="pushpull", seed=8)
        kernel.step_many(25)
        assert agent_error < 1.0
        assert stddev_error(kernel) < 1.0

    def test_count_sketch_reset_estimates_agree(self):
        from repro.core import CountSketchReset
        from repro.environments import UniformEnvironment
        from repro.simulator import Simulation

        n = 80
        agent = Simulation(
            CountSketchReset(bins=16, bits=16),
            UniformEnvironment(n),
            [1.0] * n,
            seed=8,
            mode="exchange",
        )
        agent_estimate = agent.run(15).mean_estimate()
        kernel = VectorizedCountSketchReset(n, bins=16, bits=16, seed=8)
        kernel.step_many(15)
        vector_estimate = float(np.mean(kernel.estimates()))
        # Both use 16-bin FM sketches, so both are within FM error of n and of
        # each other (the sketch randomisation differs, so allow a wide band).
        assert 0.4 * n < agent_estimate < 2.5 * n
        assert 0.4 * n < vector_estimate < 2.5 * n


class TestSparseTopologyLayer:
    """The CSR/grid-ring samplers behind topology-restricted kernels."""

    def _ring_csr(self, n=24, k=2):
        from repro.simulator.sparse import CSRTopology
        from repro.topology.graphs import ring_lattice

        return CSRTopology.from_adjacency(ring_lattice(n, k=k), n)

    def test_csr_samples_only_live_neighbors(self):
        from repro.topology.graphs import ring_lattice

        rng = np.random.default_rng(0)
        n = 24
        adjacency = ring_lattice(n, k=2)
        topo = self._ring_csr(n)
        alive = np.ones(n, dtype=bool)
        alive[::4] = False
        requesters = np.nonzero(alive)[0]
        for _ in range(20):
            targets = topo.sample_peers(requesters, alive, rng)
            for host, target in zip(requesters, targets):
                if target >= 0:
                    assert alive[target]
                    assert int(target) in adjacency[int(host)]

    def test_csr_isolated_host_gets_minus_one(self):
        from repro.simulator.sparse import CSRTopology

        rng = np.random.default_rng(1)
        # Host 2 only knows hosts 0 and 1, both of which are dead.
        topo = CSRTopology.from_adjacency({0: {2}, 1: {2}, 2: {0, 1}, 3: {4}, 4: {3}}, 5)
        alive = np.array([False, False, True, True, True])
        targets = topo.sample_peers(np.array([2, 3, 4]), alive, rng)
        assert targets[0] == -1
        assert targets[1] == 4 and targets[2] == 3

    def test_matching_is_a_matching_on_graph_edges(self):
        from repro.topology.graphs import ring_lattice

        rng = np.random.default_rng(2)
        n = 30
        adjacency = ring_lattice(n, k=2)
        topo = self._ring_csr(n)
        alive = np.ones(n, dtype=bool)
        for _ in range(10):
            left, right = topo.sample_matching(np.arange(n), alive, rng)
            touched = np.concatenate([left, right])
            assert len(set(touched.tolist())) == touched.size  # vertex-disjoint
            for a, b in zip(left, right):
                assert int(b) in adjacency[int(a)]

    def test_grid_ring_respects_distance_law(self):
        from repro.simulator.sparse import GridRingTopology

        rng = np.random.default_rng(3)
        topo = GridRingTopology(9, 9)
        alive = np.ones(81, dtype=bool)
        center = np.array([40])  # (4, 4)
        col, row = 4, 4
        distances = []
        for _ in range(600):
            target = int(topo.sample_peers(center, alive, rng)[0])
            assert target != 40 and target >= 0
            d = abs(target % 9 - col) + abs(target // 9 - row)
            distances.append(d)
        counts = np.bincount(distances, minlength=9)
        # 1/d² law: distance 1 dominates, long links exist.
        assert counts[1] > counts[2] > counts[4]
        assert counts[5:].sum() > 0

    def test_grid_ring_never_returns_dead_hosts(self):
        from repro.simulator.sparse import GridRingTopology

        rng = np.random.default_rng(4)
        topo = GridRingTopology(4, 4)
        alive = np.ones(16, dtype=bool)
        alive[[5, 6, 9, 10]] = False
        requesters = np.nonzero(alive)[0]
        for _ in range(50):
            targets = topo.sample_peers(requesters, alive, rng)
            live_targets = targets[targets >= 0]
            assert alive[live_targets].all()

    def test_components_follow_live_mask_and_cache(self):
        from repro.topology.graphs import ring_lattice
        from repro.simulator.sparse import CSRTopology

        topo = CSRTopology.from_adjacency(ring_lattice(12, k=1), 12)
        alive = np.ones(12, dtype=bool)
        labels, sizes = topo.component_labels(alive)
        assert sizes.tolist() == [12] and not labels.any()
        assert topo.component_labels(alive)[0] is labels  # cached
        alive[[0, 6]] = False  # cut the ring twice -> two arcs
        assert label_sets(*topo.component_labels(alive)) == [[1, 2, 3, 4, 5], [7, 8, 9, 10, 11]]

    def test_grid_ring_components_follow_grid_edges_not_long_links(self):
        from repro.simulator.sparse import GridRingTopology

        topo = GridRingTopology(3, 3)
        alive = np.ones(9, dtype=bool)
        alive[[3, 4, 5]] = False  # the middle row dies: top and bottom rows split
        labels, sizes = topo.component_labels(alive)
        assert label_sets(labels, sizes) == [[0, 1, 2], [6, 7, 8]]
        assert (labels[[3, 4, 5]] == -1).all()

    def test_push_conserves_mass_on_topology(self):
        from repro.simulator.push_sum_kernel import VectorizedPushSumRevert

        topo = self._ring_csr(20)
        kernel = VectorizedPushSumRevert(
            uniform_values(20, 0.0, 10.0, seed=5), 0.0, mode="push",
            topology=topo, seed=5,
        )
        for _ in range(30):
            kernel.step()
            assert kernel.weight.sum() == pytest.approx(20.0)

    def test_isolated_host_keeps_mass_and_reports_own_value(self):
        from repro.simulator.sparse import CSRTopology
        from repro.simulator.push_sum_kernel import VectorizedPushSumRevert

        # Host 2 is cut off once 0 and 1 die; its mass must stay put.
        topo = CSRTopology.from_adjacency({0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: {4}, 4: {3}}, 5)
        kernel = VectorizedPushSumRevert(
            [1.0, 2.0, 7.0, 3.0, 4.0], 0.0, mode="push", topology=topo, seed=6,
        )
        kernel.fail([0, 1])
        for _ in range(10):
            kernel.step()
        estimates = dict(zip(np.nonzero(kernel.alive)[0].tolist(), kernel.estimates()))
        assert estimates[2] == pytest.approx(7.0)
        assert kernel.weight[2] == pytest.approx(1.0)

    def test_full_transfer_rejects_topology(self):
        from repro.simulator.push_sum_kernel import VectorizedPushSumRevert

        with pytest.raises(ValueError, match="full-transfer"):
            VectorizedPushSumRevert(
                [1.0, 2.0], 0.1, mode="full-transfer", topology=self._ring_csr(2, k=1),
            )

    def test_population_size_mismatch_rejected(self):
        from repro.simulator.push_sum_kernel import VectorizedPushSumRevert

        with pytest.raises(ValueError, match="covers 24 hosts"):
            VectorizedPushSumRevert([1.0, 2.0], topology=self._ring_csr(24))


class TestKernelMembership:
    """join / depart_gracefully on the array kernels (DESIGN.md §12)."""

    def test_join_grows_push_sum_population(self):
        values = uniform_values(10, seed=0)
        kernel = VectorizedPushSumRevert(values, 0.1, seed=0)
        new_ids = kernel.join([5.0, 6.0])
        assert new_ids.tolist() == [10, 11]
        assert kernel.n == 12
        assert int(kernel.alive.sum()) == 12
        # New hosts start knowing only themselves (weight 1, own value).
        assert kernel.weight[10:].tolist() == [1.0, 1.0]
        assert kernel.total[10:].tolist() == [5.0, 6.0]
        # The truth immediately reflects the grown population...
        assert kernel.truth() == pytest.approx(np.mean(list(values) + [5.0, 6.0]))
        # ...and the estimates converge toward it.
        kernel.step_many(40)
        assert abs(np.mean(kernel.estimates()) - kernel.truth()) < 1.0

    def test_empty_join_is_a_no_op(self):
        kernel = VectorizedPushSumRevert([1.0, 2.0], 0.0, seed=0)
        assert kernel.join([]).size == 0
        assert kernel.n == 2

    @pytest.mark.parametrize("kernel_class", [VectorizedPushSumRevert, VectorizedCountSketchReset])
    def test_live_rank_dies_with_the_membership_epoch(self, kernel_class):
        if kernel_class is VectorizedPushSumRevert:
            kernel = kernel_class(uniform_values(40, seed=0), 0.1, seed=0)
        else:
            kernel = kernel_class(40, bins=8, bits=12, seed=0)
        def check_epoch():
            rank, live = kernel.live_rank(), kernel.live_index()
            assert rank.shape == (kernel.n,) and not rank.flags.writeable
            assert np.array_equal(rank[live], np.arange(live.size))
            assert (rank[~kernel.alive] == -1).all()
            # Within an epoch every reader gets the same object.
            kernel.step()
            assert kernel.live_rank() is rank and kernel.live_index() is live

        check_epoch()
        for end_epoch in (
            lambda: kernel.fail([3, 4, 3]),
            lambda: kernel.fail_random_fraction(0.25),
            lambda: kernel.fail_extreme_fraction(0.2, values=np.arange(kernel.n, dtype=float)),
            lambda: kernel.join([1.0] * 5),  # growth: the rank must cover the new rows
            lambda: kernel.depart_gracefully(kernel.live_index()[:2].tolist()),
        ):
            stale = kernel.live_rank()
            end_epoch()
            assert kernel.live_rank() is not stale
            check_epoch()
        assert kernel.n == 45 and 0 < kernel.live_index().size < 40

    def test_join_under_topology_rejected(self):
        from repro.simulator.sparse import CSRTopology
        from repro.topology.graphs import ring_lattice

        topo = CSRTopology.from_adjacency(ring_lattice(8, k=1), 8)
        kernel = VectorizedPushSumRevert([1.0] * 8, 0.0, topology=topo, seed=0)
        with pytest.raises(ValueError, match="agent engine"):
            kernel.join([3.0])

    def test_join_grows_counting_kernels(self):
        kernel = VectorizedCountSketchReset(16, bins=16, bits=16, seed=0)
        kernel.join([0.0] * 4)
        assert kernel.n == 20
        kernel.step_many(25)
        # The sketch counts the grown population (within sketch bias).
        assert np.mean(kernel.estimates()) > 16.0

    def test_graceful_departure_transfers_mass(self):
        kernel = VectorizedPushSumRevert([float(i) for i in range(8)], 0.0,
                                         mode="push", seed=1)
        total_weight = kernel.weight.sum()
        total_mass = kernel.total.sum()
        kernel.depart_gracefully([2, 5])
        assert int(kernel.alive.sum()) == 6
        # The departing hosts handed every drop of mass to survivors.
        assert kernel.weight.sum() == pytest.approx(total_weight)
        assert kernel.total.sum() == pytest.approx(total_mass)
        assert kernel.weight[[2, 5]].tolist() == [0.0, 0.0]
        # So the network still converges to the *original* average, exactly
        # like the agent engine's sign_off_mass baseline.
        kernel.step_many(60)
        assert np.mean(kernel.estimates()) == pytest.approx(3.5, abs=0.2)

    def test_graceful_departure_refreshes_the_heirs_stored_estimates(self):
        # estimates() is served from ``_last_estimate``, so an heir's entry
        # must move with the mass it inherits (it stayed stale before).
        kernel = VectorizedPushSumRevert([0.0, 10.0, 20.0, 30.0], 0.0, seed=1)
        kernel.depart_gracefully([0])
        live = np.nonzero(kernel.alive)[0]
        fresh = kernel.total[live] / kernel.weight[live]
        assert (kernel.weight[live] > 1.0).any()  # somebody inherited
        assert np.array_equal(kernel._last_estimate[live], fresh)
        assert np.array_equal(kernel.estimates(), fresh)

    def test_graceful_departure_of_everyone_drops_mass(self):
        kernel = VectorizedPushSumRevert([1.0, 2.0], 0.0, seed=0)
        kernel.depart_gracefully([0, 1])
        assert int(kernel.alive.sum()) == 0
        # The mass leaves with the leavers, as the agent's sign-off drops it: the
        # kernel books it as a negative injection and as no lost message, so the
        # view alone closes the books.
        assert kernel.mass_view() == (0.0, 0.0, -2.0, 0.0)

    @pytest.mark.parametrize("mode", ["push", "full-transfer"])
    def test_a_massless_row_on_the_live_block_keeps_its_last_estimate(self, mode):
        # Full-Transfer under heavy loss leaves hosts no parcel reached massless; in
        # push mode host 4 is emptied by hand, and a topology that leaves it without
        # neighbours keeps it so.  After a failure the round runs on a gathered block,
        # whose refresh must still skip exactly the massless rows.
        from repro.simulator.sparse import CSRTopology

        others = [host for host in range(10) if host != 4]
        topology = CSRTopology.from_edges(
            np.array(others[:-1]), np.array(others[1:]), 10
        ) if mode == "push" else None
        kernel = VectorizedPushSumRevert(
            np.arange(10.0), 0.0, mode=mode, loss=0.7 if mode == "full-transfer" else 0.0,
            topology=topology, seed=3,
        )
        kernel.step()
        kernel.fail([0, 9])
        massless = 4
        if mode == "push":
            kernel.weight[massless] = kernel.total[massless] = 0.0
        live = kernel.live_index()
        for _ in range(3):
            before = kernel._last_estimate.copy()
            kernel.step()
            weight, total = kernel.weight[live], kernel.total[live]
            has_weight = weight > 1e-12
            assert not has_weight.all()
            expected = before[live]
            expected[has_weight] = total[has_weight] / weight[has_weight]
            assert np.array_equal(kernel._last_estimate[live], expected)
            if mode == "push":
                assert kernel._last_estimate[massless] == before[massless]

    def test_graceful_departure_disowns_sketch_positions(self):
        kernel = VectorizedCountSketchReset(16, bins=16, bits=14,
                                            cutoff=default_cutoff, seed=0)
        kernel.step_many(15)
        owned = kernel.own_mask[list(range(8))].copy()
        assert owned.any()
        kernel.depart_gracefully(list(range(8)))
        # The departed hosts source nothing any more...
        assert not kernel.own_mask[list(range(8))].any()
        kernel.step_many(5)
        # ...so positions no live host sources now age on every live host
        # instead of being re-pinned to zero each round.
        live = np.nonzero(kernel.alive)[0]
        unsourced = owned.any(axis=0) & ~kernel.own_mask[live].any(axis=0)
        assert unsourced.any()
        bins_idx, bits_idx = np.nonzero(unsourced)
        aged = kernel.counters[live[:, None], bins_idx, bits_idx]
        assert (aged > 0).all()

    def test_graceful_departure_never_beats_silent_failure(self):
        # Mirrors the agent invariant (test_extensions): a graceful
        # departure's estimate is never larger than a silent failure's —
        # disowned positions start decaying immediately.
        silent = VectorizedCountSketchReset(64, bins=16, bits=14,
                                            cutoff=default_cutoff, seed=3)
        graceful = VectorizedCountSketchReset(64, bins=16, bits=14,
                                              cutoff=default_cutoff, seed=3)
        departing = list(range(32))
        silent.step_many(10)
        graceful.step_many(10)
        silent.fail(departing)
        graceful.depart_gracefully(departing)
        silent.step_many(30)
        graceful.step_many(30)
        assert np.mean(graceful.estimates()) <= np.mean(silent.estimates()) + 1e-6


class TestSketchKernelMemoryBound:
    """A Count-Sketch-Reset round holds one pre-round snapshot of the counters plus
    chunks, and the read-out only chunks: one more whole-matrix gather in either
    (a round's ``sent`` or ``pulled``, a read-out's live image) breaks the bound.

    The round's allowance beyond the snapshot is absolute: 0.3 × the bytes of int16
    counters of this shape (691 200 B), since the chunks and the O(n) index arrays
    do not shrink with one-byte counters."""

    @staticmethod
    def _traced_peak(call) -> int:
        """Bytes ``call()`` allocates at its peak above what was traced before it."""
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before

    def test_round_and_read_out_stay_within_one_snapshot(self):
        kernel = VectorizedCountSketchReset(4000, bins=16, bits=18, seed=0)
        assert kernel.counters.dtype == np.uint8
        state = kernel.counters.nbytes
        extras = 0.3 * kernel.counters.size * np.dtype(np.int16).itemsize
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            step = self._traced_peak(kernel.step)
            read_out = self._traced_peak(kernel.estimates)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert step <= state + extras, f"step() peaked {step / state:.2f}x the counters"
        assert read_out <= 0.25 * state, f"estimates() peaked {read_out / state:.2f}x the counters"
        assert "own_mask" not in vars(kernel)


#: A fresh interpreter's warm-up run, then three timed repeats of one kernel spec; it
#: prints the minor page faults (``ru_minflt``) of each repeat as a JSON list.
FAULTS_CHILD = """
import json, resource
from repro.api import ScenarioSpec, run_scenario
spec = ScenarioSpec(**json.loads({spec!r}))
run_scenario(spec)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_scenario(spec)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="glibc's dynamic mmap threshold",
)
class TestKernelTemporariesReuseTheHeap:
    """Importing the kernels' base lifts glibc's mmap threshold once (DESIGN.md §7), so
    a warm repeat run takes its population-sized temporaries from reused heap memory,
    not from fresh pages: a handful of minor faults, where each temporary above the
    default 128 KiB threshold took hundreds.  Each spec runs in a fresh interpreter,
    with the allocator at its defaults, since a test that ran before in this process
    can have lifted the threshold itself."""

    @pytest.mark.parametrize("spec", [
        dict(protocol="count-sketch-reset",
             protocol_params={"bins": 16, "bits": 18, "cutoff": "default"},
             workload="constant", n_hosts=4_000, rounds=2, backend="vectorized"),
        dict(protocol="push-sum-revert", mode="push", n_hosts=20_000, rounds=10,
             backend="vectorized"),
    ], ids=["count-sketch-reset", "push-sum-revert-push"])
    def test_a_repeat_run_faults_in_no_fresh_pages(self, spec):
        source_root = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source_root),
                                                          env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", FAULTS_CHILD.format(spec=json.dumps(spec))],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        faults = json.loads(child.stdout.splitlines()[-1])
        assert max(faults) < 50, f"minor faults per repeat run: {faults}"


class TestBenchShapesPinnedPayloads:
    """The four kernel workloads of ``bench/workloads.py::scenario_kwargs`` at n = 2 000.

    Same shapes (halfway uncorrelated failure included), plus stored per-host
    estimates, so the digest covers every float a kernel refactor could move.
    Captured at e6750a6, the commit before Push-Sum-Revert began serving
    ``estimates()`` from its refresh; a PR that means to move them re-pins
    them and says why.  ``ring_exchange`` was re-pinned at the child of
    76a6142, where the edge matcher's priorities became iid uniforms (same
    law, new RNG stream).
    """

    PUSH_SUM = dict(protocol="push-sum-revert", protocol_params={"reversion": 0.1})
    SHAPES = {
        "uniform_push": dict(PUSH_SUM, mode="push", environment="uniform", rounds=30),
        "ring_exchange": dict(PUSH_SUM, mode="exchange", environment="ring", rounds=16),
        "events_latency": dict(
            PUSH_SUM, mode="exchange", engine="events", network="latency",
            network_params={"distribution": "uniform", "low": 0, "high": 2}, rounds=8,
        ),
        "sketch_reset": dict(
            protocol="count-sketch-reset",
            protocol_params={"bins": 16, "bits": 18, "cutoff": "default"},
            workload="constant", rounds=2,
        ),
    }

    @pytest.mark.parametrize(
        "name, payload_digest",
        [
            ("uniform_push", "cc571f2193c4d6963f04f3ae8474d5bb"),
            ("ring_exchange", "1499adb7a483e559806dd47169c516df"),
            ("events_latency", "8ddf7d14d924e25f77eb8f2cec77b104"),
            ("sketch_reset", "e735010da5792d95fa21df7102046a74"),
        ],
    )
    def test_payload_is_bit_identical(self, name, payload_digest):
        from repro.api import ScenarioSpec, run_scenario

        shape = self.SHAPES[name]
        failure = {
            "event": "failure", "round": shape["rounds"] // 2,
            "model": "uncorrelated", "fraction": 0.5,
        }
        spec = ScenarioSpec(
            **shape, n_hosts=2000, seed=0, name=name, backend="vectorized",
            store_estimates=True, events=(failure,),
        )
        payload = json.dumps(run_scenario(spec).to_payload(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest()[:32] == payload_digest


def _failure(round_index, model, fraction, **extra):
    event = {"event": "failure", "round": round_index, "model": model, "fraction": fraction}
    return ({**event, **extra},)


class TestTopologyPinnedPayloads:
    """Four topology-restricted runs, one per sampler path, with stored estimates.

    Captured at c90acb3, the commit before liveness moved off the shared
    topology into each kernel's ``LiveView`` (and the matcher began
    compacting by index): same RNG calls in the same order, so every bit holds.
    The three exchange runs were re-pinned at the child of 76a6142, where the
    edge matcher's priorities became iid uniforms (same law, new RNG stream);
    ``grid-push-correlated-failure`` never matches and kept its digest.
    """

    PUSH_SUM = dict(
        protocol="push-sum-revert", protocol_params={"reversion": 0.1},
        store_estimates=True, backend="vectorized",
    )
    SHAPES = {
        "ring-exchange-failure-groups": dict(
            PUSH_SUM, mode="exchange", environment="ring", environment_params={"k": 2},
            n_hosts=600, rounds=16, seed=3, group_relative=True,
            events=_failure(8, "uncorrelated", 0.5),
        ),
        "grid-push-correlated-failure": dict(
            PUSH_SUM, mode="push", environment="grid", n_hosts=576, rounds=16, seed=4,
            events=_failure(6, "correlated", 0.3, highest=True),
        ),
        "spatial-grid-exchange": dict(
            PUSH_SUM, mode="exchange", environment="spatial-grid", n_hosts=400, rounds=12,
            seed=5, events=_failure(5, "uncorrelated", 0.25),
        ),
    }

    @pytest.mark.parametrize(
        "name, payload_digest",
        [
            ("ring-exchange-failure-groups", "91cef77229899ff7426983ee38d17682"),
            ("grid-push-correlated-failure", "08a8d3f5a09fa0f164339ed5b667aac3"),
            ("trace-churn", "a0f7710d9eb54bb90c5a385b5db95c1c"),
            ("spatial-grid-exchange", "85c30cf6378395abd49e1eacd5eddec1"),
        ],
    )
    def test_payload_is_bit_identical(self, name, payload_digest):
        from repro.api import ScenarioSpec, run_scenario

        if name == "trace-churn":  # the committed example spec, as the CLI smoke step runs it
            root = pathlib.Path(__file__).resolve().parents[1]
            spec = ScenarioSpec.from_json((root / "examples/specs/trace_churn.json").read_text())
        else:
            spec = ScenarioSpec(**self.SHAPES[name])
        payload = json.dumps(run_scenario(spec).to_payload(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest()[:32] == payload_digest


class TestTraceCSRTopology:
    """The time-varying CSR replays traces exactly as the agent environment."""

    def _topology(self, **kwargs):
        from repro.mobility import haggle_dataset
        from repro.simulator.sparse import TraceCSRTopology

        return TraceCSRTopology(haggle_dataset(1), **kwargs)

    @staticmethod
    def _round_adjacency(topology, t):
        """Round ``t``'s contact graph as ``{host: set(peers)}``."""
        from repro.obs.probe import NULL_PROBE

        csr = topology._round_csr(t, NULL_PROBE)
        return {
            host: set(csr.indices[csr.indptr[host] : csr.indptr[host + 1]].tolist())
            for host in range(csr.n)
        }

    def test_round_adjacency_matches_agent_environment(self):
        from repro.environments.trace import TraceEnvironment
        from repro.mobility import haggle_dataset

        trace = haggle_dataset(1)
        environment = TraceEnvironment(trace)
        topology = self._topology()
        alive = np.ones(trace.n_devices, dtype=bool)
        for t in range(0, 600, 7):
            expected = environment._adjacency(t)
            got = {host: peers for host, peers in self._round_adjacency(topology, t).items() if peers}
            expected_sets = {h: set(p) for h, p in expected.items() if p}
            assert got == expected_sets, f"round {t}"

    def test_group_components_match_agent_environment(self):
        from repro.environments.trace import TraceEnvironment
        from repro.mobility import haggle_dataset

        trace = haggle_dataset(1)
        environment = TraceEnvironment(trace)
        topology = self._topology()
        alive = np.ones(trace.n_devices, dtype=bool)
        alive_set = set(range(trace.n_devices))
        for t in range(0, 900, 13):
            expected = sorted(sorted(group) for group in environment.groups(alive_set, t))
            got = label_sets(*topology.component_labels(alive, round_index=t))
            assert got == expected, f"round {t}"

    def test_components_respect_dead_bridges(self):
        # A dead host may still *bridge* two live hosts in the union graph
        # (the agent rule: components first, alive-intersection second).
        from repro.mobility.traces import ContactRecord, ContactTrace
        from repro.simulator.sparse import TraceCSRTopology

        trace = ContactTrace(
            n_devices=3,
            records=[
                ContactRecord(0, 1, 0.0, 3600.0),
                ContactRecord(1, 2, 0.0, 3600.0),
            ],
            name="bridge",
        )
        topology = TraceCSRTopology(trace, round_seconds=30.0)
        alive = np.array([True, False, True])
        assert label_sets(*topology.component_labels(alive, round_index=10)) == [[0, 2]]

    def test_rebuild_is_bit_deterministic(self):
        first = self._topology()
        second = self._topology()
        alive = np.ones(first.n, dtype=bool)
        alive[[1, 4]] = False
        for t in (0, 120, 240, 600, 601):
            assert self._round_adjacency(first, t) == self._round_adjacency(second, t)
            l1, s1 = first.component_labels(alive, round_index=t)
            l2, s2 = second.component_labels(alive, round_index=t)
            assert np.array_equal(l1, l2) and np.array_equal(s1, s2)

    def test_validates_parameters(self):
        from repro.mobility import haggle_dataset
        from repro.simulator.sparse import TraceCSRTopology

        trace = haggle_dataset(1)
        with pytest.raises(ValueError):
            TraceCSRTopology(trace, round_seconds=0.0)
        with pytest.raises(ValueError):
            TraceCSRTopology(trace, group_window_seconds=-1.0)

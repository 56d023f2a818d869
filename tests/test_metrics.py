"""Tests for error metrics, convergence summaries, cost models and recorders."""

import math

import numpy as np
import pytest

from repro.metrics import (
    CostSummary,
    convergence_round,
    error_statistics,
    group_truths,
    plateau_error,
    protocol_cost_summary,
    reconvergence_round,
)


class TestAccuracy:
    def test_error_statistics_scalar_and_per_host_truths(self):
        stats = error_statistics([9.0, 12.0], 10.0)
        assert stats == (pytest.approx(math.sqrt(2.5)), 2.0, 1.5, 10.5)
        assert stats.stddev_error == stats[0] and stats.mean_estimate == 10.5
        assert error_statistics([9.0, 12.0], np.array([9.0, 10.0])).max_abs_error == 2.0
        assert all(math.isnan(value) for value in error_statistics([], 4.0))

    def test_stddev_is_the_root_mean_square_from_truth(self):
        # The paper's "standard deviation from the correct value": RMS of
        # estimate minus truth, not the spread around the estimates' mean.
        assert error_statistics([3.0, 5.0], 4.0).stddev_error == pytest.approx(1.0)
        assert error_statistics([6.0, 6.0], 4.0) == (2.0, 2.0, 2.0, 6.0)
        assert error_statistics([4.0, 4.0, 4.0], 4.0) == (0.0, 0.0, 0.0, 4.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_delta_whose_square_overflows_scores_inf_without_a_warning(self):
        stats = error_statistics([0.0, 1e200], 5e199)
        assert stats.stddev_error == math.inf
        assert stats[1:] == (5e199, 5e199, 5e199)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("backend", ["agent", "vectorized"])
    def test_a_run_over_huge_values_scores_without_a_warning(self, backend):
        from repro.api import ScenarioSpec, run_scenario

        result = run_scenario(ScenarioSpec(
            protocol="push-sum-revert", n_hosts=50, rounds=4, backend=backend,
            workload="uniform", workload_params={"low": 0, "high": 1e200},
        ))
        assert result.rounds[-1].stddev_error == math.inf

    def test_group_relative_errors(self):
        # Hosts 0 and 1 form one group, host 2 its own: each is scored
        # against its own group's aggregate.
        labels, sizes = np.array([0, 0, 1]), np.array([2, 1])
        values = np.array([10.0, 12.0, 100.0])
        truths = group_truths("average", labels, sizes, values)
        assert truths.tolist() == [11.0, 11.0, 100.0]
        assert (values - truths).tolist() == [-1.0, 1.0, 0.0]
        assert group_truths("count", labels, sizes).tolist() == [2.0, 2.0, 1.0]
        assert group_truths("max", labels, sizes, values).tolist() == [12.0, 12.0, 100.0]
        assert group_truths("min", labels, sizes, values).tolist() == [10.0, 10.0, 100.0]

    def test_group_relative_errors_skips_missing_groups(self):
        # A group with no live member (size 0) contributes no host truth.
        labels, sizes = np.array([1]), np.array([0, 1])
        assert group_truths("average", labels, sizes, np.array([7.0])).tolist() == [7.0]


    def test_group_truths_of_no_live_hosts_is_empty(self):
        labels, sizes = np.array([], dtype=np.int64), np.array([0, 0])
        for kind in ("count", "average", "max", "min"):
            assert group_truths(kind, labels, sizes, np.array([])).size == 0


class TestConvergence:
    def test_convergence_round_basic(self):
        assert convergence_round([5.0, 2.0, 0.5, 0.4], 1.0) == 2
        assert convergence_round([5.0, 2.0], 1.0) is None

    def test_convergence_round_sustained(self):
        errors = [5.0, 0.5, 3.0, 0.5, 0.5, 0.5]
        assert convergence_round(errors, 1.0, sustained=3) == 3

    def test_convergence_round_start(self):
        errors = [0.1, 5.0, 0.1]
        assert convergence_round(errors, 1.0, start=1) == 2

    def test_convergence_round_validation(self):
        with pytest.raises(ValueError):
            convergence_round([1.0], -1.0)
        with pytest.raises(ValueError):
            convergence_round([1.0], 1.0, sustained=0)

    def test_reconvergence_round(self):
        errors = [0.1, 0.1, 9.0, 5.0, 0.5]
        assert reconvergence_round(errors, 1.0, disturbance_round=2) == 2
        assert reconvergence_round(errors, 0.1, disturbance_round=2) is None

    def test_plateau_error(self):
        assert plateau_error([9.0, 2.0, 2.0], tail=2) == 2.0
        with pytest.raises(ValueError):
            plateau_error([], tail=2)
        with pytest.raises(ValueError):
            plateau_error([1.0], tail=0)


class TestCostSummary:
    def test_bytes_per_round(self):
        cost = CostSummary(protocol="x", state_bytes=100, message_bytes=100, messages_per_round=4)
        assert cost.bytes_per_round == 400

    def test_amortized_bytes(self):
        cost = CostSummary(protocol="x", state_bytes=100, message_bytes=100, messages_per_round=1)
        assert cost.amortized_bytes(10) == 10.0
        with pytest.raises(ValueError):
            cost.amortized_bytes(0)

    def test_protocol_cost_summary_sketch(self):
        cost = protocol_cost_summary(name="sketch", bins=64, bits=24, counter_bytes=2)
        assert cost.message_bytes == 64 * 24 * 2

    def test_protocol_cost_summary_bit_sketch(self):
        cost = protocol_cost_summary(name="bits", bins=64, bits=24, counter_bytes=0)
        assert cost.message_bytes == (64 * 24 + 7) // 8

    def test_protocol_cost_summary_mass(self):
        cost = protocol_cost_summary(name="mass", mass_values=2)
        assert cost.message_bytes == 16
        assert cost.messages_per_round == 1

    def test_invert_average_cheaper_than_multiple_insertion(self):
        multiple = protocol_cost_summary(name="mi", bins=64, bits=40, counter_bytes=0)
        invert = protocol_cost_summary(name="ia", mass_values=2)
        assert invert.bytes_per_round < multiple.bytes_per_round

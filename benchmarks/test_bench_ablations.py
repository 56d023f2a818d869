"""The DESIGN.md §6 design-choice ablations, against their committed outputs."""

import numpy as np

from repro.experiments.ablations import (
    run_adaptive_lambda_ablation,
    run_cutoff_slope_ablation,
    run_full_transfer_parameter_ablation,
    run_push_vs_pushpull_ablation,
    run_summation_cost_ablation,
)


def test_ablation_push_vs_pushpull(golden):
    result = run_push_vs_pushpull_ablation(n_hosts=4000, rounds=40, seed=0)
    # Push/pull converges at least as fast as push-only (paper: ~2x faster).
    assert result.outcomes["pushpull"] <= result.outcomes["push"]
    golden("ablation_push_vs_pushpull", result.render())


def test_ablation_adaptive_lambda(golden):
    result = run_adaptive_lambda_ablation(n_hosts=4000, rounds=60, seed=0)
    assert set(result.outcomes) == {"fixed", "adaptive"}
    golden("ablation_adaptive_lambda", result.render())


def test_ablation_full_transfer_parameters(golden):
    result = run_full_transfer_parameter_ablation(n_hosts=3000, rounds=60, seed=0)
    # A longer estimation history lowers the plateau for the same parcels.
    assert result.outcomes["N=4, T=3"] <= result.outcomes["N=4, T=1"] + 0.5
    golden("ablation_full_transfer_parameters", result.render())


def test_ablation_cutoff_slope(golden):
    result = run_cutoff_slope_ablation(n_hosts=3000, rounds=40, seed=0)
    assert all(np.isfinite(value) for value in result.outcomes.values())
    golden("ablation_cutoff_slope", result.render())


def test_ablation_summation_cost(golden):
    result = run_summation_cost_ablation()
    # Invert-Average is cheaper per sum once the sketch is amortised.
    assert result.outcomes["ratio"] > 1.0
    golden("ablation_summation_cost", result.render())

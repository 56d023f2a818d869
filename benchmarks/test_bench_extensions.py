"""The extension experiments (DESIGN.md §6 and §8), against their committed outputs."""

from repro.experiments.extensions import (
    render_departure_comparison,
    render_extrema_comparison,
    render_loss_sweep,
    render_rate_heterogeneity_sweep,
    run_departure_comparison,
    run_extrema_comparison,
    run_loss_sweep,
    run_rate_heterogeneity_sweep,
)


def test_extension_graceful_vs_silent_departure(golden):
    result = run_departure_comparison(n_hosts=400, rounds=50, departure_round=15, seed=0)
    # Graceful sign-off never hurts, and it rescues the protocols that cannot
    # forget on their own.
    static = result.final_errors["push-sum (static)"]
    sketch = result.final_errors["count-sketch-reset"]
    assert sketch["graceful"] <= sketch["silent"] + 1e-6
    # The reverting protocol recovers either way.
    revert = result.final_errors["push-sum-revert (lambda=0.1)"]
    assert revert["silent"] < static["silent"]
    golden("extension_departure", render_departure_comparison(result))


def test_extension_extrema_freshness(golden):
    result = run_extrema_comparison(n_hosts=300, rounds=60, departure_round=15, seed=0)
    # The static maximum survives its owner's departure forever; the
    # freshness-limited variant re-converges to the surviving maximum.
    assert result.static_final() > 0.0
    assert result.reset_final() < result.static_final()
    golden("extension_extrema", render_extrema_comparison(result))


def test_extension_loss_rate_sweep(golden):
    result = run_loss_sweep(n_hosts=400, rounds=50, seed=0)
    psr = result.relative_plateau["push-sum-revert"]
    sketch = result.relative_plateau["count-sketch-reset"]
    # Loss hurts both protocols monotonically (small sampling wiggles aside).
    assert psr[0.5] > psr[0.0]
    assert sketch[0.5] > sketch[0.0]
    # The crossing the paper never measured: Count-Sketch-Reset is the more
    # accurate protocol on a mildly lossy network (identifiers re-announce
    # every round), but once loss slows propagation past its freshness
    # cutoff the estimate collapses, while Push-Sum-Revert's reversion keeps
    # re-minting lost mass and degrades gracefully.
    assert sketch[0.0] < psr[0.0]
    assert sketch[0.5] > psr[0.5]
    golden("extension_loss_sweep", render_loss_sweep(result))


def test_extension_rate_heterogeneity(golden):
    result = run_rate_heterogeneity_sweep(n_hosts=400, duration=60.0, seed=0)
    psr = result.convergence_seconds["push-sum-revert"]
    sketch = result.convergence_seconds["count-sketch-reset"]
    # Every ratio converges within the horizon for both protocols: slow
    # hosts initiate exchanges rarely, but fast initiators keep sampling
    # them as responders, so heterogeneity slows mixing without stopping it.
    assert all(value is not None for value in psr.values())
    assert all(value is not None for value in sketch.values())
    # Convergence time stretches with heterogeneity, yet far less than the
    # slow hosts' gossip period alone would suggest (16x slower clocks do
    # not cost 16x the homogeneous convergence time).
    assert psr[16.0] > psr[1.0]
    assert sketch[16.0] > sketch[1.0]
    assert psr[16.0] < 16.0 * psr[1.0]
    assert sketch[16.0] < 16.0 * sketch[1.0]
    golden("extension_rate_heterogeneity", render_rate_heterogeneity_sweep(result))

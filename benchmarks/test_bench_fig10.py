"""Benchmark: Figure 10 — dynamic averaging under correlated failures.

Paper setup: as Figure 8 but the highest-valued half of the hosts fails
(true average 50 → 25).  Panel (a) is basic Push-Sum-Revert; panel (b) adds
the Full-Transfer optimisation (N=4 parcels, T=3 round history).  Paper
headline numbers for panel (b): λ=0.5 converges in <10 rounds at σ≈2.13;
λ=0.1 takes ≈35 rounds but reaches σ≈0.694.
"""

import pytest

from repro.experiments.fig10_correlated import FIG10, render_fig10, run_fig10


@pytest.mark.benchmark(group="fig10")
def test_fig10_correlated_failures(benchmark, save_rendering):
    result = benchmark.pedantic(run_fig10, args=(FIG10,), rounds=1, iterations=1)
    rendering = render_fig10(result)
    save_rendering("fig10", rendering)
    print("\n" + rendering)

    # Panel (a): the static protocol (lambda=0) never recovers.
    assert result.plateau(0.0) > 17.0
    # Larger lambda recovers faster but plateaus higher than lambda=0.1.
    assert result.recovery_rounds(0.5, threshold=15.0) is not None
    assert result.plateau(0.5) > result.plateau(0.1)

    # Panel (b): Full-Transfer lowers the plateau for the same lambda and
    # lands near the paper's headline numbers (2.13 at 0.5, 0.694 at 0.1).
    assert result.plateau(0.5, full_transfer=True) < result.plateau(0.5)
    assert result.plateau(0.1, full_transfer=True) < result.plateau(0.1)
    assert result.plateau(0.1, full_transfer=True) < 2.0
    assert result.plateau(0.5, full_transfer=True) < 6.0
    recovery = result.recovery_rounds(0.5, threshold=5.0, full_transfer=True)
    assert recovery is not None and recovery <= 15

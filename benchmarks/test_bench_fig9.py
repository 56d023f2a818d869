"""Benchmark: Figure 9 — dynamic sketch counting under failure.

Paper setup: 100 000 hosts each holding 1, half removed after 20 rounds;
naive sketch counting versus Count-Sketch-Reset with cutoff 7 + k/4.
Scaled setup: ``FIG9``, 5 000 hosts, 32 bins.  Expected shape: the naive sketch's
error jumps to ≈ the removed population and stays there; Count-Sketch-Reset
returns to a small error within ~10 rounds.
"""

import pytest

from repro.experiments.fig9_counting_failure import FIG9, render_fig9, run_fig9


@pytest.mark.benchmark(group="fig9")
def test_fig9_counting_under_failure(benchmark, save_rendering):
    result = benchmark.pedantic(run_fig9, args=(FIG9,), rounds=1, iterations=1)
    rendering = render_fig9(result)
    save_rendering("fig9", rendering)
    print("\n" + rendering)

    removed = result.n_hosts // 2
    # Naive counting never forgets the failed half.
    assert result.naive_final_error() > 0.5 * removed
    # Count-Sketch-Reset recovers to well under the removed population…
    assert result.limited_final_error() < 0.2 * removed
    # …within roughly ten rounds of the failure (paper: "within 10 rounds").
    recovery = result.recovery_rounds(0.2 * removed)
    assert recovery is not None and recovery <= 15

"""Figure 6 — bit-counter distributions of converged networks.

Paper setup: fully converged Count-Sketch-Reset networks of 10³/10⁴/10⁵
hosts; per-bit CDFs of the counter values; the high-probability bound is
size-independent and fits f(k) ≈ 7 + k/4.  Scaled setup: 10³/4·10³/10⁴
hosts with 32 bins.
"""

import numpy as np

from repro.experiments.fig6_counter_cdf import FIG6, render_fig6, run_fig6


def test_fig6_counter_distributions(golden):
    result = run_fig6(FIG6)

    # The distribution of low-bit counters is (nearly) size-independent.
    for bit in (0, 1, 2):
        medians = [float(np.median(result.counters[size][bit])) for size in result.sizes]
        assert max(medians) - min(medians) <= 3.0
    # The fitted bound is linear with a shallow slope, like the paper's 7+k/4.
    assert 0.1 < result.pooled_fit.slope < 0.6
    assert 3.0 < result.pooled_fit.intercept < 12.0
    golden("fig6", render_fig6(result))

"""Benchmark: Figure 11 — trace-driven dynamic averaging and summation.

Paper setup: the three CRAWDAD Cambridge/Haggle traces (9/12/41 devices),
one gossip round per 30 s, group-relative errors, λ ∈ {0, 0.001, 0.01} for
averaging and cutoff off/on/slow for the size estimate (100 identifiers per
device).  This benchmark replays the synthetic stand-in traces for datasets
1 and 2 over their first 24 hours (full-length runs for all three datasets
are available through ``python -m repro experiments --profile full``).

Expected shape: reversion-enabled variants track the running group
aggregate with bounded error; the reversion-free variants drift.
"""

import pytest

from repro.experiments.fig11_traces import FIG11, render_fig11, run_fig11


@pytest.mark.benchmark(group="fig11")
def test_fig11_trace_driven_aggregation(benchmark, save_rendering):
    result = benchmark.pedantic(run_fig11, args=(FIG11,), rounds=1, iterations=1)
    rendering = render_fig11(result)
    save_rendering("fig11", rendering)
    print("\n" + rendering)

    for data in result.datasets.values():
        # Reversion tracks the group average at least as well as static
        # Push-Sum over the whole trace (Fig 11's headline comparison).
        assert data.mean_error("lambda=0.01") <= data.mean_error("lambda=0") + 0.5
        # The cutoff-enabled size estimate tracks the group size better than
        # the cutoff-free (static) sketch.
        assert data.mean_error("reversion on", size=True) <= data.mean_error(
            "reversion off", size=True
        ) + 0.1
        # The size estimate stays within about half the correct value on
        # average (paper: "remains within half of the correct value").
        mean_group_size = sum(data.group_size) / len(data.group_size)
        assert data.mean_error("reversion on", size=True) <= max(1.0, mean_group_size)

"""Figure 8 — dynamic averaging under uncorrelated failures.

Paper setup: 100 000 hosts, values U[0, 100), push/pull uniform gossip,
50 % random hosts removed after 20 rounds, λ ∈ {0, 0.001, 0.01, 0.1, 0.5}.
Scaled setup here: ``FIG8``, 5 000 hosts (the shape is size-independent;
see DESIGN.md §4).  Expected shape: every λ rides through the failure without
any lasting error increase.
"""

from repro.experiments.fig8_uncorrelated import FIG8, render_fig8, run_fig8


def test_fig8_uncorrelated_failures(golden):
    result = run_fig8(FIG8)

    # Shape checks: uncorrelated failures do not hurt any reversion constant.
    for reversion, errors in result.errors.items():
        assert errors[-1] <= errors[result.failure_round - 2] + 5.0, (
            f"lambda={reversion} degraded after an uncorrelated failure"
        )
    # The static protocol and small lambdas end essentially converged.
    assert result.final_error(0.0) < 2.0
    assert result.final_error(0.001) < 2.0
    assert result.final_error(0.01) < 3.0
    golden("fig8", render_fig8(result))

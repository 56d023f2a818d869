"""Derive the Count-Sketch-Reset freshness cutoff f(k) experimentally.

Section IV-A of the paper chooses the cutoff "based on data summarised in
Figure 6": simulate a converged network, inspect the distribution of
freshness counters per bit index, bound each distribution with high
probability, and fit a line through the bounds.  This example repeats that
derivation at three network sizes and prints:

* the per-bit counter CDFs (the content of Figure 6);
* the fitted linear bound next to the paper's f(k) = 7 + k/4;
* what happens to the fitted bound if the gossip uses push only (no pull
  response) — slower spreading needs a more generous cutoff.

Run it with::

    python examples/counter_distribution.py
"""

from repro.analysis import render_table
from repro.experiments import FIG6, render_fig6, run_fig6

SIZES = (500, 2000, 8000)


def main() -> None:
    result = run_fig6(FIG6.replace(seed=1), sizes=SIZES)
    print(render_fig6(result))
    # The same networks with push-only gossip (no pull response).
    push_only = run_fig6(FIG6.replace(seed=1, mode="push"), sizes=SIZES)

    rows = []
    for size in SIZES:
        push_pull, push = result.fits[size], push_only.fits[size]
        rows.append(
            [
                f"{size} hosts",
                round(push_pull.intercept, 2),
                round(push_pull.slope, 3),
                round(push.intercept, 2),
                round(push.slope, 3),
            ]
        )
    print(
        "\nEffect of the pull response on the required cutoff "
        "(push/pull spreads counters faster, so the bound is tighter):\n"
    )
    print(
        render_table(
            ["network", "push/pull intercept", "slope", "push-only intercept", "slope"], rows
        )
    )
    print(
        "\nThe paper's uniform-gossip cutoff f(k) = 7 + k/4 sits just above the "
        "fitted push/pull bounds at every size — the bound is independent of the "
        "network size, which is exactly what lets Count-Sketch-Reset run without "
        "knowing how many hosts exist."
    )


if __name__ == "__main__":
    main()

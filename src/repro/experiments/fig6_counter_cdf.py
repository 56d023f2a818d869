"""Figure 6: distribution of Count-Sketch-Reset freshness counters.

The paper simulates fully converged Count-Sketch-Reset networks of 1 000,
10 000 and 100 000 hosts and plots, for each bit index k, the CDF of the
counter values N[·][k] across the network.  Two observations drive the
protocol design:

* the distributions are essentially independent of the network size (so a
  counter cutoff need not know n);
* the high-probability upper bound of the distribution grows linearly in
  the bit index, fitted as f(k) ≈ 7 + k/4.

This experiment reproduces both: it collects the per-bit counter CDFs for
several network sizes and fits the linear bound, reporting the fitted
intercept and slope next to the paper's 7 and 0.25.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.cdf import cdf_at
from repro.analysis.cutoff_fit import CutoffFit, fit_linear_cutoff
from repro.analysis.render import render_table
from repro.api.backends import BACKENDS
from repro.api.spec import ScenarioSpec

__all__ = ["FIG6", "Fig6Result", "run_fig6", "render_fig6"]

#: Figure 6's converged network at the configuration behind
#: ``benchmarks/output/fig6.txt``: a 32 x 20 Count-Sketch-Reset after 30
#: rounds; :func:`run_fig6` sets ``n_hosts`` once per network size.
FIG6 = ScenarioSpec(
    name="fig6-counter-cdf",
    protocol="count-sketch-reset",
    protocol_params={"bins": 32, "bits": 20},
    workload="constant",
    rounds=30,
    seed=0,
    backend="vectorized",
)


@dataclass
class Fig6Result:
    """Per-size, per-bit counter distributions plus the fitted linear cutoff."""

    sizes: Tuple[int, ...]
    bins: int
    bits: int
    convergence_rounds: int
    seed: int
    #: size → bit index → observed finite counter values.
    counters: Dict[int, Dict[int, np.ndarray]] = field(default_factory=dict)
    #: size → fitted linear bound for that size.
    fits: Dict[int, CutoffFit] = field(default_factory=dict)
    #: fit pooled over all sizes (the analogue of the paper's single f(k)).
    pooled_fit: CutoffFit = None  # type: ignore[assignment]

    def cdf(self, size: int, bit_index: int, points: Sequence[float]) -> np.ndarray:
        """The CDF of counter values for ``bit_index`` at network size ``size``."""
        return cdf_at(self.counters[size][bit_index], points)

    def observed_bits(self, size: int) -> List[int]:
        """Bit indices with any finite counter observations at ``size``."""
        return sorted(self.counters[size])


def run_fig6(
    spec: ScenarioSpec = FIG6,
    *,
    sizes: Sequence[int] = (1000, 4000, 10000),
    min_samples: int = 10,
    quantile: float = 0.99,
) -> Fig6Result:
    """Collect converged counter distributions of ``spec`` at several network sizes.

    The per-size kernels are built through the vectorised execution backend
    (:mod:`repro.api.backends`) — this experiment reads raw counter state
    (:meth:`~repro.simulator.sketch_kernels.VectorizedCountSketchReset.counter_values_for_bit`),
    which only the vectorised realisation exposes.
    """
    bits = spec.protocol_params["bits"]
    result = Fig6Result(
        sizes=tuple(int(size) for size in sizes),
        bins=spec.protocol_params["bins"],
        bits=bits,
        convergence_rounds=spec.rounds,
        seed=spec.seed,
    )
    pooled: Dict[int, List[np.ndarray]] = {}
    vectorized = BACKENDS.get("vectorized")
    for size in result.sizes:
        kernel = vectorized.build_kernel(spec.replace(n_hosts=size, name=f"fig6 n={size}"))
        kernel.step_many(spec.rounds)
        per_bit: Dict[int, np.ndarray] = {}
        for bit_index in range(bits):
            values = kernel.counter_values_for_bit(bit_index)
            if values.size:
                per_bit[bit_index] = values
                pooled.setdefault(bit_index, []).append(values)
        result.counters[size] = per_bit
        fit_input = {bit: values for bit, values in per_bit.items() if values.size >= min_samples}
        if len(fit_input) >= 2:
            result.fits[size] = fit_linear_cutoff(
                fit_input, probability=quantile, min_samples=min_samples
            )
    result.pooled_fit = fit_linear_cutoff(
        {bit: np.concatenate(parts) for bit, parts in pooled.items()},
        probability=quantile,
        min_samples=min_samples,
    )
    return result


def render_fig6(result: Fig6Result, *, max_counter: int = 12) -> str:
    """Render per-bit CDFs (one block per network size) plus the fitted cutoff."""
    points = list(range(max_counter + 1))
    blocks: List[str] = []
    for size in result.sizes:
        rows = []
        for bit_index in result.observed_bits(size):
            cdf_values = result.cdf(size, bit_index, points)
            rows.append([f"bit {bit_index}"] + [round(float(p), 3) for p in cdf_values])
        headers = [f"{size} hosts"] + [f"<= {point}" for point in points]
        blocks.append(render_table(headers, rows))
    fit_rows = []
    for size, fit in result.fits.items():
        fit_rows.append([f"{size} hosts", round(fit.intercept, 2), round(fit.slope, 3)])
    fit_rows.append(
        ["pooled", round(result.pooled_fit.intercept, 2), round(result.pooled_fit.slope, 3)]
    )
    fit_rows.append(["paper f(k)=7+k/4", 7.0, 0.25])
    blocks.append(
        "Fitted high-probability counter bound f(k) = intercept + slope*k:\n"
        + render_table(["network", "intercept", "slope"], fit_rows)
    )
    header = (
        "Figure 6 — bit-counter CDFs of converged Count-Sketch-Reset networks "
        f"({result.bins} bins x {result.bits} bits, {result.convergence_rounds} rounds)\n"
    )
    return header + "\n\n".join(blocks)

"""Bandwidth and storage cost summaries.

Section IV-B of the paper argues that Invert-Average (Count-Sketch-Reset
for the size × Push-Sum-Revert for the average) is far cheaper than the
multiple-insertion summation once the sketch cost is amortised over many
summations.  These helpers quantify that comparison for the ablation
benchmark: per-round bytes per host for each protocol configuration.

The bytes and messages a run actually puts on the radio are not counted
here: every engine keeps them as cumulative counters
(``delivery_counters()``), and each
:class:`~repro.simulator.result.RoundRecord` carries their change since
the previous record (DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostSummary", "protocol_cost_summary"]


@dataclass(frozen=True)
class CostSummary:
    """Per-host, per-round communication and storage cost of a protocol."""

    protocol: str
    state_bytes: int
    message_bytes: int
    messages_per_round: int

    @property
    def bytes_per_round(self) -> int:
        """Radio bytes one host transmits per gossip round."""
        return self.message_bytes * self.messages_per_round

    def amortized_bytes(self, aggregates_shared: int) -> float:
        """Per-aggregate cost when the same traffic serves ``aggregates_shared`` queries."""
        if aggregates_shared < 1:
            raise ValueError("aggregates_shared must be >= 1")
        return self.bytes_per_round / aggregates_shared


def protocol_cost_summary(
    *,
    name: str,
    bins: int = 0,
    bits: int = 0,
    counter_bytes: int = 2,
    mass_values: int = 0,
    fanout: int = 1,
) -> CostSummary:
    """Build a :class:`CostSummary` from protocol shape parameters.

    ``bins``/``bits`` describe sketch-style payloads (``bins*bits`` counters
    of ``counter_bytes`` bytes, or packed bits when ``counter_bytes`` is 0);
    ``mass_values`` describes mass-style payloads (8-byte floats).
    """
    sketch_bytes = 0
    if bins and bits:
        sketch_bytes = bins * bits * counter_bytes if counter_bytes else (bins * bits + 7) // 8
    mass_bytes = 8 * mass_values
    payload = sketch_bytes + mass_bytes
    return CostSummary(
        protocol=name,
        state_bytes=payload,
        message_bytes=payload,
        messages_per_round=max(1, fanout),
    )

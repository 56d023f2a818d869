"""Static distributed aggregation baselines.

These are the protocols the paper builds on and compares against:

* :class:`PushSum` / :class:`PushPull` — Kempe, Dobra and Gehrke's
  gossip-based averaging (Figure 1 of the paper), in push and push/pull
  form;
* :class:`SketchCount` — Considine et al.'s duplicate-insensitive counting
  and summation with Flajolet–Martin sketches (Figure 2);
* :class:`EpochPushSum` — the "simplest form of dynamic aggregation": a
  static protocol restarted every epoch (Section II-C / Jelasity &
  Montresor);
* :class:`ExtremaGossip` / :class:`ExtremaReset` — max/min gossip and its
  age-reset extension, beyond the paper's figures.
"""

from repro.baselines.count_sketch import SketchCount
from repro.baselines.epoch import EpochPushSum
from repro.baselines.extrema import ExtremaGossip, ExtremaReset
from repro.baselines.push_sum import MassState, PushPull, PushSum

__all__ = [
    "EpochPushSum",
    "ExtremaGossip",
    "ExtremaReset",
    "MassState",
    "PushPull",
    "PushSum",
    "SketchCount",
]

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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.count_sketch": ("SketchCount",),
    "repro.baselines.epoch": ("EpochPushSum",),
    "repro.baselines.extrema": ("ExtremaGossip", "ExtremaReset"),
    "repro.baselines.push_sum": ("MassState", "PushPull", "PushSum"),
})

__all__ = [
    "EpochPushSum",
    "ExtremaGossip",
    "ExtremaReset",
    "MassState",
    "PushPull",
    "PushSum",
    "SketchCount",
]

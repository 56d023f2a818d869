"""Mobility models and contact traces.

The paper's real-world evaluation (Fig 11) replays CRAWDAD
Cambridge/Haggle contact traces: recordings of which wireless devices were
within radio range of which others, as a function of time, while carried by
people.  Those traces are not redistributable here, so this package
provides:

* :class:`~repro.mobility.traces.ContactTrace` — the trace data model
  (interval contact records, adjacency snapshots, windowed unions) plus
  readers/writers so genuine CRAWDAD dumps can be loaded when available;
* :func:`~repro.mobility.synthetic_haggle.generate_haggle_like_trace` — a
  community-based synthetic generator that reproduces the statistical
  features the evaluation depends on (small transient groups, churn between
  groups, day/night cycles) at the paper's device counts (9, 12, 41);
* :mod:`repro.mobility.stats` — trace statistics (average group size,
  contact durations, inter-contact times) used to sanity-check the
  synthetic traces against the qualitative description of the real ones.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.mobility.synthetic_haggle": (
        "HAGGLE_DATASET_SIZES",
        "generate_haggle_like_trace",
        "haggle_dataset",
    ),
    "repro.mobility.stats": (
        "average_group_size_series",
        "contact_duration_stats",
        "intercontact_time_stats",
    ),
    "repro.mobility.traces": ("ContactRecord", "ContactTrace"),
})

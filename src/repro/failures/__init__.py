"""Failure, churn and membership-change models.

The whole point of *dynamic* aggregation is surviving silent membership
changes, so the failure machinery is a first-class substrate here:

* :class:`UncorrelatedFailure` — remove a random fraction of the live
  hosts (Fig 8: the aggregate barely moves);
* :class:`CorrelatedFailure` — remove the hosts with the largest (or
  smallest) values (Fig 10: the aggregate shifts and static protocols
  never notice);
* :class:`BernoulliChurn` — continuous per-round departure/arrival churn;
* :class:`FailureEvent` / :class:`JoinEvent` / :class:`ValueChangeEvent` —
  schedule any of the above at specific rounds of a
  :class:`repro.simulator.Simulation`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.failures.models": (
        "BernoulliChurn",
        "CorrelatedFailure",
        "ExplicitFailure",
        "FailureModel",
        "UncorrelatedFailure",
    ),
    "repro.failures.schedule": ("ChurnProcess", "FailureEvent", "JoinEvent", "ValueChangeEvent"),
})

"""Workloads: host value distributions.

A *workload* is the assignment of local values to hosts.  The paper's
default workload draws values uniformly from [0, 100); counting workloads
assign every host the value 1; the motivating applications (song ratings,
road-hazard sensors) suggest skewed and clustered distributions which the
extra generators here provide for sensitivity studies.  The registry
(:mod:`repro.api.registry`) builds every registered workload from these
``*_array`` generators.

Complete figure scenarios (values + environment + events + protocol
parameters) are not assembled here: each is one module-level
:class:`~repro.api.spec.ScenarioSpec` (``FIG6`` … ``FIG11``) in its figure
module under :mod:`repro.experiments`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.values": (
        "clustered_array",
        "constant_array",
        "normal_array",
        "uniform_array",
        "uniform_values",
        "zipf_array",
    ),
})

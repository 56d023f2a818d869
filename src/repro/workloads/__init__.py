"""Workloads: host value distributions and prebuilt paper scenarios.

A *workload* is the assignment of local values to hosts.  The paper's
default workload draws values uniformly from [0, 100); counting workloads
assign every host the value 1; the motivating applications (song ratings,
road-hazard sensors) suggest skewed and clustered distributions which the
extra generators here provide for sensitivity studies.

:mod:`repro.workloads.scenarios` assembles complete experiment
configurations (values + environment + events + protocol parameters)
matching each evaluation figure, so the experiment harness, the examples
and the tests all describe runs the same way.
"""

from repro.workloads.scenarios import (
    Scenario,
    correlated_failure_scenario,
    counting_failure_scenario,
    trace_scenario,
    uncorrelated_failure_scenario,
)
from repro.workloads.values import (
    clustered_array,
    clustered_values,
    constant_array,
    constant_values,
    normal_array,
    normal_values,
    uniform_array,
    uniform_values,
    zipf_array,
    zipf_values,
)

__all__ = [
    "Scenario",
    "clustered_array",
    "clustered_values",
    "constant_array",
    "constant_values",
    "correlated_failure_scenario",
    "counting_failure_scenario",
    "normal_array",
    "normal_values",
    "trace_scenario",
    "uncorrelated_failure_scenario",
    "uniform_array",
    "uniform_values",
    "zipf_array",
    "zipf_values",
]

"""Observability: structured tracing, metrics, and phase profiling.

Every execution layer — the agent engine, the vectorised kernels and
their sparse topologies, the event engine, backend dispatch, the sweep
runner, and the result store — reports into a :class:`Probe` through
four verbs (``span``/``event``/``count``/``gauge``).  The default is
:data:`NULL_PROBE`, whose verbs are no-ops and whose ``enabled`` flag
lets hot loops skip instrumentation entirely, so an unprobed run is
bit-identical to (and as fast as) a run built before this module
existed.  Probes never touch an RNG stream, so the same holds with any
probe attached: probing changes what you *see*, never what happens.

Attach probes through the same funnel everything else uses::

    from repro import run_scenario
    from repro.obs import MetricsRegistry, TraceRecorder

    trace = TraceRecorder("run.jsonl")
    metrics = MetricsRegistry()
    result = run_scenario(spec, probe=MultiProbe(trace, metrics))
    trace.close()                 # flush the JSONL
    print(metrics.render())       # phase/counter/gauge summary table

or from the CLI: ``repro-aggregate run --config spec.json --trace
run.jsonl --metrics`` and then ``repro-aggregate obs report run.jsonl``
for the phase-time breakdown and per-round counter table.  See
DESIGN.md §13.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.probe": ("NULL_PROBE", "MultiProbe", "NullProbe", "Probe", "compose"),
    "repro.obs.report": ("render_report", "summarize_trace"),
    "repro.obs.trace": ("TraceRecorder", "read_trace"),
})

__all__ = [
    "Probe",
    "NullProbe",
    "MultiProbe",
    "NULL_PROBE",
    "compose",
    "TraceRecorder",
    "read_trace",
    "MetricsRegistry",
    "summarize_trace",
    "render_report",
]

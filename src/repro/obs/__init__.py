"""Observability: structured tracing and phase profiling.

Every execution layer — the agent engine, the vectorised kernels and
their sparse topologies, the event engine, backend dispatch, the sweep
runner, and the result store — reports into a :class:`Probe` through
four verbs (``span``/``event``/``count``/``gauge``).  The default is
:data:`NULL_PROBE`, whose verbs are no-ops and whose ``enabled`` flag
lets hot loops skip instrumentation entirely, so an unprobed run is
bit-identical to (and as fast as) a run built before this module
existed.  Probes never touch an RNG stream, so the same holds with any
probe attached: probing changes what you *see*, never what happens.

The one sink is the trace; every summary is a view of it::

    from repro import run_scenario
    from repro.obs import TraceRecorder, render_report

    trace = TraceRecorder("run.jsonl")
    result = run_scenario(spec, probe=trace)
    trace.close()                        # write the JSONL
    print(render_report(trace.records))  # plans, phases, counters, gauges, rounds

or from the CLI: ``repro-aggregate run --config spec.json --trace
run.jsonl --metrics`` prints that report to stderr, and
``repro-aggregate obs report run.jsonl`` prints the same report from the
file.  See DESIGN.md §11.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.probe": ("NULL_PROBE", "NullProbe", "Probe"),
    "repro.obs.report": ("render_report", "summarize_trace"),
    "repro.obs.trace": ("TraceRecorder", "read_trace"),
})

"""Turn a recorded JSONL trace back into human-readable tables.

This is the analysis half of :mod:`repro.obs`: given the flat record
list a :class:`~repro.obs.trace.TraceRecorder` wrote,
:func:`summarize_trace` folds it into the resolved plans, per-phase
wall-time aggregates, counter totals, gauge levels, and the per-round
series carried by ``round_end`` events, and :func:`render_report` renders
the lot with :mod:`repro.analysis.render` — the output of
``repro-aggregate obs report <trace.jsonl>`` and of ``run``/``sweep
--metrics``, which render the run's own trace.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.analysis.render import format_number, render_table

__all__ = ["summarize_trace", "render_report"]

#: ``round_end`` fields that are identity, not counters — everything else
#: becomes a column of the per-round table in first-seen order.
_ROUND_KEY_FIELDS = ("kind", "t", "name")


def summarize_trace(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a trace record list (see :mod:`repro.obs.trace`).

    Returns a dict with:

    ``phases``
        ``{span name: {count, total, min, max}}`` wall-time aggregates;
    ``counters``
        ``{counter name: total}`` summed increments;
    ``gauges``
        ``{gauge name: {last, min, max}}`` level samples;
    ``events``
        ``{event name: occurrences}``;
    ``rounds``
        the ``round_end`` event records in order — the per-round
        counter series;
    ``plans``
        the ``plan`` event records in order — one per executed run.
    """
    phases: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    events: Dict[str, int] = {}
    rounds: List[Dict[str, Any]] = []
    plans: List[Dict[str, Any]] = []
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            name = record.get("name", "?")
            seconds = float(record.get("seconds", 0.0))
            phase = phases.get(name)
            if phase is None:
                phases[name] = {
                    "count": 1,
                    "total": seconds,
                    "min": seconds,
                    "max": seconds,
                }
            else:
                phase["count"] += 1
                phase["total"] += seconds
                phase["min"] = min(phase["min"], seconds)
                phase["max"] = max(phase["max"], seconds)
        elif kind == "count":
            name = record.get("name", "?")
            counters[name] = counters.get(name, 0) + float(record.get("value", 0))
        elif kind == "gauge":
            name = record.get("name", "?")
            value = float(record.get("value", 0))
            gauge = gauges.setdefault(name, {"last": value, "min": value, "max": value})
            gauge.update(last=value, min=min(gauge["min"], value), max=max(gauge["max"], value))
        elif kind == "event":
            name = record.get("name", "?")
            events[name] = events.get(name, 0) + 1
            if name == "round_end":
                rounds.append(record)
            elif name == "plan":
                plans.append(record)
    return {
        "phases": phases, "counters": counters, "gauges": gauges, "events": events,
        "rounds": rounds, "plans": plans,
    }


def _plan_lines(plans: List[Dict[str, Any]]) -> List[str]:
    """One ``plan:`` line per distinct plan, with its run count when above one."""
    counts: Dict[str, int] = {}
    for record in plans:
        line = (
            f"plan: engine={record.get('engine')} backend={record.get('backend')} "
            f"on_calendar={record.get('on_calendar')} "
            f"rejections={','.join(record.get('rejections') or ()) or 'none'}"
        )
        counts[line] = counts.get(line, 0) + 1
    return [line if count == 1 else f"{line} ({count} runs)" for line, count in counts.items()]


def _with_mass_drift(rounds: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """``rounds`` with a ``mass_drift`` on each record that carries the mass books: the
    conserved ``at_hosts + in_flight - injected + lost`` minus its value at the run's
    first ``round_end`` (a new run starts where the round index stops increasing)."""
    drifted: List[Dict[str, Any]] = []
    base = previous = None
    for record in rounds:
        if "mass_at_hosts" in record:
            conserved = (record["mass_at_hosts"] + record["mass_in_flight"]
                         - record["mass_injected"] + record["mass_lost"])
            if base is None or record.get("round", 0) <= previous:
                base = conserved
            previous = record.get("round", 0)
            record = {**record, "mass_drift": conserved - base}
        drifted.append(record)
    return drifted


def _phase_table(phases: Dict[str, Dict[str, float]]) -> str:
    total = sum(p["total"] for p in phases.values()) or 1.0
    rows = [
        [
            name,
            int(p["count"]),
            f"{p['total'] * 1000:.2f}",
            f"{p['total'] / p['count'] * 1000:.3f}",
            f"{p['max'] * 1000:.3f}",
            f"{100 * p['total'] / total:.1f}%",
        ]
        for name, p in sorted(phases.items(), key=lambda item: -item[1]["total"])
    ]
    return render_table(["phase", "calls", "total ms", "mean ms", "max ms", "share"], rows)


def _round_table(rounds: List[Dict[str, Any]], every: int = 1) -> str:
    columns: List[str] = []
    for record in rounds:
        for key in record:
            if key not in _ROUND_KEY_FIELDS and key not in columns:
                columns.append(key)
    rows = []
    for index, record in enumerate(rounds):
        if index % every != 0 and index != len(rounds) - 1:
            continue
        rows.append([format_number(record.get(key)) for key in columns])
    return render_table(columns, rows)


def render_report(records: Sequence[Dict[str, Any]], *, every: int = 1) -> str:
    """The full ``obs report`` rendering: plans, phase breakdown, counters,
    gauges, events, rounds."""
    summary = summarize_trace(records)
    blocks: List[str] = []
    if summary["plans"]:
        blocks.append("\n".join(_plan_lines(summary["plans"])))
    if summary["phases"]:
        blocks.append("Phase-time breakdown\n" + _phase_table(summary["phases"]))
    if summary["counters"]:
        rows = [[name, f"{value:g}"] for name, value in sorted(summary["counters"].items())]
        blocks.append("Counters\n" + render_table(["counter", "total"], rows))
    if summary["gauges"]:
        rows = [
            [name, f"{g['last']:g}", f"{g['min']:g}", f"{g['max']:g}"]
            for name, g in sorted(summary["gauges"].items())
        ]
        blocks.append("Gauges\n" + render_table(["gauge", "last", "min", "max"], rows))
    if summary["events"]:
        rows = [[name, count] for name, count in sorted(summary["events"].items())]
        blocks.append("Events\n" + render_table(["event", "occurrences"], rows))
    if summary["rounds"]:
        blocks.append(
            "Per-round counters\n"
            + _round_table(_with_mass_drift(summary["rounds"]), every=every)
        )
    if not blocks:
        return "(empty trace)"
    return "\n\n".join(blocks)

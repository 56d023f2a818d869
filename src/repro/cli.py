"""Command-line front end: ``python -m repro`` / ``repro-aggregate``.

Subcommands
-----------

``run``
    Execute one declarative scenario — assembled from flags or loaded from
    a JSON spec file (``--config``) — and print its error trajectory.

``sweep``
    Expand a JSON sweep document (base scenario × axes) into a scenario
    grid, execute it (in parallel by default) and print the tidy result
    table.

``list``
    List the registered protocols, environments, failure models and
    workloads a scenario can name.  ``--capabilities`` renders the
    engine x backend x feature matrix instead: which protocols run
    vectorised under each engine, which kernels exist, and the first
    blocking feature for every non-vectorisable cell (see
    :func:`repro.api.plan.capability_matrix`).

``cache``
    Inspect and manage the content-addressed result store
    (:mod:`repro.store`): ``stats``, ``prune`` and ``clear``.  ``run``,
    ``sweep`` and ``experiments`` opt into the store with ``--cache`` /
    ``--cache-dir`` (and out with ``--no-cache``), making repeated runs of
    unchanged scenarios instant.

``experiments``
    Run the paper's evaluation figures (all of them or a subset) under the
    ``quick`` or ``full`` profile and print the rendered tables.

``demo``
    Run a small Push-Sum-Revert demonstration on a uniform network with a
    correlated failure and print the error trajectory.

``trace``
    Generate a synthetic Haggle-like contact trace and print its summary
    statistics (or write it to CSV for inspection).

``obs``
    Render a phase-time breakdown and per-round counter table from a
    structured trace recorded with ``run --trace out.jsonl`` /
    ``sweep --trace out.jsonl`` (see :mod:`repro.obs`):
    ``repro-aggregate obs report out.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import ContextManager, Dict, List, Optional

from repro.analysis.render import render_series_table, render_table
from repro.api import ENVIRONMENTS, FAILURES, NETWORKS, PROTOCOLS, WORKLOADS
from repro.api.spec import ScenarioSpec, run_scenario
from repro.api.sweep import Sweep, SweepRunner
from repro.experiments.runner import EXPERIMENTS, SCENARIO_PROFILES, run_all_experiments
from repro.mobility.stats import (
    average_group_size_series,
    contact_duration_stats,
    intercontact_time_stats,
)
from repro.mobility.synthetic_haggle import generate_haggle_like_trace, haggle_dataset
from repro.obs import NULL_PROBE, TraceRecorder, read_trace, render_report
from repro.store import DEFAULT_CACHE_DIR, ResultStore

__all__ = ["main", "build_parser"]


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the result-store flags shared by run/sweep/experiments."""
    parser.add_argument(
        "--cache", action="store_true",
        help=f"serve/record results through the result store (default dir: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result store even when --cache/--cache-dir is given",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store directory (implies --cache)",
    )


def _store_from_args(args: argparse.Namespace) -> ContextManager[Optional[ResultStore]]:
    """A context manager yielding the ResultStore the flags ask for (closed
    on exit), or None when caching is off."""
    if args.no_cache or not (args.cache or args.cache_dir):
        return contextlib.nullcontext()
    return ResultStore(args.cache_dir or DEFAULT_CACHE_DIR)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the observability flags shared by run/sweep."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a structured JSONL trace (phase spans, per-round counters) "
             "to PATH; render it with 'repro-aggregate obs report PATH'",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the run's trace report (the 'obs report' view: phase times, "
             "counters, gauges, per-round counters) to stderr",
    )


def _probe_from_args(args: argparse.Namespace):
    """The one trace recorder the --trace/--metrics flags ask for.

    ``--metrics`` alone records in memory; with neither flag the run goes
    through the zero-cost null probe and stays bit-identical.  A --trace
    path that cannot be written raises ``OSError`` here, before anything runs.
    """
    if args.trace or args.metrics:
        return TraceRecorder(args.trace)
    return NULL_PROBE


def _unwritable_trace(args: argparse.Namespace, error: OSError) -> int:
    print(f"error: cannot write trace {args.trace}: {error.strerror or error}", file=sys.stderr)
    return 2


def _parse_json_object(raw: str) -> dict:
    """Parse a flag value that must be a JSON object (e.g. network params)."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as error:
        raise argparse.ArgumentTypeError(f"invalid JSON {raw!r}: {error}") from None
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(f"expected a JSON object, got {raw!r}")
    return value


def _parse_param(item: str) -> tuple:
    """Parse one ``key=value`` flag; values are JSON when possible, else text."""
    if "=" not in item:
        raise argparse.ArgumentTypeError(f"expected key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-aggregate",
        description="Dynamic in-network aggregation: experiments and demos",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run one declarative scenario (from flags or a JSON spec)"
    )
    run.add_argument("--config", default=None, help="JSON scenario spec file")
    run.add_argument("--protocol", default=None, help="registered protocol name")
    run.add_argument("--environment", default=None, help="registered environment name")
    run.add_argument("--workload", default=None, help="registered workload name")
    run.add_argument("--hosts", type=int, default=None, help="population size")
    run.add_argument("--rounds", type=int, default=None, help="gossip rounds to simulate")
    run.add_argument("--mode", choices=("push", "exchange"), default=None)
    run.add_argument(
        "--backend", choices=("agent", "vectorized", "auto"), default=None,
        help="execution backend (default: auto — vectorised whenever supported)",
    )
    run.add_argument("--seed", type=int, default=None, help="root random seed")
    run.add_argument(
        "--network", default=None,
        help="registered network model (default: perfect delivery); "
             "e.g. --network bernoulli-loss --network-params '{\"p\": 0.2}'",
    )
    run.add_argument(
        "--network-params", type=_parse_json_object, default=None, metavar="JSON",
        help="network model parameters as a JSON object",
    )
    run.add_argument(
        "--engine", choices=("rounds", "events"), default=None,
        help="simulation engine: lockstep rounds (default) or the "
             "continuous-time event engine (repro.events)",
    )
    run.add_argument(
        "--engine-params", type=_parse_json_object, default=None, metavar="JSON",
        help="event-engine parameters as a JSON object, e.g. "
             "'{\"duration\": 120, \"rates\": {\"distribution\": \"heterogeneous\", "
             "\"fast\": 2.0, \"slow\": 0.25}}'",
    )
    run.add_argument(
        "--group-relative", action="store_true", help="measure errors per contact group"
    )
    run.add_argument(
        "-P", "--protocol-param", type=_parse_param, action="append", default=[],
        metavar="KEY=VALUE", help="protocol constructor parameter (repeatable)",
    )
    run.add_argument(
        "-E", "--environment-param", type=_parse_param, action="append", default=[],
        metavar="KEY=VALUE", help="environment parameter (repeatable)",
    )
    run.add_argument(
        "-W", "--workload-param", type=_parse_param, action="append", default=[],
        metavar="KEY=VALUE", help="workload parameter (repeatable)",
    )
    run.add_argument("--every", type=int, default=5, help="print every Nth round")
    run.add_argument("--json", action="store_true", help="print the result as JSON")
    _add_cache_arguments(run)
    _add_obs_arguments(run)

    sweep = subparsers.add_parser(
        "sweep", help="expand a JSON sweep (base scenario x axes) and run the grid"
    )
    sweep.add_argument("--config", required=True, help="JSON sweep file: {'base': ..., 'axes': ...}")
    sweep.add_argument("--serial", action="store_true", help="run in-process instead of a pool")
    sweep.add_argument("--workers", type=int, default=None, help="process-pool size")
    sweep.add_argument("--chunksize", type=int, default=1, help="scenarios per pool task")
    sweep.add_argument("--output", default=None, help="also write the table to this file")
    sweep.add_argument(
        "--progress", action="store_true",
        help="print one line per completed cell (index, cached/executed, wall time) to stderr",
    )
    _add_cache_arguments(sweep)
    _add_obs_arguments(sweep)

    list_parser = subparsers.add_parser(
        "list", help="list the registered protocols, environments, failures and workloads"
    )
    list_parser.add_argument(
        "--capabilities", action="store_true",
        help="render the engine x backend x feature capability matrix instead "
             "(which protocols run vectorised under each engine, and why not)",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect/manage the content-addressed result store"
    )
    cache.add_argument(
        "action", choices=("stats", "prune", "clear"),
        help="stats: summarise the store; prune: drop stale/old entries; clear: drop everything",
    )
    cache.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result-store directory (default: {DEFAULT_CACHE_DIR})",
    )
    cache.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="with prune: also drop entries created more than DAYS days ago",
    )

    experiments = subparsers.add_parser(
        "experiments", help="run the paper's evaluation figures and print the tables"
    )
    experiments.add_argument(
        "--profile", choices=sorted(SCENARIO_PROFILES), default="quick", help="problem-size profile"
    )
    experiments.add_argument(
        "--only", nargs="*", default=None, choices=EXPERIMENTS,
        help="subset of experiments to run",
    )
    experiments.add_argument("--seed", type=int, default=0, help="root random seed")
    experiments.add_argument(
        "--backend", choices=("agent", "vectorized", "auto"), default="vectorized",
        help="execution backend for the uniform-gossip figures (fig8/9/10)",
    )
    experiments.add_argument(
        "--no-ablations", action="store_true", help="skip the design-choice ablations"
    )
    experiments.add_argument(
        "--output", default=None, help="also write the report to this file"
    )
    _add_cache_arguments(experiments)

    demo = subparsers.add_parser(
        "demo", help="small Push-Sum-Revert demo with a correlated failure"
    )
    demo.add_argument("--hosts", type=int, default=1000)
    demo.add_argument("--rounds", type=int, default=50)
    demo.add_argument("--failure-round", type=int, default=20)
    demo.add_argument("--reversion", type=float, default=0.1)
    demo.add_argument("--seed", type=int, default=0)

    trace = subparsers.add_parser(
        "trace", help="generate a synthetic Haggle-like trace and summarise it"
    )
    trace.add_argument("--dataset", type=int, choices=(1, 2, 3), default=None,
                       help="use the preset matching a paper dataset")
    trace.add_argument("--devices", type=int, default=12)
    trace.add_argument("--hours", type=float, default=48.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--csv", default=None, help="write the trace to this CSV path")

    obs = subparsers.add_parser(
        "obs", help="render reports from structured traces recorded with --trace"
    )
    obs.add_argument("action", choices=("report",), help="report: phase/counter breakdown")
    obs.add_argument("trace_file", help="JSONL trace written by run/sweep --trace")
    obs.add_argument(
        "--every", type=int, default=1, help="print every Nth row of the per-round table"
    )
    return parser


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """Assemble the scenario: the JSON config (if any) overridden by flags."""
    payload: Dict[str, object] = {}
    if args.config:
        with open(args.config) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise SystemExit(f"{args.config}: expected a JSON object describing a scenario")
    overrides = {
        "protocol": args.protocol,
        "environment": args.environment,
        "workload": args.workload,
        "n_hosts": args.hosts,
        "rounds": args.rounds,
        "mode": args.mode,
        "seed": args.seed,
        "backend": args.backend,
        "network": args.network,
        "network_params": args.network_params,
        "engine": args.engine,
        "engine_params": args.engine_params,
    }
    for key, value in overrides.items():
        if value is not None:
            payload[key] = value
    if args.group_relative:
        payload["group_relative"] = True
    for flag, target in (
        (args.protocol_param, "protocol_params"),
        (args.environment_param, "environment_params"),
        (args.workload_param, "workload_params"),
    ):
        if flag:
            params = dict(payload.get(target) or {})
            params.update(dict(flag))
            payload[target] = params
    if "protocol" not in payload:
        raise SystemExit(
            "no protocol selected: pass --protocol or a --config spec "
            f"(registered protocols: {', '.join(PROTOCOLS.keys())})"
        )
    return ScenarioSpec.from_dict(payload)


def _print_scenario_error(error: Exception) -> None:
    """``error: ...`` on stderr; plan rejections get their structured detail.

    A :class:`repro.api.plan.PlanRejectionError` carries every blocking
    (axis, feature, reason) triple plus the nearest runnable plan — print
    them all so the user can fix the spec (or switch backend) in one go.
    """
    from repro.api.plan import PlanRejectionError

    print(f"error: {error}", file=sys.stderr)
    if isinstance(error, PlanRejectionError):
        for rejection in error.rejections:
            print(f"  [{rejection.axis}] {rejection.feature}: {rejection.reason}", file=sys.stderr)
        if error.nearest is not None:
            print(
                f"nearest runnable plan: engine={error.nearest.engine!r} "
                f"backend={error.nearest.backend!r}",
                file=sys.stderr,
            )


def _command_run(args: argparse.Namespace) -> int:
    try:
        probe = _probe_from_args(args)
    except OSError as error:
        return _unwritable_trace(args, error)
    try:
        spec = _spec_from_args(args)
        with _store_from_args(args) as store:
            if store is not None:
                store.probe = probe
            result = run_scenario(spec, store=store, probe=probe)
    except (ValueError, KeyError, TypeError) as error:
        _print_scenario_error(error)
        return _failed(probe, args, error)
    except OSError as error:
        print(f"error: cannot read {args.config}: {error}", file=sys.stderr)
        return _failed(probe, args, error)
    if store is not None:
        # Stderr, so cached and fresh runs keep bit-identical stdout.
        outcome = "hit" if store.session["hits"] else "miss (stored)"
        print(f"cache {outcome}: key {spec.key()[:12]} in {store.root}", file=sys.stderr)
    if args.json:
        print(json.dumps({"spec": spec.to_dict(), "result": result.as_dict()}, indent=2))
        _emit_obs(probe, args)
        return 0
    network_note = "" if spec.network == "perfect" else f", network={spec.network}"
    print(
        f"Scenario {spec.label()}: {spec.protocol} over {spec.environment} gossip, "
        f"{spec.n_hosts} hosts, {spec.rounds} rounds "
        f"(mode={spec.mode}, seed={spec.seed}, "
        f"backend={result.metadata.get('backend', spec.backend)}{network_note})"
    )
    if spec.network != "perfect" and result.total_lost() > 0:
        print(
            f"network {spec.network}: {result.total_lost()} messages lost, "
            f"{result.in_flight_per_round()[-1]} still in flight at the end"
        )
    print(
        render_series_table(
            "round",
            [record.round_index for record in result.rounds],
            {
                "truth": result.truths(),
                "stddev error": result.errors(),
                "alive": result.alive_counts(),
            },
            every=max(1, args.every),
        )
    )
    print(
        f"\nfinal error {result.final_error():.4g}, plateau error "
        f"{result.plateau_error():.4g}, final truth {result.final_truth():.4g}"
    )
    _emit_obs(probe, args)
    return 0


def _emit_obs(probe, args: argparse.Namespace) -> None:
    """Flush --trace / print --metrics.  Stderr only, so stdout — the part
    golden comparisons and ``--output`` files see — is byte-identical with
    or without the observability flags."""
    if args.trace:
        probe.close()
        print(f"trace: {len(probe)} records -> {probe.path}", file=sys.stderr)
    if args.metrics:
        print(render_report(probe.records), file=sys.stderr)


def _failed(probe, args: argparse.Namespace, error: Exception) -> int:
    """Exit 2 for a run that failed; its trace is still written, ending in one
    ``error`` event, so the file never shows an earlier run."""
    probe.event("error", type=type(error).__name__, message=str(error))
    _emit_obs(probe, args)
    return 2


def _command_sweep(args: argparse.Namespace) -> int:
    try:
        probe = _probe_from_args(args)
    except OSError as error:
        return _unwritable_trace(args, error)
    try:
        with open(args.config) as handle:
            sweep = Sweep.from_dict(json.load(handle))
        with _store_from_args(args) as store:
            if store is not None:
                store.probe = probe
            runner = SweepRunner(
                parallel=not args.serial,
                max_workers=args.workers,
                chunksize=args.chunksize,
                store=store,
                progress=args.progress,
                probe=probe,
            )
            result = runner.run(sweep)
    except (ValueError, KeyError, TypeError) as error:
        _print_scenario_error(error)
        return _failed(probe, args, error)
    except OSError as error:
        print(f"error: cannot read {args.config}: {error}", file=sys.stderr)
        return _failed(probe, args, error)
    text = result.render()
    print(text)
    if store is not None:
        # After the table (and never in --output) so the written table is
        # bit-identical between the cold run and a fully-cached re-run.
        print(
            f"cache: {result.cache_hits()}/{len(result)} cells cached, "
            f"{result.executed()} executed (store: {store.root})"
        )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    _emit_obs(probe, args)
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    try:
        records = read_trace(args.trace_file)
    except OSError as error:
        print(f"error: cannot read {args.trace_file}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {args.trace_file} is not a JSONL trace: {error}", file=sys.stderr)
        return 2
    print(render_report(records, every=max(1, args.every)))
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    with ResultStore(args.cache_dir) as store:
        if args.action == "stats":
            stats = store.stats()
            rows = [
                ["root", stats["root"]],
                ["schema version", stats["schema_version"]],
                ["entries", stats["entries"]],
                ["stale entries", stats["stale_entries"]],
                ["total bytes", stats["total_bytes"]],
                ["lifetime hits", stats["lifetime_hits"]],
            ]
            for protocol, count in stats["by_protocol"].items():
                rows.append([f"entries [{protocol}]", count])
            print(render_table(["result store", "value"], rows))
            return 0
        if args.action == "prune":
            try:
                removed = store.prune(older_than_days=args.older_than)
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            print(f"pruned {removed} entries from {store.root}")
            return 0
        removed = store.clear()
        print(f"cleared {removed} entries from {store.root}")
        return 0


def _command_list(args: argparse.Namespace) -> int:
    if args.capabilities:
        return _command_list_capabilities()
    rows = []
    for registry in (PROTOCOLS, ENVIRONMENTS, FAILURES, WORKLOADS, NETWORKS):
        for index, key in enumerate(sorted(registry.keys())):
            rows.append([registry.kind if index == 0 else "", key])
    for index, key in enumerate(("events", "rounds")):
        rows.append(["engine" if index == 0 else "", key])
    print(render_table(["kind", "name"], rows))
    return 0


def _command_list_capabilities() -> int:
    from repro.api.plan import capability_matrix

    matrix = capability_matrix()
    engines = matrix["engines"]
    backends = matrix["backends"]
    headers = ["protocol"] + [f"{engine}/{backend}" for engine in engines for backend in backends]
    rows = []
    reasons = []
    for row in matrix["rows"]:
        cells = [row["protocol"]]
        for engine in engines:
            for backend in backends:
                cells.append(row["cells"][engine][backend])
        rows.append(cells)
        for engine in engines:
            reason = row["reasons"].get(engine)
            if reason:
                reasons.append(f"  {row['protocol']} ({engine}): {reason}")
    print(render_table(headers, rows))
    print()
    print(render_table(
        ["vectorised kernel", "modes", "parameters", "topology"],
        [
            [kernel["kernel"], kernel["modes"], kernel["parameters"] or "-", kernel["topology"]]
            for kernel in matrix["kernels"]
        ],
    ))
    if reasons:
        print("\nwhy not vectorised (first blocking feature per cell):")
        print("\n".join(reasons))
    print("\nnotes:")
    for note in matrix["notes"]:
        print(f"  - {note}")
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    with _store_from_args(args) as store:
        report = run_all_experiments(
            args.profile,
            seed=args.seed,
            only=args.only,
            include_ablations=not args.no_ablations,
            backend=args.backend,
            store=store,
        )
    text = report.text()
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    return 0


def _command_demo(args: argparse.Namespace) -> int:
    try:
        spec = ScenarioSpec(
            protocol="push-sum-revert",
            protocol_params={"reversion": args.reversion},
            n_hosts=args.hosts,
            rounds=args.rounds,
            seed=args.seed,
            events=({"event": "failure", "round": args.failure_round, "model": "correlated",
                     "fraction": 0.5, "highest": True},),
            backend="vectorized",
        )
    except ValueError as error:
        _print_scenario_error(error)
        return 2
    result = run_scenario(spec)
    rounds = [record.round_index + 1 for record in result.rounds]
    series = {"stddev error": result.errors(), "true average": result.truths()}
    print(
        f"Push-Sum-Revert demo: {args.hosts} hosts, lambda={args.reversion}, "
        f"highest-valued half removed at round {args.failure_round}"
    )
    print(render_series_table("round", rounds, series, every=2))
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    if args.dataset is not None:
        trace = haggle_dataset(args.dataset)
    else:
        trace = generate_haggle_like_trace(args.devices, duration_hours=args.hours, seed=args.seed)
    durations = contact_duration_stats(trace)
    intercontact = intercontact_time_stats(trace)
    times, sizes = average_group_size_series(trace, step_seconds=3600.0)
    print(f"Trace {trace.name}: {trace.n_devices} devices, {trace.duration / 3600.0:.1f} hours, "
          f"{len(trace)} contacts")
    print(render_table(
        ["statistic", "contacts", "inter-contact gaps"],
        [
            ["count", durations["count"], intercontact["count"]],
            ["mean (s)", durations["mean"], intercontact["mean"]],
            ["median (s)", durations["median"], intercontact["median"]],
            ["p90 (s)", durations["p90"], intercontact["p90"]],
        ],
    ))
    print()
    print(render_series_table("hour", [round(t, 1) for t in times], {"avg group size": sizes}, every=4))
    if args.csv:
        trace.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "list":
        return _command_list(args)
    if args.command == "cache":
        return _command_cache(args)
    if args.command == "experiments":
        return _command_experiments(args)
    if args.command == "demo":
        return _command_demo(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "obs":
        return _command_obs(args)
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

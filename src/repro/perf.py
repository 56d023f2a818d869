"""Core performance benchmark: the agent engine vs the vectorised backend.

The ROADMAP's north star is to run the paper's scenarios as fast as the
hardware allows; this module is the measuring stick.  It times identical
declarative scenarios (:class:`~repro.api.ScenarioSpec`) on the ``"agent"``
and ``"vectorized"`` execution backends across population sizes, derives
per-(protocol, size) speedups, and serialises everything to
``BENCH_core.json`` — the repo's committed perf trajectory.  Three entry
points share the implementation:

* ``repro-aggregate bench`` / ``python -m repro bench`` — the CLI;
* ``python benchmarks/bench_core.py`` — the standalone script;
* :func:`run_core_benchmark` — the library call (used by tests).

``--smoke`` runs a seconds-long configuration for CI; the committed
numbers come from the full default configuration.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.render import render_table
from repro.api.spec import ScenarioSpec, run_scenario

__all__ = [
    "BenchRecord",
    "DEFAULT_PROTOCOLS",
    "run_core_benchmark",
    "render_benchmark",
    "write_benchmark",
    "compare_benchmarks",
    "render_comparison",
    "main",
    "DEFAULT_SIZES",
    "SMOKE_SIZES",
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_MIN_SECONDS",
]

#: Populations timed by the full benchmark.  This MUST remain a superset
#: of :data:`SMOKE_SIZES`: the CI ``bench-gate`` job compares a smoke run
#: against the committed ``BENCH_core.json``, so a baseline regenerated
#: with the plain default configuration has to contain the smoke cells
#: (``tests/test_bench_compare.py`` pins the subset relation).
DEFAULT_SIZES = (256, 1_000, 1_024, 10_000, 100_000)
#: Populations timed by ``--smoke`` (seconds-long; used in CI).
SMOKE_SIZES = (256, 1_024)

#: The agent engine is O(population · rounds) of Python-level work; beyond
#: these sizes a single timing run takes minutes, so the benchmark records
#: the vectorised numbers alone (the speedup column needs both sides).
AGENT_SIZE_CAPS = {
    "push-sum-revert": 10_000,
    "push-sum-revert-lossy": 10_000,
    "push-sum-revert-ring": 10_000,
    "push-sum-revert-grid": 10_000,
    "push-sum-revert-churn": 10_000,
    "push-sum-revert-trace": 2_000,
    "count-sketch-reset": 2_000,
    "push-sum-revert-events": 2_000,
}

#: Protocol cells timed by default: the two dynamic protocols on a perfect
#: network, the lossy-network variant (Bernoulli loss exercises the
#: delivery layer on the agent engine and the loss path in the kernel),
#: two topology-restricted rows (ring and grid gossip through the
#: sparse-adjacency samplers of :mod:`repro.simulator.sparse`), a churn
#: row (continuous departures + arrivals — the mutable-membership path of
#: DESIGN.md §12), a trace-replay row (contact-trace gossip through the
#: time-varying CSR with group-relative error), and an event-engine row
#: (latency x exchange on the continuous-time calendar of
#: :mod:`repro.events` — timed on both the agent calendar and the
#: bucketed vectorised calendar of :mod:`repro.api.kernel_run`).
DEFAULT_PROTOCOLS = (
    "push-sum-revert",
    "count-sketch-reset",
    "push-sum-revert-lossy",
    "push-sum-revert-ring",
    "push-sum-revert-grid",
    "push-sum-revert-churn",
    "push-sum-revert-trace",
    "push-sum-revert-events",
)


@dataclass
class BenchRecord:
    """One timed (protocol, backend, population) cell."""

    protocol: str
    backend: str
    n_hosts: int
    rounds: int
    repeats: int
    best_seconds: float
    mean_seconds: float

    @property
    def ms_per_round(self) -> float:
        """Best-case wall-clock milliseconds per gossip round."""
        return 1000.0 * self.best_seconds / self.rounds

    @property
    def host_rounds_per_second(self) -> float:
        """Best-case (host · round) throughput — the scaling headline."""
        return self.n_hosts * self.rounds / self.best_seconds


def _bench_spec(protocol: str, n_hosts: int, rounds: int, backend: str, seed: int) -> ScenarioSpec:
    """The scenario timed for one benchmark cell.

    Both protocols include the paper's half-the-network failure so the
    benchmark exercises the event path, not just the steady-state loop.
    """
    failure_round = max(1, rounds // 2)
    failure = {
        "event": "failure",
        "round": failure_round,
        "model": "uncorrelated",
        "fraction": 0.5,
    }
    if protocol == "push-sum-revert":
        return ScenarioSpec(
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            n_hosts=n_hosts,
            rounds=rounds,
            seed=seed,
            events=(failure,),
            backend=backend,
            name=f"bench {protocol} n={n_hosts} ({backend})",
        )
    if protocol == "push-sum-revert-lossy":
        # The lossy-network row: identical protocol work plus the delivery
        # layer (agent) / the Bernoulli loss path (kernel).
        return ScenarioSpec(
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            mode="push",
            network="bernoulli-loss",
            network_params={"p": 0.2},
            n_hosts=n_hosts,
            rounds=rounds,
            seed=seed,
            events=(failure,),
            backend=backend,
            name=f"bench {protocol} n={n_hosts} ({backend})",
        )
    if protocol in ("push-sum-revert-ring", "push-sum-revert-grid"):
        # The topology rows: identical protocol work routed through the
        # sparse-adjacency peer samplers (ring lattice / 2-D grid).
        return ScenarioSpec(
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            environment="ring" if protocol.endswith("ring") else "grid",
            n_hosts=n_hosts,
            rounds=rounds,
            seed=seed,
            events=(failure,),
            backend=backend,
            name=f"bench {protocol} n={n_hosts} ({backend})",
        )
    if protocol == "push-sum-revert-churn":
        # The churn row: a failure draw plus fresh arrivals every round
        # from the halfway point on — the kernels mask and grow their
        # arrays each round instead of running the steady-state loop.
        churn = {
            "event": "churn",
            "start": failure_round,
            "stop": rounds,
            "model": "uncorrelated",
            "fraction": 0.02,
            "arrivals_per_round": max(1, n_hosts // 100),
        }
        return ScenarioSpec(
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            n_hosts=n_hosts,
            rounds=rounds,
            seed=seed,
            events=(churn,),
            backend=backend,
            name=f"bench {protocol} n={n_hosts} ({backend})",
        )
    if protocol == "push-sum-revert-trace":
        # The trace-replay row: a synthetic contact trace compiled to the
        # per-round time-varying CSR, with group-relative error against
        # the union-window components (DESIGN.md §12).
        return ScenarioSpec(
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            environment="trace",
            environment_params={"devices": n_hosts, "hours": 1.0},
            n_hosts=n_hosts,
            rounds=rounds,
            group_relative=True,
            seed=seed,
            backend=backend,
            name=f"bench {protocol} n={n_hosts} ({backend})",
        )
    if protocol == "push-sum-revert-events":
        # The event-engine row: latency x exchange on the continuous-time
        # calendar — the combination the round engine rejects outright.
        return ScenarioSpec(
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            mode="exchange",
            network="latency",
            network_params={"distribution": "uniform", "low": 0, "high": 2},
            engine="events",
            n_hosts=n_hosts,
            rounds=rounds,
            seed=seed,
            events=(failure,),
            backend=backend,
            name=f"bench {protocol} n={n_hosts} ({backend})",
        )
    if protocol == "count-sketch-reset":
        return ScenarioSpec(
            protocol="count-sketch-reset",
            protocol_params={"bins": 16, "bits": 18, "cutoff": "default"},
            workload="constant",
            n_hosts=n_hosts,
            rounds=rounds,
            seed=seed,
            events=(failure,),
            backend=backend,
            name=f"bench {protocol} n={n_hosts} ({backend})",
        )
    raise ValueError(f"no benchmark scenario for protocol {protocol!r}")


def _time_spec(spec: ScenarioSpec, repeats: int) -> List[float]:
    """Wall-clock seconds for ``repeats`` complete runs of ``spec``."""
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_scenario(spec)
        times.append(time.perf_counter() - start)
    return times


def run_core_benchmark(
    *,
    sizes: Optional[Sequence[int]] = None,
    rounds: int = 10,
    repeats: int = 3,
    seed: int = 0,
    smoke: bool = False,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
) -> Dict[str, object]:
    """Time every (protocol, backend, size) cell and return the payload.

    The agent engine is skipped above :data:`AGENT_SIZE_CAPS` (its runtime
    there is minutes per cell); the vectorised backend runs every size.
    Speedups are reported wherever both backends were timed.
    """
    if rounds < 1 or repeats < 1:
        raise ValueError("rounds and repeats must be >= 1")
    chosen_sizes = tuple(int(size) for size in (sizes or (SMOKE_SIZES if smoke else DEFAULT_SIZES)))
    if not chosen_sizes or any(size < 2 for size in chosen_sizes):
        raise ValueError("sizes must be a non-empty sequence of populations >= 2")

    records: List[BenchRecord] = []
    from repro.api.plan import resolve_plan

    for protocol in protocols:
        cap = AGENT_SIZE_CAPS.get(protocol, max(chosen_sizes))
        for n_hosts in chosen_sizes:
            agent_side = ["agent"] if n_hosts <= cap else []
            # Plan-driven gating: a cell gets a vectorised row exactly when
            # the capability layer would auto-resolve it to the fast path.
            probe_spec = _bench_spec(protocol, n_hosts, rounds, "auto", seed)
            if resolve_plan(probe_spec).backend == "vectorized":
                backends = ["vectorized"] + agent_side
            else:
                backends = agent_side
            for backend in backends:
                spec = _bench_spec(protocol, n_hosts, rounds, backend, seed)
                times = _time_spec(spec, repeats)
                records.append(
                    BenchRecord(
                        protocol=protocol,
                        backend=backend,
                        n_hosts=n_hosts,
                        rounds=rounds,
                        repeats=repeats,
                        best_seconds=min(times),
                        mean_seconds=sum(times) / len(times),
                    )
                )

    by_cell = {(r.protocol, r.backend, r.n_hosts): r for r in records}
    speedups: Dict[str, Dict[str, float]] = {}
    for protocol in protocols:
        for n_hosts in chosen_sizes:
            agent = by_cell.get((protocol, "agent", n_hosts))
            vectorized = by_cell.get((protocol, "vectorized", n_hosts))
            if agent is None or vectorized is None:
                continue
            speedups.setdefault(protocol, {})[str(n_hosts)] = round(
                agent.best_seconds / vectorized.best_seconds, 2
            )

    return {
        "benchmark": "core-backends",
        "schema_version": 1,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": {
            "sizes": list(chosen_sizes),
            "rounds": rounds,
            "repeats": repeats,
            "seed": seed,
            "smoke": smoke,
            "protocols": list(protocols),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "records": [
            {
                **asdict(record),
                "ms_per_round": round(record.ms_per_round, 4),
                "host_rounds_per_second": round(record.host_rounds_per_second, 1),
            }
            for record in records
        ],
        "speedups": speedups,
    }


def render_benchmark(payload: Dict[str, object]) -> str:
    """The payload as an aligned text table plus the speedup summary."""
    rows = [
        [
            record["protocol"],
            record["backend"],
            record["n_hosts"],
            record["rounds"],
            round(record["best_seconds"], 4),
            record["ms_per_round"],
            record["host_rounds_per_second"],
        ]
        for record in payload["records"]
    ]
    table = render_table(
        ["protocol", "backend", "hosts", "rounds", "best (s)", "ms/round", "host-rounds/s"],
        rows,
    )
    lines = [f"Core backend benchmark ({payload['config']['repeats']} repeats, best-of shown)", table]
    speedups = payload.get("speedups") or {}
    if speedups:
        lines.append("\nVectorised speedup over the agent engine:")
        speedup_rows = [
            [protocol, n_hosts, f"{factor:g}x"]
            for protocol, per_size in speedups.items()
            for n_hosts, factor in per_size.items()
        ]
        lines.append(render_table(["protocol", "hosts", "speedup"], speedup_rows))
    return "\n".join(lines)


def write_benchmark(payload: Dict[str, object], path: str) -> None:
    """Write the payload as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Regression comparison (the CI bench-gate; see benchmarks/compare_bench.py)
# ---------------------------------------------------------------------------

#: A record counts as a regression when its best time grows by more than
#: this factor over the baseline.  2x absorbs machine-to-machine variance
#: between the committed baseline and the CI runner while still catching
#: the an-order-of-magnitude slowdowns a broken kernel produces.
DEFAULT_REGRESSION_THRESHOLD = 2.0

#: Records whose *baseline* time is below this many seconds are reported
#: but never gated on: sub-5ms cells are dominated by timer noise and
#: interpreter warm-up, not by the code under test.
DEFAULT_MIN_SECONDS = 0.005


def _record_key(record: Dict[str, object]):
    """The identity of one benchmark cell across payloads."""
    return (
        record["protocol"],
        record["backend"],
        int(record["n_hosts"]),
        int(record["rounds"]),
    )


def compare_benchmarks(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    *,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> Dict[str, object]:
    """Compare two benchmark payloads record by record.

    Records are matched on (protocol, backend, n_hosts, rounds) and their
    ``best_seconds`` compared — a 3-repeat mean carries the cold first repeat
    (the committed push-sum-revert n=256 mean is slower than n=1024: warm-up,
    not signal); payloads that predate the field fall back to
    ``mean_seconds``.  A matched record whose baseline time is at least
    ``min_seconds`` and whose candidate/baseline ratio exceeds ``threshold``
    is a regression.  Cells present on only one side are
    listed but never gate (the smoke configuration times a subset of the
    committed baseline's sizes).

    Returns a report dict: ``rows`` (one per matched record, with
    ``ratio`` and ``status`` in {"ok", "fast", "noise", "REGRESSION"}),
    ``regressions``, ``compared``, ``baseline_only`` / ``candidate_only``.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1.0 (a slowdown factor)")
    if min_seconds < 0:
        raise ValueError("min_seconds must be >= 0")
    baseline_records = {_record_key(r): r for r in baseline.get("records", [])}
    candidate_records = {_record_key(r): r for r in candidate.get("records", [])}

    rows: List[Dict[str, object]] = []
    regressions: List[Dict[str, object]] = []
    for key in sorted(baseline_records.keys() & candidate_records.keys(), key=str):
        base_seconds, cand_seconds = (
            float(records[key].get("best_seconds", records[key]["mean_seconds"]))
            for records in (baseline_records, candidate_records)
        )
        ratio = cand_seconds / base_seconds if base_seconds > 0 else float("inf")
        if base_seconds < min_seconds:
            status = "noise"
        elif ratio > threshold:
            status = "REGRESSION"
        elif ratio < 1.0 / threshold:
            status = "fast"
        else:
            status = "ok"
        row = {
            "protocol": key[0],
            "backend": key[1],
            "n_hosts": key[2],
            "rounds": key[3],
            "baseline_seconds": base_seconds,
            "candidate_seconds": cand_seconds,
            "ratio": ratio,
            "status": status,
        }
        rows.append(row)
        if status == "REGRESSION":
            regressions.append(row)
    return {
        "threshold": threshold,
        "min_seconds": min_seconds,
        "rows": rows,
        "regressions": regressions,
        "compared": len(rows),
        "baseline_only": sorted(baseline_records.keys() - candidate_records.keys(), key=str),
        "candidate_only": sorted(candidate_records.keys() - baseline_records.keys(), key=str),
    }


def render_comparison(report: Dict[str, object]) -> str:
    """The comparison as an aligned table plus a one-line verdict."""
    rows = [
        [
            row["protocol"],
            row["backend"],
            row["n_hosts"],
            round(row["baseline_seconds"], 4),
            round(row["candidate_seconds"], 4),
            f"{row['ratio']:.2f}x",
            row["status"],
        ]
        for row in report["rows"]
    ]
    table = render_table(
        ["protocol", "backend", "hosts", "baseline (s)", "candidate (s)", "ratio", "status"],
        rows,
    )
    lines = [
        f"Benchmark comparison ({report['compared']} matched records, "
        f"gate > {report['threshold']:g}x on cells >= {report['min_seconds']:g}s)",
        table,
    ]
    unmatched = len(report["baseline_only"]) + len(report["candidate_only"])
    if unmatched:
        lines.append(f"\n{unmatched} record(s) present on one side only (not gated).")
    regressions = report["regressions"]
    if regressions:
        worst = max(regressions, key=lambda row: row["ratio"])
        lines.append(
            f"\nFAIL: {len(regressions)} regression(s); worst is "
            f"{worst['protocol']}/{worst['backend']}/n={worst['n_hosts']} "
            f"at {worst['ratio']:.2f}x the baseline."
        )
    else:
        lines.append("\nOK: no per-record slowdown beyond the threshold.")
    return "\n".join(lines)


def run_compare_command(args: argparse.Namespace) -> int:
    """Body of ``benchmarks/compare_bench.py`` (exit 0 ok, 1 regression, 2 usage)."""
    payloads = []
    for path in (args.baseline, args.candidate):
        try:
            with open(path) as handle:
                payloads.append(json.load(handle))
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read benchmark payload {path}: {error}", file=sys.stderr)
            return 2
    try:
        report = compare_benchmarks(
            payloads[0], payloads[1], threshold=args.threshold, min_seconds=args.min_seconds
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_comparison(report))
    if report["compared"] == 0:
        print(
            "error: the payloads share no benchmark records "
            "(nothing to gate on — were they produced by different configurations?)",
            file=sys.stderr,
        )
        return 2
    return 1 if report["regressions"] else 0


def add_compare_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the comparison flags (used by benchmarks/compare_bench.py)."""
    parser.add_argument("baseline", help="committed benchmark payload (e.g. BENCH_core.json)")
    parser.add_argument("candidate", help="freshly measured payload to check")
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_REGRESSION_THRESHOLD,
        help=f"per-record slowdown factor that fails the gate "
             f"(default {DEFAULT_REGRESSION_THRESHOLD:g}x)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        help=f"ignore records whose baseline mean is below this "
             f"(default {DEFAULT_MIN_SECONDS:g}s; timer noise)",
    )


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the benchmark flags (shared by the CLI and the script)."""
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-long configuration (small populations; used in CI)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=None,
        help=f"population sizes to time (default {list(DEFAULT_SIZES)}, smoke {list(SMOKE_SIZES)})",
    )
    parser.add_argument("--rounds", type=int, default=10, help="gossip rounds per timed run")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per cell (best-of)")
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument(
        "--output", default="BENCH_core.json",
        help="where to write the JSON payload (default: ./BENCH_core.json)",
    )
    parser.add_argument("--json", action="store_true", help="print the JSON payload to stdout")


def run_bench_command(args: argparse.Namespace) -> int:
    """Execute the benchmark for parsed flags (the `repro bench` body)."""
    try:
        payload = run_core_benchmark(
            sizes=args.sizes,
            rounds=args.rounds,
            repeats=args.repeats,
            seed=args.seed,
            smoke=args.smoke,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_benchmark(payload))
    if args.output:
        try:
            write_benchmark(payload, args.output)
        except OSError as error:
            # The timings were already printed above, so the work survives
            # an unwritable path; report it in the CLI's error convention.
            print(f"error: cannot write {args.output}: {error}", file=sys.stderr)
            return 2
        print(f"\nwrote {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python benchmarks/bench_core.py``)."""
    parser = argparse.ArgumentParser(
        prog="bench_core",
        description="Time the agent vs vectorised execution backends",
    )
    add_bench_arguments(parser)
    return run_bench_command(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

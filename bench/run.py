"""The repo benchmark: six workloads, host-time end-to-end metrics, a per-layer ledger.

    python3 bench/run.py [--seed 0] [--out bench/out/result.json] [--quick]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload — a timed pass (tracing off) of
interleaved blocks, then a traced pass for the per-layer ledger — prints
every metric by name with its unit and writes the JSON.  The second form
is the driver's contract (see ``BENCHMARK.json``): one workload, one pass,
and the result as one JSON object on the last line of stdout.

Load shape: closed loop, one client.  One child interpreter at a time
(``child.py``), single-threaded BLAS; each block is a fresh child with one
untimed warm-up.  A timed sample is the iteration's process CPU seconds,
calibrated against a fixed unit of work (``calibration.py``).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

from metrics import END_TO_END, PER_LAYER, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: ``nproc`` is 2 on the reference box: keep BLAS off the second core so
#: the one client is the only load.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SECONDS = 12  # timed seconds per workload; BENCHMARK.json's run_seconds
BLOCKS = 3  # fresh children per workload, interleaved across workloads
MIN_ITERATIONS = 14  # per block, so p75 has >= 10 samples beyond it (3 x 14 = 42)
TRACED_MIN_ITERATIONS = 9
CHILD_TIMEOUT_S = 50  # three blocks must fit the driver's 180 s per run


def spawn(workload: str, seed: int, mode: str, seconds: float, min_iterations: int) -> dict:
    """Run one block in a fresh interpreter and return its report.

    A child that dies is one attempted, failed operation — never an abort.
    """
    args = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "seconds": seconds,
        "min_iterations": min_iterations,
        "scratch": os.path.join(OUT_DIR, "tmp"),
        "spans": os.path.join(OUT_DIR, f"spans-{workload}.jsonl"),
    }
    pythonpath = os.pathsep.join(
        part for part in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if part
    )
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), json.dumps(args)],
            env={**os.environ, **THREAD_ENV, "PYTHONPATH": pythonpath},
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode == 0:
            return json.loads(done.stdout.splitlines()[-1])
        problem = f"child exited {done.returncode}: {done.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        problem = f"child still running after {CHILD_TIMEOUT_S} s; killed"
    return {"attempted": 1, "failed": 1, "problems": [problem], "samples": [], "ledger": {}}


def upper_quartile(values: List[float]) -> float:
    return statistics.quantiles(values, n=4)[2]


def block_metrics(samples: List[float], host_rounds: int, setup_s: float, rss: float) -> dict:
    p50 = statistics.median(samples)
    return {
        "run_s_p50": p50,
        "run_s_p75": upper_quartile(samples),
        "host_rounds_per_s": host_rounds / p50,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def summarise_timed(blocks: List[dict]) -> dict:
    """Pool a workload's blocks into its end-to-end row."""
    attempted = sum(block["attempted"] for block in blocks)
    failed = sum(block["failed"] for block in blocks)
    problems = [problem for block in blocks for problem in block["problems"]]
    good = [block for block in blocks if len(block["samples"]) >= 2]
    counts = [block["counts"] for block in good]
    if any(count != counts[0] for count in counts):
        failed += 1
        problems.append(f"sim.* counts differ between blocks of one seed: {counts}")
    row = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "samples": sum(len(block["samples"]) for block in good),
    }
    if good:
        host_rounds = counts[0]["sim.host_rounds"]
        per_block = [
            block_metrics(b["samples"], host_rounds, b["setup_s"], b["peak_rss_mb"]) for b in good
        ]
        pooled = [sample for block in good for sample in block["samples"]]
        row["end_to_end"] = block_metrics(
            pooled,
            host_rounds,
            statistics.median(block["setup_s"] for block in good),
            max(block["peak_rss_mb"] for block in good),
        )
        row["blocks"] = per_block
        row["counts"] = counts[0]
        raw = [sample for block in good for sample in block["raw_samples"]]
        row["raw_wall_clock"] = {
            "run_s_p50": statistics.median(raw),
            "run_s_p75": upper_quartile(raw),
            "wait_s_p50": statistics.median(w for block in good for w in block["raw_waits"]),
            "setup_s": statistics.median(block["raw_setup_s"] for block in good),
        }
        row["calibration_cpu_s"] = statistics.median(block["calibration_s"] for block in good)
    return row


def timed_pass(names, seed, seconds, blocks, min_iterations) -> Dict[str, dict]:
    """Blocks round-robin over the workloads: a slow minute on the shared
    host is spread across all of them instead of biasing one."""
    reports: Dict[str, List[dict]] = {name: [] for name in names}
    for _ in range(blocks):
        for name in names:
            reports[name].append(spawn(name, seed, "timed", seconds / blocks, min_iterations))
    return {name: summarise_timed(reports[name]) for name in names}


def traced_pass(names, seed, seconds, min_iterations) -> Dict[str, dict]:
    """One extra child per workload; never mixed into the timed samples."""
    rows = {}
    for name in names:
        report = spawn(name, seed, "traced", seconds, min_iterations)
        ledger = report["ledger"]
        complete = "obs.overhead_frac" in ledger
        iteration_s = report.get("traced_iteration_s")
        rows[name] = {
            "attempted": report["attempted"],
            "failed": report["failed"] + (0 if complete else 1),
            "problems": report["problems"],
            "iterations": report.get("iterations", 0),
            "traced_iteration_s": iteration_s,
            # A layer that did not run on this workload reads 0.
            "per_layer": {
                metric: {
                    "value": ledger.get(metric, 0.0),
                    "unit": unit,
                    **({"share": ledger.get(metric, 0.0) / iteration_s}
                       if unit == "s" and iteration_s else {}),
                }
                for metric, unit, _better in PER_LAYER
            },
        }
    return rows


def environment(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "thread_env": THREAD_ENV,
        "git_sha": sha,
        "seed": seed,
    }


def print_end_to_end(timed: Dict[str, dict]) -> None:
    print("== end to end: tracing off, closed loop, one client ==")
    for name, row in timed.items():
        print(f"{name}  (n={row['samples']} samples, {row['attempted']} attempted)")
        for metric, unit, _better, bound in END_TO_END:
            value = row.get("end_to_end", {}).get(metric, float("nan"))
            print(f"    {metric:<22}{value:>16.6g} {unit:<4} [bound {bound:.0%}]")
        print(f"    {'failed_frac':<22}{row['failed_frac']:>16.6g} {'ratio':<4} [any increase fails]")
        for metric, value in row.get("raw_wall_clock", {}).items():
            print(f"    raw {metric:<18}{value:>16.6g} s    [wall clock, no bound]")
        for problem in row["problems"]:
            print(f"    ! {problem}")


def print_per_layer(traced: Dict[str, dict]) -> None:
    for name, row in traced.items():
        iteration_s = row["traced_iteration_s"]
        print(
            f"== per layer: {name} — traced pass, {row['iterations']} iterations, "
            f"traced iteration {iteration_s if iteration_s is None else round(iteration_s, 6)} s =="
        )
        for metric, cell in row["per_layer"].items():
            share = f"{cell['share']:>7.1%}" if "share" in cell else ""
            value = cell["value"]
            shown = f"{value:>18.9g}" if cell["unit"] in ("s", "ratio") else f"{round(value):>18d}"
            print(f"    {metric:<46}{shown} {cell['unit']:<6}{share}")
        for problem in row["problems"]:
            print(f"    ! {problem}")


def driver_line(rows: Dict[str, dict], key: str) -> str:
    """The contract's last line for the single workload in ``rows``."""
    (row,) = rows.values()
    cells = row.get(key)
    if not cells:
        raise SystemExit(f"no result: {row['problems']}")
    if key == "end_to_end":
        units = {metric: unit for metric, unit, _better, _bound in END_TO_END}
        metrics = {m: {"value": value, "unit": units[m]} for m, value in cells.items()}
    else:
        metrics = {m: {"value": cell["value"], "unit": cell["unit"]} for m, cell in cells.items()}
    return json.dumps(
        {
            "correct": row["failed"] == 0,
            "attempted": row["attempted"],
            "failed": row["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="feeds every spec seed")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    parser.add_argument("--quick", action="store_true", help="1 block x 2 iterations (smoke)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="driver mode: one workload")
    parser.add_argument("--seconds", type=float, default=SECONDS, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="driver mode: 1 = per-layer pass")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: {ROOT} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    blocks, min_iterations, traced_min = BLOCKS, MIN_ITERATIONS, TRACED_MIN_ITERATIONS
    seconds = args.seconds
    if args.quick:
        blocks, min_iterations, traced_min, seconds = 1, 2, 2, 0.0

    if args.workload:
        if args.trace:
            traced = traced_pass([args.workload], args.seed, seconds, traced_min)
            print_per_layer(traced)
            print(driver_line(traced, "per_layer"))
        else:
            timed = timed_pass([args.workload], args.seed, seconds, blocks, min_iterations)
            print_end_to_end(timed)
            print(driver_line(timed, "end_to_end"))
        return 0

    names = list(WORKLOADS)
    timed = timed_pass(names, args.seed, seconds, blocks, min_iterations)
    # The full run's traced pass is the fixed minimum (9 pairs), not time-bounded.
    traced = traced_pass(names, args.seed, 0.0, traced_min)
    print_end_to_end(timed)
    print_per_layer(traced)
    result = {
        "environment": environment(args.seed),
        "load": {"blocks": blocks, "min_iterations_per_block": min_iterations, "seconds": seconds},
        "workloads": {
            name: {"why": WORKLOADS[name], "timed": timed[name], "traced": traced[name]}
            for name in names
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"wrote {args.out}")
    failed = sum(timed[n]["failed"] + traced[n]["failed"] for n in names)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

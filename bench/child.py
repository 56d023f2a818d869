"""One block of one workload, in a fresh interpreter.

``run.py`` starts this file once per block so that imports, the topology
memo, the fingerprint memo and the allocator all start cold: ``setup_s``
is the CPU time the interpreter has used when the first timed iteration
starts (``raw_setup_s`` is the wall time since the first statement below).
The block's result is one JSON object on the last line of stdout.

    python3 bench/child.py '{"workload": "uniform_push", "seed": 0, "mode": "timed",
                             "seconds": 4.0, "min_iterations": 14,
                             "scratch": "bench/out/tmp", "spans": "bench/out/spans.jsonl"}'
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: Problems kept verbatim in the block result (the count is always exact).
MAX_REPORTED_PROBLEMS = 5
#: Calibrations whose median scales ``setup_s`` (taken right after the warm-up).
SETUP_CALIBRATIONS = 5


class Block:
    """Run iterations of one workload, validating each."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference_digest = None
        self.counts = None

    def attempt(self, probe=None):
        """One validated iteration: its :class:`Outcome`, or ``None`` if it failed."""
        self.attempted += 1
        try:
            outcome = self.workload.iterate(probe=probe)
            problems = checks.validate(self.workload.name, outcome, self.reference_digest)
        except Exception:  # the benchmark must keep running; the traceback is reported
            outcome, problems = None, [traceback.format_exc(limit=4)]
        if problems:
            self.fail(problems)
            return None
        if self.reference_digest is None:
            self.reference_digest = checks.digest(outcome)
            self.counts = checks.counts(outcome)
        return outcome

    def fail(self, problems):
        self.failed += 1
        self.problems.extend(problems)
        del self.problems[MAX_REPORTED_PROBLEMS:]

    def report(self, **fields):
        return dict(
            fields,
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )


def keep_going(started, seconds, done, min_iterations):
    return done < min_iterations or time.perf_counter() - started < seconds


def timed_block(args, workload):
    """Samples are calibrated CPU seconds (``calibration.py``); ``raw_*`` are wall seconds."""
    block = Block(workload)
    block.attempt()  # untimed warm-up: fills the memos, fixes the reference digest
    setup_cpu_s = time.process_time()  # since the interpreter started
    raw_setup_s = time.perf_counter() - _STARTED
    calibrator = calibration.Calibrator(workload.calibration)
    calibrator.seconds()  # its own warm-up
    setup_factor = calibrator.factor(
        statistics.median(calibrator.seconds() for _ in range(SETUP_CALIBRATIONS))
    )
    samples, raw_samples, raw_waits = [], [], []
    started = time.perf_counter()
    before = calibrator.seconds()
    calibrations = [before]
    while keep_going(started, args["seconds"], block.attempted - 1, args["min_iterations"]):
        outcome = block.attempt()
        after = calibrator.seconds()
        if outcome is not None:
            samples.append(outcome.cpu_seconds * calibrator.factor(before, after))
            raw_samples.append(outcome.seconds)
            raw_waits.append(outcome.seconds - outcome.cpu_seconds)
        before = after
        calibrations.append(after)
    return block.report(
        setup_s=setup_cpu_s * setup_factor,
        raw_setup_s=raw_setup_s,
        samples=samples,
        raw_samples=raw_samples,
        raw_waits=raw_waits,
        calibration_s=statistics.median(calibrations),
        counts=block.counts,
    )


def median_by_key(rows):
    """Per-key median over a list of dicts (a missing key reads as 0)."""
    keys = {key for row in rows for key in row}
    return {key: statistics.median(row.get(key, 0.0) for row in rows) for key in keys}


def traced_block(args, workload):
    """The per-layer ledger of one workload (see README, "The traced pass")."""
    ledger = workload.cold_costs()  # first, before the warm-up fills the memos

    block = Block(workload)
    block.attempt()
    # Untraced and traced iterations alternate and the overhead is the median
    # of the per-pair CPU-time ratios, so a slow minute on the shared host
    # hits both sides of every ratio alike.
    overheads, traced, span_rows, split_rows = [], [], [], []
    pairs = 0
    started = time.perf_counter()
    with open(args["spans"], "w", encoding="utf-8") as spans_file:
        while keep_going(started, args["seconds"] * 0.6, pairs, args["min_iterations"]):
            pairs += 1
            plain = block.attempt()
            probe = layers.SpanLedger()
            probed = block.attempt(probe=probe)
            if plain is None or probed is None:
                continue
            overheads.append(probed.cpu_seconds / plain.cpu_seconds - 1.0)
            traced.append(probed.seconds)
            split_rows.append(plain.splits)
            span_rows.append(probe.self_times())
            probe.write(spans_file, iteration=len(span_rows))

    # As many hand-driven loops as pairs: about half a pair's time each where
    # the loop steps a kernel, microseconds where it only builds and resolves.
    hand_rows = []
    for _ in range(pairs):
        block.attempted += 1
        try:
            hand_rows.append(workload.hand_driven())
        except Exception:  # as in Block.attempt: count it, report it, go on
            block.fail([traceback.format_exc(limit=4)])

    if span_rows and hand_rows:
        ledger.update(median_by_key(span_rows))
        ledger.update(median_by_key(split_rows))
        hand = median_by_key(hand_rows)
        run_scenario_s = hand.pop("run_scenario_s", None)
        ledger.update(hand)
        if "simulator.vectorized.step_s" in ledger:
            ledger["simulator.vectorized.step_unspanned_s"] = ledger[
                "simulator.vectorized.step_s"
            ] - sum(
                ledger.get(f"simulator.vectorized.{name}_self_s", 0.0)
                for name in layers.KERNEL_SPANS
            )
        if run_scenario_s is not None:  # the sweep's hand-driven loop times its cells
            ledger["api.sweep.overhead_s"] = (
                ledger["api.sweep.cold_pass_s"] - run_scenario_s - ledger["store.put_s"]
            )
        ledger["obs.overhead_frac"] = statistics.median(overheads)
        ledger.update(block.counts)
    return block.report(
        ledger=ledger,
        traced_iteration_s=statistics.median(traced) if traced else None,
        iterations=len(span_rows),
    )


def main() -> int:
    args = json.loads(sys.argv[1])
    os.makedirs(args["scratch"], exist_ok=True)
    workload = workloads.build(args["workload"], args["seed"], args["scratch"])
    run_block = traced_block if args["mode"] == "traced" else timed_block
    print(json.dumps(run_block(args, workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The committed benchmark baseline, ``BENCH_repo.json``, stays readable by ``bench/compare.py``.

The file is the full output of ``python3 bench/run.py --seed 0 --out BENCH_repo.json``;
a change that claims speed measures it again, so its git history is the trajectory.
"""

import copy
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_repo.json"


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


@pytest.fixture(scope="module")
def compare():
    """``bench/compare.py`` as a module; it imports ``metrics`` from its own directory."""
    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("compare")
    finally:
        sys.path.remove(bench)


def scaled(baseline, workload, metric, blocks):
    """A copy of ``baseline`` whose ``metric`` on ``workload`` reads ``blocks`` × the base median.

    The median becomes the middle block, as the comparator's rows are medians.
    """
    change = copy.deepcopy(baseline)
    row = change["workloads"][workload]["timed"]
    base = row["end_to_end"][metric]
    for block, factor in zip(row["blocks"], blocks):
        block[metric] = base * factor
    row["end_to_end"][metric] = base * sorted(blocks)[len(blocks) // 2]
    return change


def verdict(stdout, workload, metric):
    """The status column of the comparator's row for ``workload`` × ``metric``."""
    for line in stdout.splitlines():
        words = line.split()
        if words[:2] == [workload, metric]:
            return words[-1]
    raise AssertionError(f"no row for {workload} {metric}:\n{stdout}")


def test_every_declared_workload_has_every_end_to_end_metric(baseline):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"] for metric in declared["end_to_end"]}
    for workload in declared["workloads"]:
        timed = baseline["workloads"][workload["name"]]["timed"]
        assert metrics <= set(timed["end_to_end"]), workload["name"]


def test_no_operation_failed_and_the_seed_is_zero(baseline):
    assert baseline["environment"]["seed"] == 0
    for name, workload in baseline["workloads"].items():
        assert workload["timed"]["failed"] == 0, name
        assert workload["traced"]["failed"] == 0, name


def test_the_comparator_reads_it():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"), str(BASELINE), str(BASELINE)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "CHANGED" not in done.stdout


def test_a_slowdown_beyond_the_bound_regresses(compare, baseline, capsys):
    slower = scaled(baseline, "ring_exchange", "run_s_p50", [1.5, 1.5, 1.5])
    assert compare.compare(baseline, slower) == 1
    out = capsys.readouterr().out
    assert verdict(out, "ring_exchange", "run_s_p50") == "REGRESSED"
    assert verdict(out, "uniform_push", "run_s_p50") == "ok"


def test_a_throughput_drop_beyond_the_bound_regresses(compare, baseline, capsys):
    slower = scaled(baseline, "agent_lossy", "host_rounds_per_s", [0.7, 0.7, 0.7])
    assert compare.compare(baseline, slower) == 1
    assert verdict(capsys.readouterr().out, "agent_lossy", "host_rounds_per_s") == "REGRESSED"


def test_a_slowdown_within_the_bound_and_a_speedup_pass(compare, baseline, capsys):
    change = scaled(baseline, "uniform_push", "run_s_p50", [1.1, 1.1, 1.1])
    faster = scaled(change, "sketch_reset", "run_s_p50", [0.5, 0.5, 0.5])
    assert compare.compare(baseline, faster) == 0
    out = capsys.readouterr().out
    assert verdict(out, "uniform_push", "run_s_p50") == "ok"
    assert verdict(out, "sketch_reset", "run_s_p50") == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved_not_regressed(compare, baseline, capsys):
    noisy = scaled(baseline, "events_latency", "run_s_p50", [0.7, 1.0, 1.3])
    assert compare.compare(baseline, noisy) == 0
    assert verdict(capsys.readouterr().out, "events_latency", "run_s_p50") == "unresolved"


def test_every_block_better_than_every_base_block_outweighs_the_spread(compare, baseline, capsys):
    noisy_but_faster = scaled(baseline, "events_latency", "run_s_p50", [0.5, 0.6, 0.8])
    assert compare.compare(baseline, noisy_but_faster) == 0
    assert verdict(capsys.readouterr().out, "events_latency", "run_s_p50") == "ok"


def test_a_higher_failed_share_regresses(compare, baseline, capsys):
    failing = copy.deepcopy(baseline)
    failing["workloads"]["small_sweep_store"]["timed"]["failed_frac"] = 0.25
    assert compare.compare(baseline, failing) == 1
    assert verdict(capsys.readouterr().out, "small_sweep_store", "failed_frac") == "REGRESSED"


def test_a_workload_with_no_timed_sample_regresses(compare, baseline, capsys):
    all_failed = copy.deepcopy(baseline)
    del all_failed["workloads"]["sketch_reset"]["timed"]["end_to_end"]
    assert compare.compare(baseline, all_failed) == 1
    assert verdict(capsys.readouterr().out, "sketch_reset", "failed_frac") == "REGRESSED"


def test_a_moved_sim_count_is_printed_as_changed_without_gating(compare, baseline, capsys):
    # CI's bench-smoke step fails on these lines; the comparator itself only reports them.
    moved = copy.deepcopy(baseline)
    moved["workloads"]["agent_lossy"]["traced"]["per_layer"]["sim.messages_lost"]["value"] += 1
    assert compare.compare(baseline, moved) == 0
    changed = [line for line in capsys.readouterr().out.splitlines() if line.endswith("CHANGED")]
    assert len(changed) == 1 and changed[0].split()[:2] == ["agent_lossy", "sim.messages_lost"]


def test_different_seeds_are_noted(compare, baseline, capsys):
    reseeded = copy.deepcopy(baseline)
    reseeded["environment"]["seed"] = 1
    assert compare.compare(baseline, reseeded) == 0
    assert capsys.readouterr().out.startswith("note: the two runs used different seeds")


@pytest.mark.parametrize("argv", [[], [str(BASELINE)], [str(BASELINE)] * 3])
def test_anything_but_two_paths_is_a_usage_error(compare, argv, capsys):
    assert compare.main(argv) == 2
    assert "bench/compare.py base.json change.json" in capsys.readouterr().err
